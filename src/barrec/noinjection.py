"""Refuting injectivity of functionals from sequences to naturals.

Every functional ``H`` from (nat -> nat) to nat collapses two sequences:
there are ``alpha``, ``beta`` and an index ``i`` with ``alpha(i) !=
beta(i)`` and ``H(alpha) = H(beta)``.  The construction parameterises the
countable choice solvers with

    eps_n(p) = p(zero) if H(p(zero)) = n else zero
    q(f)     = fun n -> f(n)(n) + 1
    control  = fun f -> H(q(f))

over the value domain of sequences (zero is the constant-0 sequence), and
reads the collision off a solution: ``alpha = q(f)``, ``i = control(f)``,
``beta = f(i)``.  ``H`` runs once per control evaluation.  The
selection's probe ``p(zero)`` is ``q`` of the child carrier the engine
has just stopped on, whose control value is ``H`` of that very probe, so
the selection reads the value the control computed there; any other
probe runs ``H``.  The verifier evaluates ``H`` itself.

``q`` of a carrier's extension is a table built off the carrier, not a
function that reads ``f(n)`` and then ``f(n)(n)``: every carrier value is
itself such a table or the zero, so a read of ``q(f)`` is one lookup
however deeply the values it reaches were built, and a value keeps its
table alive, not the extension it was read through.

Built-in ``H`` families and a verifier for the produced collisions live
here as well.  So do the report's axes, each declared once: the families
with their ``bench`` ranges (``BENCH_RANGES``), the recursor names
(``RECURSORS``) and the row schema (``report_row``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count
from operator import is_not
from typing import Callable

from .choice import ChoiceParams, solve_spector, solve_symmetric
from .context import EvalContext, Metrics
from .pfun import InfSeq, extend_table, extension_source

HFunctional = Callable[[InfSeq], int]

# The built-in families and the n each runs over in the benchmark tables.
BENCH_RANGES = {
    "prod": range(4, 7),
    "prodpow": range(3, 5),
    "leastinc": range(3, 6),
    "contrived": range(2, 7),
}
FAMILIES = tuple(BENCH_RANGES)

# The sequential and the demand-driven solver, by the names of their rows.
RECURSORS = ("spector", "symmetric")


def builtin_h(family: str, n: int) -> HFunctional:
    """The built-in ``H`` families.

    ``prod``      : product of ``1 + gamma(i)`` over ``i < n``;
    ``prodpow``   : product of ``(1 + i) ^ (1 + gamma(i))`` over ``i < n``;
    ``leastinc``  : least ``i <= n`` with ``gamma(i) < gamma(i+1)``, else ``n``;
    ``contrived`` : looks for the greatest ``i <= n`` with ``gamma(i) = 1``
                    only when ``gamma(0) = gamma(1) = 2``, answers 0 when
                    exactly one of the first two entries is 2 (the other 1),
                    and 1 otherwise.
    """
    if family == "prod":
        def h(gamma: InfSeq) -> int:
            acc = 1
            for i in range(n):
                acc *= 1 + gamma(i)
            return acc
        return h
    if family == "prodpow":
        def h(gamma: InfSeq) -> int:
            acc = 1
            for i in range(n):
                acc *= (1 + i) ** (1 + gamma(i))
            return acc
        return h
    if family == "leastinc":
        def h(gamma: InfSeq) -> int:
            for i in range(n + 1):
                if gamma(i) < gamma(i + 1):
                    return i
            return n
        return h
    if family == "contrived":
        def h(gamma: InfSeq) -> int:
            g0, g1 = gamma(0), gamma(1)
            if g0 == 2 and g1 == 2:
                for i in range(n, -1, -1):
                    if gamma(i) == 1:
                        return i
                return n
            if (g0 == 1 and g1 == 2) or (g0 == 2 and g1 == 1):
                return 0
            return 1
        return h
    raise ValueError("unknown family %r" % (family,))


def builtin_dsl(family: str, n: int) -> str:
    """The built-in families rendered in the control DSL."""
    if family == "prod":
        return "prod i < %d : 1 + g(i)" % n
    if family == "prodpow":
        return "prod i < %d : (1 + i) ^ (1 + g(i))" % n
    if family == "leastinc":
        return "least i <= %d st g(i) < g(i + 1) else %d" % (n, n)
    if family == "contrived":
        return ("if g(0) = 2 and g(1) = 2 "
                "then (greatest i <= %d st g(i) = 1 else %d) "
                "else (if g(0) = 1 and g(1) = 2 then 0 "
                "else (if g(0) = 2 and g(1) = 1 then 0 else 1))" % (n, n))
    raise ValueError("unknown family %r" % (family,))


def make_choice_params(h: HFunctional) -> ChoiceParams:
    """Choice parameters whose solutions refute injectivity of ``h``.

    The value domain is sequences-as-values; the shared zero object makes
    the selection's probe and the subsequent recursive call recognisably
    the same argument.  The control keeps the extension it last ran on,
    its ``q``-sequence and ``H`` there as one record: ``q`` of that
    extension returns the kept sequence, and a selection whose probe is
    that sequence reads the kept ``H`` value.

    ``q`` of a carrier's extension over the zero reads a diagonal table
    built off the carrier (``pfun.extension_source``), not ``f`` point by
    point.  A partial function's table maps each index ``n`` of an entry
    ``(n, v)`` to ``v(n) + 1`` and reads 1, the zero's ``0 + 1``,
    elsewhere, in C hit or miss (``pfun.extend_table``).  It is derived
    from the last one built, kept with the entry tuple it was built from:
    a copy of the last table, which takes its miss reader, loses the
    indices of the last tuple's entries that the new tuple does not share
    at its ends, and gains ``v(n) + 1`` for the new tuple's own, so a
    carrier one update away from the last reads one value.  A sequence's table
    is a list ``d`` with ``d[i] = buf[i](i) + 1``, kept for the last
    buffer seen and shared by every view of it: it grows to the view's
    length on each ``q``, and a read of a view of length ``n`` is ``d[i]``
    below ``n`` and 1 elsewhere.  Any other sequence is read as
    ``f(num)(num) + 1``.
    """
    zero = InfSeq.constant(0)
    # The extension the control last ran on, its q-sequence and H there.
    last = [(None, None, None)]
    # The buffer of the last sequence carrier q read, and its diagonal.
    diag = [None, []]
    # The entries of the last partial-function carrier q read, and its
    # diagonal table, replaced as one tuple.
    pf_diag = [((), {})]

    def pf_diagonal(source: dict) -> InfSeq:
        new = source.entries
        if new is None:
            new = tuple(source.items())
        old, table = pf_diag[0]
        # The two tuples hold the same pairs, object for object, in their
        # first i and last j places, so the table changes only between
        # them.  A pair in both runs of the shorter tuple would stand twice
        # in the longer one, so the runs overlap only when the tuples are
        # equal, and then both middles are empty.
        k = min(len(old), len(new))
        i = next(compress(count(), map(is_not, old, new)), k)
        j = next(compress(count(), map(is_not, reversed(old), reversed(new))),
                 k)
        qf = extend_table(table, 1)
        # The copy is this call's own until it returns.
        table = extension_source(qf)
        for n, _ in old[i:len(old) - j]:
            del table[n]
        for n, v in new[i:len(new) - j]:
            table[n] = v(n) + 1
        pf_diag[0] = (new, table)
        return qf

    def seq_diagonal(buf: list, n: int) -> InfSeq:
        if diag[0] is not buf:
            diag[:] = buf, []
        d = diag[1]
        d.extend(buf[i](i) + 1 for i in range(len(d), n))
        return InfSeq(lambda i: d[i] if 0 <= i < n else 1)

    def q(f: InfSeq) -> InfSeq:
        ran_on, qf, _ = last[0]
        if ran_on is f:
            return qf
        source = extension_source(f)
        if source is None or source.default is not zero:
            return InfSeq(lambda num: f(num)(num) + 1)
        if isinstance(source, dict):
            return pf_diagonal(source)
        return seq_diagonal(source.buf, source.n)

    def control(f: InfSeq) -> int:
        qf = q(f)
        value = h(qf)
        last[0] = (f, qf, value)
        return value

    def h_probe(probe: InfSeq) -> int:
        _, qf, value = last[0]
        return value if probe is qf else h(probe)

    # ``select`` is a frame on the recursion's spine, once per carrier slot,
    # so it keeps no more locals than it needs.
    def eps(n: int) -> Callable[[Callable[[InfSeq], InfSeq]], InfSeq]:
        def select(p: Callable[[InfSeq], InfSeq]) -> InfSeq:
            probe = p(zero)
            return probe if h_probe(probe) == n else zero
        return select

    return ChoiceParams(eps=eps, q=q, control=control, default=zero)


@dataclass(frozen=True)
class Counterexample:
    """Two sequences collapsed by ``H`` and an index where they differ."""

    alpha: InfSeq
    beta: InfSeq
    i: int
    metrics: Metrics
    carrier_size: int

    def prefix_length(self) -> int:
        return max(self.i, 8) + 1


def counterexample(h: HFunctional, recursor: str,
                   ctx: EvalContext | None = None) -> Counterexample:
    """Extract a collision for ``h`` using the chosen solver,
    ``"spector"`` (sequential) or ``"symmetric"`` (demand-driven)."""
    ctx = ctx or EvalContext()
    cp = make_choice_params(h)
    if recursor == "spector":
        sol = solve_spector(cp, ctx)
    elif recursor == "symmetric":
        sol = solve_symmetric(cp, ctx)
    else:
        raise ValueError("unknown recursor %r" % (recursor,))
    alpha = cp.q(sol.f)
    i = sol.n
    beta = sol.f(i)
    return Counterexample(alpha=alpha, beta=beta, i=i,
                          metrics=ctx.metrics(),
                          carrier_size=sol.carrier_size())


def verify_counterexample(h: HFunctional, c: Counterexample) -> bool:
    """Check both conjuncts by direct evaluation."""
    return c.alpha(c.i) != c.beta(c.i) and h(c.alpha) == h(c.beta)


def report_row(family: str, n: "int | None", recursor: str,
               metrics: Metrics, c: "Counterexample | None" = None,
               valid: "bool | None" = None) -> dict:
    """One benchmark/solve report row; key order is the wire format.

    A solve reads no thread, so ``metrics.ticks`` is 0 and the row does
    not carry it.  Without a counterexample ``c`` the row reports a run
    that stopped early: ``calls`` holds the entries made so far and the
    result fields are ``None``."""
    row = {"family": family, "n": n, "recursor": recursor,
           "mode": metrics.mode, "domain_size": None,
           "calls": metrics.calls, "i": None,
           "alpha_prefix": None, "beta_prefix": None, "valid": valid}
    if c is not None:
        k = c.prefix_length()
        row.update(domain_size=c.carrier_size, i=c.i,
                   alpha_prefix=c.alpha.prefix(k),
                   beta_prefix=c.beta.prefix(k))
    return row
