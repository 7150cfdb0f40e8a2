"""Seeded verification suites shared by the CLI and the test suite.

Each law is a generator of ``(ok, describe)`` checks.  Most laws are
functions of one random generator, from which they draw their instance;
a few take a built-in ``(family, n)`` cell, or a family together with the
generator.  ``tests/test_laws.py`` runs every law of a generator alone
under Hypothesis, so a failing case shrinks to a small instance.

A suite is a short list of laws with its loop bounds; ``cases`` bounds
every loop of a suite.  ``_suite`` owns the rest: one
``random.Random(seed)`` threaded through the laws in order, the case
labels, and a pass/fail count with the first few failure descriptions.
So a (seed, cases) pair pins the exact workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from itertools import chain, islice
from typing import Iterator

from . import gen, hdsl
from .choice import (fill_order, phi_spector, psi_symmetric, reroot,
                     solve_spector, solve_symmetric, symmetric_params,
                     thread_prefix, verify_equations)
from .context import EvalContext, InternalInvariantViolation
from .interdef import br_from_sbr, carrier_stages, diag_finite, sbr_from_br, \
    theta_from_br
from .noinjection import (BENCH_RANGES, FAMILIES, RECURSORS, builtin_dsl,
                          builtin_h, counterexample, make_choice_params,
                          verify_counterexample)
from .pfun import EMPTY, EMPTY_SEQ, PartialFn, extend_hat
from .recursors import br, sbr, theta
from .threads import (is_thread, spec_witness, sspec_witness, theta_bound,
                      thread_decomposition, thread_of_partial,
                      thread_of_total)


@dataclass
class SuiteResult:
    name: str
    passed: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, describe: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(describe)

    @property
    def ok(self) -> bool:
        return self.failed == 0


# -- laws ---------------------------------------------------------------------

def thread_laws(rng: random.Random) -> Iterator[tuple]:
    """Threads of a partial function start empty, grow monotonically and
    stabilise past its size; a partial function is a thread exactly when
    it decomposes into distinct updates of its own values; the stopping
    witness of a total sequence lies within the thread bound and stops;
    and Spector's stopping point lies past the bar."""
    control = gen.gen_control(rng)
    alpha = gen.gen_alpha(rng)
    if rng.random() < 0.5:
        u = thread_of_total(control, alpha, rng.randint(0, 6), 0)
    else:
        u = gen.gen_partial(rng, 4)

    prev = thread_of_partial(control, u, 0, 0)
    mono = len(prev) == 0
    for i in range(1, len(u) + 2):
        cur = thread_of_partial(control, u, i, 0)
        mono &= (prev.leq(cur) and len(cur) <= i
                 and (i <= len(u) or cur == prev))
        prev = cur
    yield mono, "threads do not grow monotonically to a fixed point"

    decomp = thread_decomposition(control, u, 0)
    if is_thread(control, u, 0):
        ok = (decomp is not None and len(decomp) == len(u)
              and len({n for n, _ in decomp}) == len(decomp)
              and all(u.defined_at(n) and u(n) == x for n, x in decomp))
    else:
        ok = decomp is None
    yield ok, "decomposition disagrees with the thread predicate"

    bound = theta_bound(control, alpha, 0)
    witness = sspec_witness(control, alpha, 0)
    yield witness <= bound, "witness %d above bound %d" % (witness, bound)
    t = thread_of_total(control, alpha, witness, 0)
    yield (t.defined_at(control(extend_hat(t, 0))),
           "witness %d does not stop" % witness)

    stop = spec_witness(control, alpha, 0)
    seq_prefix = extend_hat(PartialFn((i, alpha(i)) for i in range(stop)), 0)
    yield control(seq_prefix) < stop, "stopping point %d not below bar" % stop


def br_laws(rng: random.Random) -> Iterator[tuple]:
    """Spector's recursor is deterministic, counters included; it stops
    at once exactly when the bar holds of its start, and its domain
    never falls below the start."""
    params, s = gen.gen_br_instance(rng)
    ctx1, ctx2 = EvalContext(), EvalContext()
    r1 = br(params, s, ctx1)
    r2 = br(params, s, ctx2)
    yield (r1 == r2 and ctx1.calls == ctx2.calls,
           "sequential run not reproducible")
    bar_now = params.control(extend_hat(s, 0)) < len(s)
    yield (ctx1.calls == 1) == bar_now, "immediate stop mismatch"
    yield ctx1.max_domain >= len(s), "max_domain below start"


def sbr_stop_law(rng: random.Random) -> Iterator[tuple]:
    """The demand-driven recursor stops at once exactly when the control
    names an index its start defines."""
    params, u = gen.gen_sbr_instance(rng)
    ctx = EvalContext()
    sbr(params, u, ctx)
    n0 = params.control(extend_hat(u, 0))
    yield (ctx.calls == 1) == u.defined_at(n0), \
        "symmetric immediate stop mismatch"


def theta_laws(rng: random.Random) -> Iterator[tuple]:
    """Restricting the demand-driven recursor to threads changes no
    thread's value; and along a fixed total sequence its depth, and its
    largest domain, is the sequence's stopping witness."""
    control, u = gen.gen_thread_input(rng)
    params = replace(gen.gen_sbr_instance(rng)[0], control=control)
    yield theta(params, u) == sbr(params, u), \
        "thread restriction changed a thread value"
    alpha = gen.gen_alpha(rng)
    follow = replace(params, step=lambda v, n, p: p(alpha(n)), body=len)
    ctx = EvalContext()
    depth = sbr(follow, EMPTY, ctx)
    yield (depth == sspec_witness(control, alpha, 0) == ctx.max_domain,
           "depth along a fixed sequence is not the stopping witness")


def _equations(cp) -> Iterator[tuple]:
    for tag, solver in (("seq", solve_spector), ("sym", solve_symmetric)):
        yield (verify_equations(solver(cp, EvalContext()), cp),
               "%s solution fails the equations" % tag)


def choice_law(rng: random.Random) -> Iterator[tuple]:
    """Both solvers' solutions satisfy the three equations on a generated
    ground instance."""
    yield from _equations(gen.gen_choice_instance(rng))


def choice_cell_law(family: str, n: int) -> Iterator[tuple]:
    """Both solvers' solutions satisfy the three equations on a built-in
    functional."""
    yield from _equations(make_choice_params(builtin_h(family, n)))


def indexwise_law(rng: random.Random) -> Iterator[tuple]:
    """The demand-driven carrier is a thread.  On both carriers, over the
    order in which each was filled, ``f(n) = eps_n(p)`` and ``q(f) =
    p(f(n))`` at every fill; re-rooting at a thread prefix leaves the
    demand-driven carrier; and its translation onto the sequential
    engine builds the same carrier."""
    cp = gen.gen_choice_instance(rng)
    ctx = EvalContext()
    t = phi_spector(cp, EMPTY_SEQ, ctx)
    v = psi_symmetric(cp, EMPTY, ctx)
    try:
        v_order = fill_order(cp, v, ctx)
    except InternalInvariantViolation:
        v_order = None
    yield v_order is not None, "demand-driven carrier is not a thread"
    for tag, carrier, order in (("sequential", t, fill_order(cp, t, ctx)),
                                ("demand-driven", v, v_order)):
        if order is None:
            continue  # a non-thread, already failed by the check above
        f = extend_hat(carrier, cp.default)
        qt = cp.q(f)
        for k, n in enumerate(order):
            p = reroot(cp, carrier, order, k, ctx)
            sel = cp.eps(n)(p)
            yield (f(n) == sel,
                   "%s carrier value at %d is not the selection" % (tag, n))
            yield qt == p(sel), "%s observation differs at fill %d" % (tag, k)
    for i in range(len(v) + 1):
        yield (psi_symmetric(cp, thread_prefix(cp, v, i, ctx), ctx) == v,
               "re-rooting at thread prefix %d moved the carrier" % i)
    yield sbr_from_br(symmetric_params(cp), EMPTY) == v, \
        "symmetric-from-sequential carrier disagrees"


def br_from_sbr_law(rng: random.Random) -> Iterator[tuple]:
    """Spector's recursor defined from the demand-driven one agrees with
    it."""
    params, s = gen.gen_br_instance(rng)
    yield br_from_sbr(params, s) == br(params, s), \
        "sequential translation differs"


def sbr_from_br_law(rng: random.Random) -> Iterator[tuple]:
    """The demand-driven recursor defined from Spector's agrees with
    it."""
    params, u = gen.gen_sbr_instance(rng)
    yield sbr_from_br(params, u) == sbr(params, u), \
        "symmetric translation differs"


def staged_law(rng: random.Random) -> Iterator[tuple]:
    """The thread recursor defined from Spector's agrees with it on a
    thread and is zero off threads; its stages, one per update, read back
    the thread's prefixes, and each is one longer than the index its
    update named."""
    control, u = gen.gen_thread_input(rng)
    params = replace(gen.gen_sbr_instance(rng)[0], control=control)
    yield theta_from_br(params, u) == theta(params, u), \
        "staged thread recursor differs"
    stages = carrier_stages(params, u)
    read_back = all(diag_finite(stage) == thread_of_partial(control, u, i, 0)
                    for i, stage in enumerate(stages[:len(u)]))
    yield (read_back and diag_finite(stages[-1]) == u,
           "stage read-back misses the thread")
    lengths_ok = len(stages) == len(u) + 1
    thread = EMPTY
    for i in range(len(u)):
        ni = control(extend_hat(thread, 0))
        thread = thread.update(ni, u(ni))
        lengths_ok &= len(stages[i + 1]) == ni + 1
    yield lengths_ok, "stage length is not the named index plus one"
    nonthread = PartialFn(((control(extend_hat(EMPTY, 0)) + 1, 0),))
    if not is_thread(control, nonthread, 0):
        yield theta_from_br(params, nonthread) == 0, \
            "staged recursor nonzero off threads"


def _collisions(h) -> Iterator[tuple]:
    for recursor in RECURSORS:
        yield (verify_counterexample(h, counterexample(h, recursor,
                                                       EvalContext())),
               "invalid %s collision" % recursor)


def collision_cell_law(family: str, n: int) -> Iterator[tuple]:
    """Both solvers extract a valid collision from a built-in functional."""
    yield from _collisions(builtin_h(family, n))


def collision_law(rng: random.Random) -> Iterator[tuple]:
    """Both solvers extract a valid collision from a generated DSL
    functional."""
    yield from _collisions(gen.gen_h_for_counterexample(rng)[1])


def rendering_law(rng: random.Random, family: str,
                  samples: int) -> Iterator[tuple]:
    """A built-in family at a drawn size agrees with its DSL rendering on
    ``samples`` generated sequences."""
    n = rng.randint(2, 6)
    href = builtin_h(family, n)
    hdsl_fn = hdsl.as_functional(hdsl.parse(builtin_dsl(family, n)))
    agree = True
    for _ in range(samples):
        gamma = gen.gen_alpha(rng)
        agree &= href(gamma) == hdsl_fn(gamma)
    yield agree, "DSL rendering at n=%d disagrees" % n


def roundtrip_law(rng: random.Random) -> Iterator[tuple]:
    """Printing a generated term and parsing it back gives the term."""
    e = gen.gen_hexpr(rng, depth=rng.randint(0, 3))
    yield hdsl.parse(hdsl.to_text(e)) == e, "round-trip changed the term"


# -- suites -------------------------------------------------------------------

def _numbered(rng, prefix, count, *laws) -> Iterator[tuple]:
    """``count`` generated cases labelled ``prefix N``; each runs
    ``laws`` in order on ``rng``."""
    return (("%s %d" % (prefix, case), law(rng))
            for case in range(count) for law in laws)


def _cells(count, law) -> Iterator[tuple]:
    """The first ``count`` built-in cells of the ``bench`` ranges, each
    run through ``law``."""
    cells = ((family, n) for family, ns in BENCH_RANGES.items() for n in ns)
    return (("%s n=%d" % cell, law(*cell)) for cell in islice(cells, count))


def _suite(name, default_cases, loops):
    """The suite ``name``: ``loops(rng, cases)`` yields ``(label,
    checks)`` pairs, which run in order on one generator.  A law that
    raises counts as one failure, and the suite goes on with the next
    pair."""
    def suite(seed: int = 0, cases: int = default_cases) -> SuiteResult:
        res = SuiteResult(name)
        for label, checks in loops(random.Random(seed), cases):
            try:
                for ok, describe in checks:
                    res.check(ok, "%s: %s" % (label, describe))
            except Exception as exc:
                res.check(False, "%s: raised %s: %s"
                          % (label, type(exc).__name__, exc))
        return res

    return suite


ALL_SUITES = {
    "threads": _suite("threads", 500, lambda rng, c: _numbered(
        rng, "case", c, thread_laws)),
    "recursors": _suite("recursors", 200, lambda rng, c: _numbered(
        rng, "case", c, br_laws, sbr_stop_law, theta_laws)),
    "spector": _suite("spector", 100, lambda rng, c: chain(
        _numbered(rng, "case", c, choice_law), _cells(c, choice_cell_law))),
    "indexwise": _suite("indexwise", 50, lambda rng, c: _numbered(
        rng, "case", c, indexwise_law)),
    "interdef": _suite("interdef", 200, lambda rng, c: chain(
        _numbered(rng, "case", c, br_from_sbr_law, sbr_from_br_law),
        _numbered(rng, "thread case", min(c, 100), staged_law))),
    "counterexamples": _suite("counterexamples", 100, lambda rng, c: chain(
        _cells(c, collision_cell_law),
        _numbered(rng, "dsl case", c, collision_law))),
    "dsl": _suite("dsl", 200, lambda rng, c: chain(
        ((family, rendering_law(rng, family, min(c, 100)))
         for family in FAMILIES[:c]),
        _numbered(rng, "case", c, roundtrip_law))),
}


def run_suites(names=None, seed: int = 0, cases: int | None = None) -> list:
    """Run the named suites (all by default); ``cases`` overrides each
    suite's size when given."""
    kwargs = {} if cases is None else {"cases": cases}
    return [ALL_SUITES[name](seed=seed, **kwargs)
            for name in names or ALL_SUITES]
