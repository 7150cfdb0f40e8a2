"""Solvers for the simultaneous equations behind countable choice.

The target is the system

    control(f) = n,   f(n) = eps_n(p),   q(f) = p(eps_n(p))

in the unknowns ``f`` (a total sequence), ``n`` (an index) and ``p`` (a
function from values to observations), given the parameter triple
``eps``, ``q``, ``control``.

Two carrier builders, ``br`` and ``sbr`` under ``spector_params`` and
``symmetric_params``, each build a finite carrier whose canonical
extension solves the system.  The sequential one grows a finite sequence
one slot at a time in index order; the demand-driven one grows a finite
partial function at exactly the indices the control asks for.  Either
carrier determines the solution: read ``f`` off its extension, ``n`` from
the control, and ``p`` from a fresh recursor evaluation rooted at the
right prefix of the carrier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .context import EvalContext, InternalInvariantViolation
from .pfun import EMPTY, EMPTY_SEQ, FiniteSeq, InfSeq, PartialFn, extend_hat
from .recursors import RecursorParams, br, sbr
from .threads import thread_decomposition, thread_of_partial


@dataclass(frozen=True)
class ChoiceParams:
    """Parameters of the countable choice problem.

    ``eps`` maps an index ``n`` to a selection ``(X -> Y) -> X``; ``q``
    maps a total sequence to an observation; ``control`` maps a total
    sequence to an index.  ``default`` is the canonical zero of the value
    domain.
    """

    eps: Callable[[int], Callable[[Callable[[Any], Any]], Any]]
    q: Callable[[InfSeq], Any]
    control: Callable[[InfSeq], int]
    default: Any

    def q_hat(self, carrier: "FiniteSeq | PartialFn") -> Any:
        return self.q(extend_hat(carrier, self.default))


def _choice_params(cp: ChoiceParams,
                   combine: Callable[[Any, Any], Any],
                   zero: Any) -> RecursorParams:
    """The selection folded into a step functional: at the index ``n`` the
    engine fills, select ``a = eps_n(fun x -> q_hat(p(x)))`` and combine
    the state with the child carrier ``p(a)``.  The body is the identity,
    so the result is the carrier itself."""
    def step(state: Any, n: Any, p: Callable[[Any], Any]) -> Any:
        a = cp.eps(n)(lambda x: cp.q_hat(p(x)))
        return combine(state, p(a))

    return RecursorParams(step=step, body=lambda state: state,
                          control=cp.control, default=cp.default,
                          default_result=zero)


def spector_params(cp: ChoiceParams) -> RecursorParams:
    """Parameters under which ``br`` builds the sequential carrier."""
    return _choice_params(cp, FiniteSeq.overlay, EMPTY_SEQ)


def symmetric_params(cp: ChoiceParams) -> RecursorParams:
    """Parameters under which ``sbr`` builds the demand-driven carrier."""
    return _choice_params(cp, PartialFn.merge, EMPTY)


def phi_spector(cp: ChoiceParams, s: FiniteSeq,
                ctx: EvalContext | None = None) -> FiniteSeq:
    """The sequential carrier builder.

    From ``s`` it either stops (control value below the length) or extends
    with the selected value ``a_s = eps_{|s|}(fun x -> q_hat(child(x)))``
    and recurses; the result always extends ``s``.
    """
    return br(spector_params(cp), s, ctx)


def psi_symmetric(cp: ChoiceParams, u: PartialFn,
                  ctx: EvalContext | None = None) -> PartialFn:
    """The demand-driven carrier builder.

    From ``u`` it either stops (the control names a defined index) or
    updates at the named index ``n_u`` with the selected value
    ``a_u = eps_{n_u}(fun x -> q_hat(child(x)))`` and recurses.
    """
    return sbr(symmetric_params(cp), u, ctx)


def psi_via_sbr(cp: ChoiceParams, u: PartialFn,
                ctx: EvalContext | None = None) -> PartialFn:
    """Delegates to ``psi_symmetric``.  A function rather than an alias,
    because ``perfbench/tracer.py`` looks this name up and wraps it on its
    own."""
    return psi_symmetric(cp, u, ctx)


@dataclass(frozen=True)
class SpectorSolution:
    """A solution ``(f, n, p)`` together with the finite carrier it was
    read from (a sequence or a partial function)."""

    f: InfSeq
    n: int
    p: Callable[[Any], Any]
    witness: Any

    def carrier_size(self) -> int:
        return len(self.witness)

    def to_json(self, window: int = 8, p_args: tuple = (),
                encode: Callable[[Any], Any] = lambda x: x) -> dict:
        return {
            "n": self.n,
            "f_prefix": [encode(self.f(i)) for i in range(window)],
            "p_samples": [encode(self.p(a)) for a in p_args],
            "carrier_size": self.carrier_size(),
        }


def solve_spector(cp: ChoiceParams,
                  ctx: EvalContext | None = None) -> SpectorSolution:
    """Solve the system with the sequential carrier ``t``: ``f`` is the
    extension of ``t``, ``n = control(f)``, and ``p`` re-roots the builder
    at the length-``n`` prefix of ``t``."""
    ctx = ctx or EvalContext()
    t = phi_spector(cp, EMPTY_SEQ, ctx)
    f = extend_hat(t, cp.default)
    n = cp.control(f)
    if not n < len(t):
        raise InternalInvariantViolation(
            "control value %r not below carrier length %d" % (n, len(t)))
    prefix = t.take(n)

    def p(x: Any) -> Any:
        return cp.q_hat(phi_spector(cp, prefix.append(x), ctx.fresh()))

    return SpectorSolution(f=f, n=n, p=p, witness=t)


def solve_symmetric(cp: ChoiceParams,
                    ctx: EvalContext | None = None) -> SpectorSolution:
    """Solve the system with the demand-driven carrier ``v`` grown from
    the empty partial function.

    ``v`` is always a thread of its own control, so it has a unique update
    decomposition; ``n = control(v-hat)`` must occur among the update
    indices, and ``p`` re-roots the builder at the thread prefix that was
    current when ``n`` was filled.
    """
    ctx = ctx or EvalContext()
    v = psi_symmetric(cp, EMPTY, ctx)
    f = extend_hat(v, cp.default)
    n = cp.control(f)
    if not v.defined_at(n):
        raise InternalInvariantViolation(
            "control value %r lands outside the carrier domain %r"
            % (n, v.domain()))
    decomp = thread_decomposition(cp.control, v, cp.default, ctx)
    if decomp is None:
        raise InternalInvariantViolation("carrier is not a thread")
    hits = [k for k, (nk, _) in enumerate(decomp) if nk == n]
    if len(hits) != 1:
        raise InternalInvariantViolation(
            "update index %r occurs %d times in the decomposition"
            % (n, len(hits)))
    k = hits[0]
    prefix = PartialFn(decomp[:k])

    def p(x: Any) -> Any:
        return cp.q_hat(psi_symmetric(cp, prefix.update(n, x), ctx.fresh()))

    return SpectorSolution(f=f, n=n, p=p, witness=v)


def values_equal(a: Any, b: Any, window: int = 64) -> bool:
    """Equality of solution components.  Ground values compare exactly;
    function values (total sequences) compare on the observation window
    ``0..window`` since extensional equality is not decidable."""
    if isinstance(a, InfSeq) and isinstance(b, InfSeq):
        return a.prefix(window + 1) == b.prefix(window + 1)
    if isinstance(a, InfSeq) or isinstance(b, InfSeq):
        return False
    return a == b


def verify_equations(sol: SpectorSolution, cp: ChoiceParams,
                     window: int = 64) -> bool:
    """Check the three equations by direct evaluation."""
    if cp.control(sol.f) != sol.n:
        return False
    selected = cp.eps(sol.n)(sol.p)
    if not values_equal(sol.f(sol.n), selected, window):
        return False
    return values_equal(cp.q(sol.f), sol.p(selected), window)


def thread_prefix(cp: ChoiceParams, v: PartialFn, i: int,
                  ctx: EvalContext | None = None) -> PartialFn:
    """The length-``i`` thread of ``v`` under the instance's control."""
    return thread_of_partial(cp.control, v, i, cp.default, ctx)
