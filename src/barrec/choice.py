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
partial function at exactly the indices the control asks for.  The
control the engines are given notes the extension it runs on, and the
body keeps each stopped carrier with the extension its control stopped
on: the selection's observation ``q_hat`` of the child carrier the
engine has just stopped on reads that extension, so an instance can
recognise the observation of a carrier whose control value it has
already computed.  Either carrier determines the solution, read in one
place for both (``_solve``): ``f`` is its extension and ``n`` the
control's value there, and that is all a solve computes.  ``p`` is formed
on its first call: it finds the state that filled ``n`` (``fill_order``)
and re-runs the builder from there (``reroot``), both on the solve's own
context, so the solve's fuel bounds the work done through ``p`` too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
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
    # The carrier the engines last stopped on, and the extension its
    # control ran on.
    _last: list = field(default_factory=lambda: [(None, None)], init=False,
                        repr=False, compare=False)

    def q_hat(self, carrier: "FiniteSeq | PartialFn") -> Any:
        """The observation ``q`` of ``carrier``'s canonical extension."""
        last, f = self._last[0]
        if last is not carrier:
            f = extend_hat(carrier, self.default)
        return self.q(f)


def _choice_params(cp: ChoiceParams,
                   combine: Callable[[Any, Any], Any],
                   zero: Any) -> RecursorParams:
    """The selection folded into a step functional: at the index ``n`` the
    engine fills, select ``a = eps_n(fun x -> q_hat(p(x)))`` and combine
    the state with the child carrier ``p(a)``.  The body returns the
    carrier itself.  The control notes the extension it runs on; a
    stopping entry's body comes right after the control evaluation that
    stopped it, so the body keeps its carrier with that extension in
    ``cp._last``, where ``q_hat`` reads it."""
    ran_on = [None]

    def control(f: InfSeq) -> Any:
        ran_on[0] = f
        return cp.control(f)

    def body(state: Any) -> Any:
        cp._last[0] = (state, ran_on[0])
        return state

    def step(state: Any, n: Any, p: Callable[[Any], Any]) -> Any:
        a = cp.eps(n)(lambda x: cp.q_hat(p(x)))
        return combine(state, p(a))

    return RecursorParams(step=step, body=body, control=control,
                          default=cp.default, default_result=zero)


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
    read from (a sequence or a partial function).  ``p`` finds the state
    that filled ``n`` on its first call and re-runs the builder from it,
    on the solve's context, so the solve's fuel also bounds the work done
    through it."""

    f: InfSeq
    n: int
    p: Callable[[Any], Any]
    witness: Any

    def carrier_size(self) -> int:
        return len(self.witness)


def fill_order(cp: ChoiceParams, carrier: "FiniteSeq | PartialFn",
               ctx: EvalContext) -> "range | list":
    """The indices of ``carrier`` in the order its builder filled them:
    a sequence's in index order, a partial function's in the update order
    of its thread, which charges ``ctx`` one tick per update."""
    if isinstance(carrier, FiniteSeq):
        return range(len(carrier))
    decomp = thread_decomposition(cp.control, carrier, cp.default, ctx)
    if decomp is None:
        raise InternalInvariantViolation("carrier is not a thread")
    return [n for n, _ in decomp]


def reroot(cp: ChoiceParams, carrier: "FiniteSeq | PartialFn",
           order: "range | list", k: int,
           ctx: EvalContext) -> Callable[[Any], Any]:
    """The builder's continuation at fill ``k`` of ``carrier``, observed:
    ``x`` goes to ``q_hat`` of the carrier the builder grows on ``ctx``
    from the state that filled ``order[k]``, with ``x`` written there."""
    if isinstance(carrier, FiniteSeq):
        prefix = carrier.take(k)
        return lambda x: cp.q_hat(phi_spector(cp, prefix.append(x), ctx))
    n, prefix = order[k], PartialFn((m, carrier(m)) for m in order[:k])
    return lambda x: cp.q_hat(psi_symmetric(cp, prefix.update(n, x), ctx))


def _solve(cp: ChoiceParams, carrier: "FiniteSeq | PartialFn",
           ctx: EvalContext) -> SpectorSolution:
    """Read the solution off a built carrier: ``f`` is its extension and
    ``n = control(f)``.  ``p`` is formed on its first call, on ``ctx``:
    ``n`` must be filled exactly once, and ``p`` re-roots the builder at
    the state that filled it."""
    f = extend_hat(carrier, cp.default)
    n = cp.control(f)

    @cache
    def rooted() -> Callable[[Any], Any]:
        order = fill_order(cp, carrier, ctx)
        if order.count(n) != 1:
            raise InternalInvariantViolation(
                "control value %r is filled %d times, not once"
                % (n, order.count(n)))
        return reroot(cp, carrier, order, order.index(n), ctx)

    return SpectorSolution(f=f, n=n, p=lambda x: rooted()(x), witness=carrier)


def solve_spector(cp: ChoiceParams,
                  ctx: EvalContext | None = None) -> SpectorSolution:
    """Solve the system with the sequential carrier grown from the empty
    sequence; ``p`` re-roots the builder at its length-``n`` prefix."""
    ctx = ctx or EvalContext()
    return _solve(cp, phi_spector(cp, EMPTY_SEQ, ctx), ctx)


def solve_symmetric(cp: ChoiceParams,
                    ctx: EvalContext | None = None) -> SpectorSolution:
    """Solve the system with the demand-driven carrier grown from the
    empty partial function.  It is a thread of its own control, so its
    update order is unique; ``p``, on its first call, walks that thread
    and re-roots the builder at the prefix that was current when ``n``
    was filled."""
    ctx = ctx or EvalContext()
    return _solve(cp, psi_symmetric(cp, EMPTY, ctx), ctx)


_WINDOW = 64


def values_equal(a: Any, b: Any) -> bool:
    """Equality of solution components.  Ground values compare exactly;
    function values (total sequences) compare on the observation window
    ``0.._WINDOW`` since extensional equality is not decidable."""
    if isinstance(a, InfSeq) and isinstance(b, InfSeq):
        return a.prefix(_WINDOW + 1) == b.prefix(_WINDOW + 1)
    if isinstance(a, InfSeq) or isinstance(b, InfSeq):
        return False
    return a == b


def verify_equations(sol: SpectorSolution, cp: ChoiceParams) -> bool:
    """Check the three equations by direct evaluation.  The two calls of
    ``sol.p`` run on the solve's context and charge its fuel."""
    if cp.control(sol.f) != sol.n:
        return False
    selected = cp.eps(sol.n)(sol.p)
    if not values_equal(sol.f(sol.n), selected):
        return False
    return values_equal(cp.q(sol.f), sol.p(selected))


def thread_prefix(cp: ChoiceParams, v: PartialFn, i: int,
                  ctx: EvalContext | None = None) -> PartialFn:
    """The length-``i`` thread of ``v`` under the instance's control."""
    return thread_of_partial(cp.control, v, i, cp.default, ctx)
