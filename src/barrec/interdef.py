"""Each bar recursor expressed through the other.

Both directions are value-level translations usable as differential
oracles against the direct engines.

Sequential from symmetric: a finite sequence is embedded as a partial
function on an initial segment over value/flag pairs, and a stubborn
control searches for the least unfilled position at or below the original
control's answer, so the symmetric engine is forced to update positions
in order.

Symmetric from sequential: a partial state is staged as a sequence of
pairs.  A slot holds either the snapshot that was current when its index
was updated, or a continuation able to restart the recursion with that
slot filled in later.  A diagonal functional reads the represented
partial state back out of the staging sequence, and the sequential engine
runs over the staged representation.  The translation lands on the
thread-restricted recursor first; relativising the parameters to a start
state then yields the full symmetric recursor from the empty state.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

from .context import EvalContext, sibling_cache
from .pfun import (EMPTY, EMPTY_SEQ, FiniteSeq, InfSeq, PartialFn,
                   bounded_search, extend_hat)
from .recursors import RecursorParams, br, sbr
from .threads import is_thread

__all__ = [
    "TaggedValue", "YPair", "br_from_sbr", "diag_finite", "diag_infinite",
    "theta_from_br", "sbr_from_br", "carrier_stages",
]


class TaggedValue(NamedTuple):
    """A value paired with a filled/unfilled flag (1 = filled)."""

    value: Any
    flag: int


class YPair(NamedTuple):
    """A staging slot: a snapshot of the partial state plus an opaque
    restart continuation ``(state, value) -> result``.  Continuations are
    never compared; slot equality is identity on that component."""

    snapshot: PartialFn
    cont: Callable[[PartialFn, Any], Any]


# -- Sequential bar recursion from the symmetric engine. --------------------

def br_from_sbr(params: RecursorParams, s: FiniteSeq,
                ctx: EvalContext | None = None) -> Any:
    """Run the symmetric engine over value/flag pairs so that it simulates
    sequential recursion from ``s``.  Extensionally equal to ``br``."""
    ctx = ctx or EvalContext()
    lifted = _lift_sequential(params)
    return sbr(lifted, _embed_seq(s), ctx)


def _embed_seq(s: FiniteSeq) -> PartialFn:
    """Embed a sequence as a partial function on ``{0..|s|-1}`` with all
    flags set."""
    return PartialFn((i, TaggedValue(x, 1)) for i, x in enumerate(s))


def _unembed(u: PartialFn, default: Any) -> FiniteSeq:
    """Read a sequence back: length is one past the maximal defined index,
    unfilled slots pad with the zero value.  The empty state reads back as
    the empty sequence."""
    if len(u) == 0:
        return EMPTY_SEQ
    top = u.max_index()
    return FiniteSeq(
        u(i).value if u.defined_at(i) else default for i in range(top + 1))


def _lift_sequential(params: RecursorParams) -> RecursorParams:
    tagged_default = TaggedValue(params.default, 0)

    def control(alpha: InfSeq) -> int:
        bound = params.control(InfSeq(lambda k: alpha(k).value))
        return bounded_search(bound, lambda i: alpha(i).flag == 0)

    def body(u: PartialFn) -> Any:
        return params.body(_unembed(u, params.default))

    def step(u: PartialFn, n: int, p: Callable[[TaggedValue], Any]) -> Any:
        ext = extend_hat(u, tagged_default)
        prefix = FiniteSeq(ext(i).value for i in range(n))
        return params.step(prefix, n, lambda x: p(TaggedValue(x, 1)))

    return RecursorParams(step=step, body=body, control=control,
                          default=tagged_default,
                          default_result=params.default_result)


# -- Symmetric bar recursion from the sequential engine. --------------------

def diag_finite(s: FiniteSeq) -> PartialFn:
    """Diagonal read-back of a staging sequence: position ``j`` takes the
    value of the first snapshot ``s_i`` with ``i <= j`` that defines it,
    and stays undefined when no snapshot at or below ``j`` does."""
    pairs = {}
    seen: set = set()
    for i, slot in enumerate(s):
        for j, x in slot.snapshot.items():
            if j >= i and j not in seen:
                seen.add(j)
                pairs[j] = x
    return PartialFn(pairs.items())


def diag_infinite(alpha: InfSeq, default: Any) -> InfSeq:
    """Diagonal read-back of a total staging sequence, padding undefined
    positions with the zero value."""
    def at(j: int) -> Any:
        for i in range(j + 1):
            snap = alpha(i).snapshot
            if snap.defined_at(j):
                return snap(j)
        return default

    return InfSeq(at)


def _lift_staged(params: RecursorParams,
                 zero_cont: Callable[[PartialFn, Any], Any]
                 ) -> RecursorParams:
    """Parameters for the sequential engine over staging slots."""
    y_zero = YPair(EMPTY, zero_cont)

    def control(alpha: InfSeq) -> int:
        return params.control(diag_infinite(alpha, params.default))

    def step(s: FiniteSeq, n: int, p: Callable[[YPair], Any]) -> Any:
        ds = diag_finite(s)
        if ds.defined_at(n):
            return p(YPair(ds, zero_cont))

        def restart(v: PartialFn, x: Any) -> Any:
            return p(YPair(ds.splice(n, x, v), zero_cont))

        return p(YPair(ds, restart))

    def body(s: FiniteSeq) -> Any:
        ds = diag_finite(s)
        m = params.control(extend_hat(ds, params.default))
        if ds.defined_at(m):
            return params.body(ds)
        slot = extend_hat(s, y_zero)(m)
        return params.step(ds, m, sibling_cache(lambda x: slot.cont(ds, x)))

    return RecursorParams(step=step, body=body, control=control,
                          default=y_zero,
                          default_result=params.default_result)


def carrier_stages(params: RecursorParams, u: PartialFn,
                   ctx: EvalContext | None = None) -> list:
    """The staging sequences for each thread prefix of ``u``: element ``i``
    stages the length-``i`` thread.  Requires ``u`` to be a thread of the
    instance's control."""
    ctx = ctx or EvalContext()
    zero_cont = _make_zero_cont(params)
    lifted = _lift_staged(params, zero_cont)
    return _build_stages(params, u, ctx, lifted, zero_cont)


def _make_zero_cont(params: RecursorParams) -> Callable:
    def zero_cont(_v: PartialFn, _x: Any) -> Any:
        return params.default_result

    return zero_cont


def _build_stages(params: RecursorParams, u: PartialFn, ctx: EvalContext,
                  lifted: RecursorParams, zero_cont: Callable) -> list:
    """Stage ``i+1`` either truncates stage ``i`` just below the named
    index (when that index was already staged) or pads it with restart
    slots up to the named index; either way the updated thread snapshot
    lands at the named index, so stage ``i+1`` has length ``n_i + 1``.
    Restart slots are built left to right, each closing over the part of
    the stage already built, which is all a restart needs to re-run the
    sequential engine with its own position filled in."""
    stages = [EMPTY_SEQ]
    slots: list = []
    thread = EMPTY
    for _ in range(len(u)):
        ctx.tick()
        n = params.control(extend_hat(thread, params.default))
        if thread.defined_at(n) or not u.defined_at(n):
            raise ValueError("input is not a thread of the control")
        thread = thread.update(n, u(n))
        if n < len(slots):
            slots = slots[:n] + [YPair(thread, zero_cont)]
        else:
            ds = diag_finite(FiniteSeq(slots))
            new_slots = list(slots)
            for pos in range(len(slots), n):
                if ds.defined_at(pos):
                    cont = zero_cont
                else:
                    cont = _make_restart(lifted, FiniteSeq(new_slots), ds,
                                         pos, zero_cont, ctx)
                new_slots.append(YPair(ds, cont))
            new_slots.append(YPair(thread, zero_cont))
            slots = new_slots
        stages.append(FiniteSeq(slots))
    return stages


def _make_restart(lifted: RecursorParams, built: FiniteSeq, ds: PartialFn,
                  pos: int, zero_cont: Callable, ctx: EvalContext
                  ) -> Callable[[PartialFn, Any], Any]:
    def restart(v: PartialFn, x: Any) -> Any:
        return br(lifted, built.append(YPair(ds.splice(pos, x, v),
                                             zero_cont)), ctx)

    return restart


def theta_from_br(params: RecursorParams, u: PartialFn,
                  ctx: EvalContext | None = None) -> Any:
    """The thread-restricted symmetric recursor, run on the sequential
    engine over the staged representation of ``u``.  Extensionally equal
    to ``theta``: the zero result on non-threads, the symmetric recursion
    otherwise."""
    ctx = ctx or EvalContext()
    if not is_thread(params.control, u, params.default, ctx):
        return params.default_result
    zero_cont = _make_zero_cont(params)
    lifted = _lift_staged(params, zero_cont)
    stages = _build_stages(params, u, ctx, lifted, zero_cont)
    return br(lifted, stages[-1], ctx)


def sbr_from_br(params: RecursorParams, u: PartialFn,
                ctx: EvalContext | None = None) -> Any:
    """The full symmetric recursor from the sequential engine.

    The parameters are relativised to the start state ``u``: states seen
    by the inner recursion are merged over ``u``, the control consults the
    merged extension, and a stop caused by landing inside ``u`` collapses
    the step to the body.  The translated thread-restricted recursor is
    then run from the empty state, which is trivially a thread.
    Extensionally equal to ``sbr``."""
    ctx = ctx or EvalContext()
    merged = u.merge

    def control(alpha: InfSeq) -> Any:
        table = dict(u.entries)
        return params.control(InfSeq(
            lambda i: table[i] if i in table else alpha(i)))

    def body(w: PartialFn) -> Any:
        return params.body(merged(w))

    def step(w: PartialFn, n: Any, p: Callable[[Any], Any]) -> Any:
        full = merged(w)
        if u.defined_at(n):
            return params.body(full)
        return params.step(full, n, p)

    relativised = RecursorParams(step=step, body=body, control=control,
                                 default=params.default,
                                 default_result=params.default_result)
    return theta_from_br(relativised, EMPTY, ctx)
