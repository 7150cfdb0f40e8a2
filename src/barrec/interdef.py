"""Each bar recursor expressed through the other.

Both directions are value-level translations usable as differential
oracles against the direct engines.

Sequential from symmetric: a finite sequence is embedded as a partial
function on an initial segment over value/flag pairs, and a stubborn
control searches for the least unfilled position at or below the original
control's answer, so the symmetric engine is forced to update positions
in order.  Every state the lifted recursion meets is therefore an initial
segment ``0..n-1``, and whenever the control names an index outside the
state that index is ``n``: a state reads back as its values in index
order, and the step's prefix is that read-back.

Symmetric from sequential: a partial state is staged as a sequence of
pairs.  A slot holds the snapshot that was current when its index was
updated and, where that snapshot leaves the slot's own position
undefined, a continuation able to restart the recursion with the position
filled in later.  A diagonal functional reads the represented partial
state back out of the staging sequence, and the sequential engine runs
over the staged representation.  A slot at a defined position carries no
continuation: the diagonal only grows along a stage, so that position
stays defined, and the body calls a slot's continuation only at a
position the diagonal leaves undefined.  The translation lands on the
thread-restricted recursor first; relativising the parameters to a start
state then yields the full symmetric recursor from the empty state.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

from .context import EvalContext, sibling_cache
from .pfun import EMPTY, EMPTY_SEQ, FiniteSeq, InfSeq, PartialFn, extend_hat
from .recursors import RecursorParams, br, sbr
from .threads import TaggedValue, stubborn_control, thread_decomposition


class YPair(NamedTuple):
    """A staging slot: a snapshot of the partial state plus an opaque
    restart continuation ``(state, value) -> result``, or ``None`` where
    the snapshot already defines the slot's position, which no recursion
    restarts.  Continuations are never compared; slot equality is identity
    on that component."""

    snapshot: PartialFn
    cont: Callable[[PartialFn, Any], Any] | None


# -- Sequential bar recursion from the symmetric engine. --------------------

def br_from_sbr(params: RecursorParams, s: FiniteSeq,
                ctx: EvalContext | None = None) -> Any:
    """Run the symmetric engine over value/flag pairs so that it simulates
    sequential recursion from ``s``.  Extensionally equal to ``br``."""
    lifted = _lift_sequential(params)
    return sbr(lifted, _embed_seq(s), ctx)


def _embed_seq(s: FiniteSeq) -> PartialFn:
    """Embed a sequence as a partial function on ``{0..|s|-1}`` with all
    flags set."""
    return PartialFn((i, TaggedValue(x, 1)) for i, x in enumerate(s))


def _unembed(u: PartialFn) -> FiniteSeq:
    """Read a lifted state back as the sequence of its values in index
    order.  The state is an initial segment, as every state the stubborn
    control lets the symmetric engine build is."""
    return FiniteSeq(x.value for _, x in u.entries)


def _lift_sequential(params: RecursorParams) -> RecursorParams:
    """Parameters for the symmetric engine over value/flag pairs.  The
    step's index is always one past the state's, so its prefix is the
    whole state read back."""
    def body(u: PartialFn) -> Any:
        return params.body(_unembed(u))

    def step(u: PartialFn, n: int, p: Callable[[TaggedValue], Any]) -> Any:
        return params.step(_unembed(u), n, lambda x: p(TaggedValue(x, 1)))

    return RecursorParams(step=step, body=body,
                          control=stubborn_control(params.control),
                          default=TaggedValue(params.default, 0),
                          default_result=params.default_result)


# -- Symmetric bar recursion from the sequential engine. --------------------

def diag_finite(s: FiniteSeq) -> PartialFn:
    """Diagonal read-back of a staging sequence: position ``j`` takes the
    value of the first snapshot ``s_i`` with ``i <= j`` that defines it,
    and stays undefined when no snapshot at or below ``j`` does."""
    pairs = {}
    for i, slot in enumerate(s):
        for j, x in slot.snapshot.entries:
            if j >= i and j not in pairs:
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


def _slot(ds: PartialFn, pos: int, k: Callable[[YPair], Any]) -> YPair:
    """The staging slot at ``pos`` over the diagonal state ``ds``.  Where
    ``ds`` defines ``pos`` it holds no continuation, since every stage that
    extends this one defines ``pos`` too; otherwise it holds a restart,
    which splices the value ``x`` at ``pos`` and the later state ``v``
    above it into ``ds`` and hands the resulting slot to the sequential
    continuation ``k``."""
    if ds.defined_at(pos):
        return YPair(ds, None)
    return YPair(ds, lambda v, x: k(YPair(ds.splice(pos, x, v), None)))


def _lift_staged(params: RecursorParams) -> RecursorParams:
    """Parameters for the sequential engine over staging slots.  The body
    runs only where the lifted control stopped, so the index ``m`` it
    reads lies below ``len(s)``, and a slot whose position the diagonal
    leaves undefined holds a restart."""
    def control(alpha: InfSeq) -> int:
        return params.control(diag_infinite(alpha, params.default))

    def step(s: FiniteSeq, n: int, p: Callable[[YPair], Any]) -> Any:
        return p(_slot(diag_finite(s), n, p))

    def body(s: FiniteSeq) -> Any:
        ds = diag_finite(s)
        m = params.control(extend_hat(ds, params.default))
        if ds.defined_at(m):
            return params.body(ds)
        cont = s[m].cont
        return params.step(ds, m, sibling_cache(lambda x: cont(ds, x)))

    return RecursorParams(step=step, body=body, control=control,
                          default=YPair(EMPTY, None),
                          default_result=params.default_result)


def carrier_stages(params: RecursorParams, u: PartialFn,
                   ctx: EvalContext | None = None) -> list:
    """The staging sequences for each thread prefix of ``u``: element ``i``
    stages the length-``i`` thread.  Requires ``u`` to be a thread of the
    instance's control."""
    ctx = ctx or EvalContext()
    decomp = thread_decomposition(params.control, u, params.default, ctx)
    if decomp is None:
        raise ValueError("input is not a thread of the control")
    return _build_stages(params, decomp, ctx)[1]


def _build_stages(params: RecursorParams, decomp: list, ctx: EvalContext
                  ) -> tuple:
    """The lifted parameters, and the staging sequences along the thread
    update sequence ``decomp``.

    Stage ``i+1`` either truncates stage ``i`` just below the named
    index (when that index was already staged) or pads it with slots up
    to the named index; either way the updated thread snapshot lands at
    the named index, with no continuation since it defines that index, so
    stage ``i+1`` has length ``n_i + 1``.  A padding slot holds a restart
    at a position the stage's diagonal leaves undefined and no
    continuation elsewhere.  Stages are ``FiniteSeq`` views grown by
    ``append`` and cut by ``take``, so they share their slots.  Padding
    slots are built left to right, each restart closing over the view of
    the stage already built, which is all it needs to re-run the
    sequential engine with its own position filled in."""
    lifted = _lift_staged(params)
    stages = [EMPTY_SEQ]
    for k, (n, _) in enumerate(decomp):
        stage = stages[-1]
        if n < len(stage):
            stage = stage.take(n)
        else:
            ds = diag_finite(stage)
            for pos in range(len(stage), n):
                def rerun(slot: YPair, built: FiniteSeq = stage) -> Any:
                    return br(lifted, built.append(slot), ctx)

                stage = stage.append(_slot(ds, pos, rerun))
        stages.append(stage.append(YPair(PartialFn(decomp[:k + 1]), None)))
    return lifted, stages


def theta_from_br(params: RecursorParams, u: PartialFn,
                  ctx: EvalContext | None = None) -> Any:
    """The thread-restricted symmetric recursor, run on the sequential
    engine over the staged representation of ``u``.  Extensionally equal
    to ``theta``: the zero result on non-threads, the symmetric recursion
    otherwise, for controls that name natural numbers only.  The staged
    representation is a sequence indexed by the named indices, so other
    indices, which ``theta`` accepts, break it: a control naming -1 raises
    ``IndexError``, and one naming ``(0, 1)`` raises ``TypeError``.  No
    CLI path names such an index."""
    ctx = ctx or EvalContext()
    decomp = thread_decomposition(params.control, u, params.default, ctx)
    if decomp is None:
        return params.default_result
    lifted, stages = _build_stages(params, decomp, ctx)
    return br(lifted, stages[-1], ctx)


def sbr_from_br(params: RecursorParams, u: PartialFn,
                ctx: EvalContext | None = None) -> Any:
    """The full symmetric recursor from the sequential engine.

    The parameters are relativised to the start state ``u``: states seen
    by the inner recursion are merged over ``u``, the control consults the
    merged extension, and a stop caused by landing inside ``u`` collapses
    the step to the body.  The translated thread-restricted recursor is
    then run from the empty state, which is trivially a thread.
    Extensionally equal to ``sbr`` on controls that name natural numbers,
    and only there: it runs ``theta_from_br``, which stages states as
    sequences."""
    merged = u.merge
    table = dict(u.entries)

    def control(alpha: InfSeq) -> Any:
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
