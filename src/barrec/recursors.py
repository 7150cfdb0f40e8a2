"""The bar recursors, instrumented by an evaluation context.

``br`` recurses over finite sequences and stops when the control value on
the canonical extension falls below the length; ``sbr`` recurses over
finite partial functions, updating at the index the control names and
stopping as soon as that index is already defined.  Both evaluate the
control once per entry, on the state's canonical extension
``extend_hat(state, default)``.
``theta`` is the thread-restricted variant of ``sbr`` that returns a
supplied zero result on inputs the control could not itself have built.
The choice solvers and the translations in ``interdef`` are
parameterisations of ``br`` and ``sbr``, which share one memo wrapper.

The parameter triple is opaque: the engine never inspects ``step``,
``body`` or ``control``, it only applies them.  Sharing behaviour and the
meaning of the call counter are documented on ``EvalContext``.  A
continuation is live only while the recursion that made it runs: the
engine's entry point reaches itself through the name its continuations
call, and the engine clears that name when it returns, so a finished
recursion leaves no reference cycle holding its parameters, its memo and
its states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .context import EvalContext, ensure_stack, sibling_cache
from .pfun import FiniteSeq, InfSeq, PartialFn, extend_hat
from .threads import is_thread

_MISS = object()


@dataclass(frozen=True, eq=False)
class RecursorParams:
    """The parameter triple of a bar recursion, plus the canonical zeros.

    ``step(state, n, p)`` receives the current state, the index ``n`` the
    continuation fills (``len(state)`` for ``br``, the control's named
    index for ``sbr``) and the continuation ``p`` from values to results;
    ``body`` maps a stopped state to a result; ``control`` maps a
    canonical extension to an index.  ``default`` is the zero of the value
    domain used to form extensions, and ``default_result`` is the zero of
    the result domain (only the thread-restricted recursor reads it).

    A stopping entry applies ``body`` to its state right after the
    control evaluation that stopped it, on that state's canonical
    extension, with no other control evaluation in between; the choice
    solvers rely on this order to pair a stopped carrier with the
    extension its control ran on.  Parameter sets compare by identity,
    which is how the memo tells recursions apart.
    """

    step: Callable[[Any, Any, Callable[[Any], Any]], Any]
    body: Callable[[Any], Any]
    control: Callable[[InfSeq], Any]
    default: Any
    default_result: Any = None


def _memoized(ctx: EvalContext, params: RecursorParams,
              enter: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """``enter`` itself in ``plain`` mode; in ``memoized`` mode, ``enter``
    behind the context's memo, keyed by the parameters and the canonical
    form of the state."""
    memo = ctx.memo
    if memo is None:
        return enter

    def cached(state: Any) -> Any:
        key = (params, state)
        r = memo.get(key, _MISS)
        if r is _MISS:
            r = enter(state)
            memo[key] = r
        return r

    return cached


def br(params: RecursorParams, s: FiniteSeq,
       ctx: EvalContext | None = None) -> Any:
    """Sequential bar recursion from the finite sequence ``s``."""
    ctx = ctx or EvalContext()
    ensure_stack()

    def enter(s: FiniteSeq) -> Any:
        ctx.charge(len(s))
        n = len(s)
        if params.control(extend_hat(s, params.default)) < n:
            return params.body(s)
        return params.step(s, n, sibling_cache(lambda x: run(s.append(x))))

    run = _memoized(ctx, params, enter)
    try:
        return run(s)
    finally:
        del run


def sbr(params: RecursorParams, u: PartialFn,
        ctx: EvalContext | None = None) -> Any:
    """Symmetric bar recursion from the finite partial function ``u``.

    The control is evaluated once per entry; its value is both the
    stopping test and the index at which the continuation updates.

    Indices may be drawn from any ground discrete domain, that is any type
    with decidable equality and a total order (naturals, booleans, pairs
    of these); the control must then return indices of that type.  The
    translations ``interdef.sbr_from_br`` and ``interdef.theta_from_br``
    agree with ``sbr`` only on controls that name natural numbers.
    """
    ctx = ctx or EvalContext()
    ensure_stack()

    def enter(u: PartialFn) -> Any:
        ctx.charge(len(u))
        n = params.control(extend_hat(u, params.default))
        if u.defined_at(n):
            return params.body(u)
        return params.step(u, n, sibling_cache(lambda x: run(u.update(n, x))))

    run = _memoized(ctx, params, enter)
    try:
        return run(u)
    finally:
        del run


def theta(params: RecursorParams, u: PartialFn,
          ctx: EvalContext | None = None) -> Any:
    """Thread-restricted symmetric bar recursion: the zero result on
    non-threads, exactly ``sbr`` otherwise.

    Updating at the index the control names preserves the thread
    predicate, so one check at entry covers every state the recursion
    visits.
    """
    ctx = ctx or EvalContext()
    if not is_thread(params.control, u, params.default, ctx):
        return params.default_result
    return sbr(params, u, ctx)


def sbr_discrete(params: RecursorParams, u: PartialFn,
                 ctx: EvalContext | None = None) -> Any:
    """Delegates to ``sbr``.  A function rather than an alias, because
    ``perfbench/tracer.py`` looks this name up and wraps it on its own."""
    return sbr(params, u, ctx)
