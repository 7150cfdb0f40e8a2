"""The bar recursors, instrumented by an evaluation context.

``br`` recurses over finite sequences and stops when the control value on
the canonical extension falls below the length; ``sbr`` recurses over
finite partial functions, updating at the index the control names and
stopping as soon as that index is already defined.  ``theta`` is the
thread-restricted variant of ``sbr`` that returns a supplied zero result
on inputs the control could not itself have built.  ``sbr_discrete`` is
``sbr`` over an arbitrary ground discrete index domain.

The parameter triple is opaque: the engine never inspects ``step``,
``body`` or ``control``, it only applies them.  Sharing behaviour and the
meaning of the call counter are documented on ``EvalContext``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .context import EvalContext, ensure_stack, sibling_cache
from .pfun import FiniteSeq, InfSeq, PartialFn, extend_hat
from .threads import is_thread

_MISS = object()


@dataclass(frozen=True)
class RecursorParams:
    """The parameter triple of a bar recursion, plus the canonical zeros.

    ``step`` receives the current state and a continuation from values to
    results; ``body`` maps a stopped state to a result; ``control`` maps a
    canonical extension to an index.  ``default`` is the zero of the value
    domain used to form extensions, and ``default_result`` is the zero of
    the result domain (only the thread-restricted recursor reads it).
    """

    step: Callable[[Any, Callable[[Any], Any]], Any]
    body: Callable[[Any], Any]
    control: Callable[[InfSeq], Any]
    default: Any
    default_result: Any = None


def _extension(ctx: EvalContext, u: Any, default: Any) -> InfSeq:
    ext = extend_hat(u, default)
    return ext.memoized() if ctx.cache_extensions else ext


def br(params: RecursorParams, s: FiniteSeq,
       ctx: EvalContext | None = None) -> Any:
    """Sequential bar recursion from the finite sequence ``s``."""
    ctx = ctx or EvalContext()
    ensure_stack()
    memo = ctx.memo

    def enter(s: FiniteSeq) -> Any:
        if memo is not None:
            r = memo.get(("br", s), _MISS)
            if r is not _MISS:
                return r
        ctx.charge(len(s))
        if params.control(_extension(ctx, s, params.default)) < len(s):
            r = params.body(s)
        else:
            r = params.step(s, sibling_cache(lambda x: enter(s.append(x))))
        if memo is not None:
            memo[("br", s)] = r
        return r

    return enter(s)


def sbr(params: RecursorParams, u: PartialFn,
        ctx: EvalContext | None = None) -> Any:
    """Symmetric bar recursion from the finite partial function ``u``.

    The control is evaluated once per entry; its value is both the
    stopping test and the index at which the continuation updates.
    """
    ctx = ctx or EvalContext()
    ensure_stack()
    memo = ctx.memo

    def enter(u: PartialFn) -> Any:
        if memo is not None:
            r = memo.get(("sbr", u), _MISS)
            if r is not _MISS:
                return r
        ctx.charge(len(u))
        n = params.control(_extension(ctx, u, params.default))
        if u.defined_at(n):
            r = params.body(u)
        else:
            r = params.step(u, sibling_cache(lambda x: enter(u.update(n, x))))
        if memo is not None:
            memo[("sbr", u)] = r
        return r

    return enter(u)


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
    """Symmetric bar recursion over a ground discrete index domain.

    Indices may be drawn from any type with decidable equality and a total
    order (naturals, booleans, pairs of these); the control must return
    indices of that type.  Over the naturals this is definitionally the
    same recursion as ``sbr``, and the engine is shared.
    """
    return sbr(params, u, ctx)
