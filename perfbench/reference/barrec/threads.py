"""Threads of a control functional, and termination witnesses.

A control functional maps total sequences to indices.  Iterating it from
the empty partial function reconstructs, index by index, the partial
functions it would build: the *thread* of length ``i``.  Threads of a
finite partial function ``u`` only extend at indices where ``u`` is
defined and freeze otherwise; threads of a total sequence ``alpha``
always extend (re-hitting a defined index leaves the state unchanged, so
the construction stabilises there).

``is_thread`` decides whether ``u`` is reconstructible this way, and
``thread_decomposition`` recovers the unique update order when it is.
``theta_bound``/``sspec_witness`` bound and locate the point where the
control names an already-defined index, and ``spec_witness`` converts
that into a stopping point for the sequential bar condition by running
the same search over value/flag pairs, where the flag marks a position
as filled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from .context import EvalContext
from .pfun import EMPTY, InfSeq, PartialFn, bounded_search, extend_hat

Control = Callable[[InfSeq], Any]


def thread_of_partial(control: Control, u: PartialFn, i: int, default: Any,
                      ctx: Optional[EvalContext] = None) -> PartialFn:
    """The thread of ``u`` of length ``i``: extend at the named index while
    it is fresh and ``u`` is defined there, otherwise stay constant."""
    ctx = ctx or EvalContext()
    t = EMPTY
    for _ in range(i):
        ctx.tick()
        n = control(extend_hat(t, default))
        if t.defined_at(n) or not u.defined_at(n):
            break
        t = t.update(n, u(n))
    return t


def thread_of_total(control: Control, alpha: InfSeq, i: int, default: Any,
                    ctx: Optional[EvalContext] = None) -> PartialFn:
    """The thread of a total sequence of length ``i``; every step extends,
    and a step that re-hits a defined index is a no-op."""
    ctx = ctx or EvalContext()
    t = EMPTY
    for _ in range(i):
        ctx.tick()
        n = control(extend_hat(t, default))
        if t.defined_at(n):
            break
        t = t.update(n, alpha(n))
    return t


def is_thread(control: Control, u: PartialFn, default: Any,
              ctx: Optional[EvalContext] = None) -> bool:
    """Decide whether ``u`` equals its own thread of length ``|dom(u)|``."""
    return thread_of_partial(control, u, len(u), default, ctx) == u


def thread_decomposition(control: Control, u: PartialFn, default: Any,
                         ctx: Optional[EvalContext] = None
                         ) -> Optional[list]:
    """When ``u`` is a thread, the unique update sequence
    ``[(n_0, x_0), ..., (n_{l-1}, x_{l-1})]`` rebuilding it, with all
    ``n_j`` distinct and ``x_j = u(n_j)``.  ``None`` otherwise."""
    ctx = ctx or EvalContext()
    t = EMPTY
    out = []
    for _ in range(len(u)):
        ctx.tick()
        n = control(extend_hat(t, default))
        if t.defined_at(n) or not u.defined_at(n):
            return None
        x = u(n)
        t = t.update(n, x)
        out.append((n, x))
    return out


def theta_bound(control: Control, alpha: InfSeq, default: Any,
                ctx: Optional[EvalContext] = None) -> int:
    """The number of updates the thread of ``alpha`` makes before the
    control names an index that is already defined.  Fuel exhaustion here
    signals an apparently non-continuous control."""
    ctx = ctx or EvalContext()
    u = EMPTY
    count = 0
    while True:
        ctx.tick()
        n = control(extend_hat(u, default))
        if u.defined_at(n):
            return count
        u = u.update(n, alpha(n))
        count += 1


def sspec_witness(control: Control, alpha: InfSeq, default: Any,
                  ctx: Optional[EvalContext] = None) -> int:
    """The least ``n`` such that the control, applied to the extension of
    the length-``n`` thread of ``alpha``, lands inside that thread's
    domain.  Search is bounded by ``theta_bound``."""
    ctx = ctx or EvalContext()
    bound = theta_bound(control, alpha, default, ctx)
    for n in range(bound + 1):
        t = thread_of_total(control, alpha, n, default, ctx)
        if t.defined_at(control(extend_hat(t, default))):
            return n
    raise AssertionError("stopping point escaped its own bound")


def spec_witness(control: Control, alpha: InfSeq, default: Any,
                 ctx: Optional[EvalContext] = None) -> int:
    """A stopping point for the sequential bar condition: an ``N`` with
    ``control`` of the padded length-``N`` initial segment of ``alpha``
    strictly below ``N``.

    The search lifts values to value/flag pairs whose flag marks a filled
    position, and drives the thread construction with a control that
    performs a bounded search for the first unfilled position."""
    ctx = ctx or EvalContext()
    tagged_default = (default, 0)
    tagged_alpha = InfSeq(lambda k: (alpha(k), 1))

    def search_control(beta: InfSeq) -> int:
        bound = control(InfSeq(lambda k: beta(k)[0]))
        return bounded_search(bound, lambda i: beta(i)[1] == 0)

    return sspec_witness(search_control, tagged_alpha, tagged_default, ctx)


@dataclass(frozen=True)
class ThreadStep:
    """One step of a thread construction: the named index, whether the
    state was extended there, and the value written if so."""

    n: Any
    defined: bool
    value: Any = None

    def to_json(self, encode: Callable[[Any], Any] = lambda x: x) -> dict:
        return {"n": self.n, "defined": self.defined,
                "value": encode(self.value) if self.defined else None}


@dataclass(frozen=True)
class ThreadTrace:
    """A step-by-step record of a thread construction."""

    steps: tuple
    final: PartialFn

    def to_json(self, encode: Callable[[Any], Any] = lambda x: x) -> dict:
        return {"steps": [s.to_json(encode) for s in self.steps],
                "final": self.final.to_json(encode)}


def trace_thread(control: Control, source: "PartialFn | InfSeq", i: int,
                 default: Any, total: bool = False,
                 ctx: Optional[EvalContext] = None) -> ThreadTrace:
    """Run ``i`` steps of the thread construction, recording each step.

    With ``total=False`` the source is a finite partial function and steps
    at indices outside its domain freeze the state; with ``total=True``
    the source is a total sequence and every fresh index extends.  The
    trace stops early once the state stabilises.
    """
    ctx = ctx or EvalContext()
    t = EMPTY
    steps = []
    for _ in range(i):
        ctx.tick()
        n = control(extend_hat(t, default))
        if t.defined_at(n):
            steps.append(ThreadStep(n=n, defined=True, value=t(n)))
            break
        if total:
            x = source(n)
            t = t.update(n, x)
            steps.append(ThreadStep(n=n, defined=True, value=x))
        elif source.defined_at(n):
            x = source(n)
            t = t.update(n, x)
            steps.append(ThreadStep(n=n, defined=True, value=x))
        else:
            steps.append(ThreadStep(n=n, defined=False))
            break
    return ThreadTrace(steps=tuple(steps), final=t)
