"""Threads of a control functional, and termination witnesses.

A control functional maps total sequences to indices.  Iterating it from
the empty partial function reconstructs, index by index, the partial
functions it would build: the *thread* of length ``i``.  Threads of a
finite partial function ``u`` only extend at indices where ``u`` is
defined and freeze otherwise; threads of a total sequence ``alpha``
always extend (re-hitting a defined index leaves the state unchanged, so
the construction stabilises there).

All thread functions are one walk: ``trace_thread`` is the only loop that
grows a thread, and ``thread_of_partial``/``thread_of_total``,
``is_thread``, ``thread_decomposition`` (the unique update order of a
thread) and ``theta_bound`` (the number of updates before the control
names an already-defined index) read their answers from it.  Each step
charges one tick and evaluates the control once.

``sspec_witness`` locates that stopping point by its own bounded search,
an independent reference for ``theta_bound``, and ``spec_witness``
converts it into a stopping point for the sequential bar condition by
walking value/flag pairs under ``stubborn_control``, where the flag marks
a position as filled.  ``stubborn_control`` owns that pair: it reads a
``TaggedValue``, defined beside it, which ``spec_witness`` builds here and
the sequential-from-symmetric translation in ``interdef`` builds there.
"""

from __future__ import annotations

from itertools import count
from typing import Any, Callable, NamedTuple, Optional

from .context import EvalContext
from .pfun import EMPTY, InfSeq, PartialFn, extend_hat

Control = Callable[[InfSeq], Any]


class TaggedValue(NamedTuple):
    """A value paired with a filled/unfilled flag (1 = filled)."""

    value: Any
    flag: int


class ThreadStep(NamedTuple):
    """One step of a thread construction: the named index, whether the
    state was extended there, and the value written if so."""

    n: Any
    defined: bool
    value: Any = None


class ThreadTrace(NamedTuple):
    """A step-by-step record of a thread construction."""

    steps: tuple
    final: PartialFn

    def to_json(self) -> dict:
        return {"steps": [s._asdict() for s in self.steps],
                "final": self.final.to_json()}


def trace_thread(control: Control, source: "PartialFn | InfSeq",
                 i: Optional[int], default: Any,
                 ctx: Optional[EvalContext] = None) -> ThreadTrace:
    """Run at most ``i`` steps of the thread construction (no limit when
    ``i`` is ``None``), recording each step.

    The type of the source decides how it is read: an ``InfSeq`` is a
    total sequence, so every fresh index extends the state; a
    ``PartialFn`` is finite, and a step at an index outside its domain
    freezes the state.  The walk stops early once the state stabilises,
    that is at a frozen step or when the control names an index that is
    already defined.  Each step charges one tick and evaluates the
    control once.
    """
    ctx = ctx or EvalContext()
    total = isinstance(source, InfSeq)
    t = EMPTY
    steps = []
    for _ in (count() if i is None else range(i)):
        ctx.tick()
        n = control(extend_hat(t, default))
        if t.defined_at(n):
            steps.append(ThreadStep(n, True, t(n)))
            break
        if not total and not source.defined_at(n):
            steps.append(ThreadStep(n, False))
            break
        x = source(n)
        t = t.update(n, x)
        steps.append(ThreadStep(n, True, x))
    return ThreadTrace(tuple(steps), t)


def thread_of_partial(control: Control, u: PartialFn, i: int, default: Any,
                      ctx: Optional[EvalContext] = None) -> PartialFn:
    """The thread of ``u`` of length ``i``: extend at the named index while
    it is fresh and ``u`` is defined there, otherwise stay constant."""
    return trace_thread(control, u, i, default, ctx).final


def thread_of_total(control: Control, alpha: InfSeq, i: int, default: Any,
                    ctx: Optional[EvalContext] = None) -> PartialFn:
    """The thread of a total sequence of length ``i``; every step extends,
    and a step that re-hits a defined index is a no-op."""
    return trace_thread(control, alpha, i, default, ctx).final


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
    trace = trace_thread(control, u, len(u), default, ctx)
    if trace.final != u:
        return None
    return [(s.n, s.value) for s in trace.steps]


def theta_bound(control: Control, alpha: InfSeq, default: Any,
                ctx: Optional[EvalContext] = None) -> int:
    """The number of updates the thread of ``alpha`` makes before the
    control names an index that is already defined.  Fuel exhaustion here
    signals an apparently non-continuous control."""
    return len(trace_thread(control, alpha, None, default, ctx).final)


def sspec_witness(control: Control, alpha: InfSeq, default: Any,
                  ctx: Optional[EvalContext] = None) -> int:
    """The least ``n`` such that the control, applied to the extension of
    the length-``n`` thread of ``alpha``, lands inside that thread's
    domain.  Search is bounded by ``theta_bound``; each candidate's
    control evaluation charges one tick."""
    ctx = ctx or EvalContext()
    bound = theta_bound(control, alpha, default, ctx)
    for n in range(bound + 1):
        t = thread_of_total(control, alpha, n, default, ctx)
        ctx.tick()
        if t.defined_at(control(extend_hat(t, default))):
            return n
    raise AssertionError("stopping point escaped its own bound")


def stubborn_control(control: Control) -> Control:
    """The control over ``TaggedValue`` pairs that names the first
    unfilled position below ``control``'s answer on the values, or that
    answer itself when every position below it is filled.  Driving a
    thread construction with it fills positions in order."""
    def stubborn(beta: InfSeq) -> int:
        bound = control(InfSeq(lambda k: beta(k).value))
        return next((i for i in range(bound) if not beta(i).flag), bound)

    return stubborn


def spec_witness(control: Control, alpha: InfSeq, default: Any,
                 ctx: Optional[EvalContext] = None) -> int:
    """A stopping point for the sequential bar condition: an ``N`` with
    ``control`` of the padded length-``N`` initial segment of ``alpha``
    strictly below ``N``.

    The search lifts values to value/flag pairs whose flag marks a filled
    position, and drives the thread construction with the stubborn
    control.  The source is total, so the least stopping point of that
    walk is its length: ``theta_bound``."""
    tagged_alpha = InfSeq(lambda k: TaggedValue(alpha(k), 1))
    return theta_bound(stubborn_control(control), tagged_alpha,
                       TaggedValue(default, 0), ctx)
