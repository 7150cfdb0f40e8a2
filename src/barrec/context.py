"""Evaluation contexts: fuel budgets, call counters, and memo tables.

One ``EvalContext`` instruments exactly one evaluation; contexts are never
shared across concurrent evaluations.  ``calls`` counts entries into a
recursor body.  Auxiliary bounded unfoldings (thread construction,
termination-bound searches) are charged against the same fuel budget
through ``tick`` but are not reported as recursor calls.  Whether work
fits the budget is decided in one place, ``EvalContext.require``.

The evaluation modes are declared once, in ``MODES``; the CLI's
``--mode`` choices and the ``bench`` columns read them from there.  In
``plain`` mode nothing is shared across body entries: each entry
evaluates its continuation at most once per distinct argument (repeat
invocations with the same argument inside one entry reuse the recorded
result), and that is the only sharing.  In ``memoized`` mode results are
additionally cached for the whole evaluation in ``memo``, keyed by the
recursion's parameters and state; one wrapper in ``recursors`` serves
both engines.  Both modes yield deterministic call counts for a fixed
instance.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any

DEFAULT_FUEL = 10_000_000

PLAIN = "plain"
MEMOIZED = "memoized"
MODES = (PLAIN, MEMOIZED)

_STACK_LIMIT = 40_000


def ensure_stack() -> None:
    """Raise the interpreter recursion limit enough for deep sequential
    recursions (carrier lengths in the hundreds)."""
    if sys.getrecursionlimit() < _STACK_LIMIT:
        sys.setrecursionlimit(_STACK_LIMIT)


@dataclass(frozen=True)
class Metrics:
    """Snapshot of one evaluation's instrumentation."""

    calls: int
    ticks: int
    max_domain: int
    mode: str


class FuelExhausted(RuntimeError):
    """The evaluation exceeded its fuel budget.

    Totality of a bar recursion is model dependent; running out of fuel is
    reported as an error carrying the partial metrics, never as divergence.
    """

    def __init__(self, metrics: Metrics):
        super().__init__(
            "fuel exhausted after %d recursor entries (mode=%s)"
            % (metrics.calls, metrics.mode))
        self.metrics = metrics


class InternalInvariantViolation(RuntimeError):
    """A solver produced a state its own correctness argument rules out."""


class EvalContext:
    """Instrumentation for one evaluation: fuel, counters, memo tables."""

    def __init__(self, fuel: int = DEFAULT_FUEL, mode: str = PLAIN):
        if mode not in MODES:
            raise ValueError("unknown mode %r" % (mode,))
        self.fuel = fuel
        self.mode = mode
        self.calls = 0
        self.max_domain = 0
        self.ticks = 0
        self.memo: dict | None = {} if mode == MEMOIZED else None

    def require(self, work: int) -> None:
        """Refuse ``work`` more units of fuel unless they fit what is left:
        ``calls + ticks + work`` may not exceed ``fuel``.  This is the one
        fuel rule; ``charge`` and ``tick`` ask it before they count, and a
        report asks it for the points it reads without counting them."""
        if self.calls + self.ticks + work > self.fuel:
            raise FuelExhausted(self.metrics())

    def charge(self, size: int) -> None:
        """Record one recursor-body entry whose state has ``size`` defined
        positions; refuse it when the budget is spent."""
        self.require(1)
        self.calls += 1
        if size > self.max_domain:
            self.max_domain = size

    def tick(self) -> None:
        """Charge one auxiliary unfolding against the fuel budget."""
        self.require(1)
        self.ticks += 1

    def metrics(self) -> Metrics:
        return Metrics(calls=self.calls, ticks=self.ticks,
                       max_domain=self.max_domain, mode=self.mode)


def sibling_cache(f: Any) -> Any:
    """Wrap a continuation so that, within the lifetime of one body entry,
    each distinct argument is evaluated at most once.  Arguments are keyed
    by their canonical form (hash and equality); function-typed values key
    by identity."""
    cache: dict = {}
    missing = object()

    def cached(x: Any) -> Any:
        r = cache.get(x, missing)
        if r is missing:
            r = f(x)
            cache[x] = r
        return r

    return cached
