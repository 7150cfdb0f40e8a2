"""Evaluation contexts: fuel budgets, call counters, and memo tables.

One ``EvalContext`` instrument exactly one evaluation; contexts are never
shared across concurrent evaluations.  ``calls`` counts entries into a
recursor body.  Auxiliary bounded unfoldings (thread construction,
termination-bound searches) are charged against the same fuel budget
through ``tick`` but are not reported as recursor calls.

Two evaluation modes are supported.  In ``plain`` mode nothing is shared
across body entries: each entry evaluates its continuation at most once
per distinct argument (repeat invocations with the same argument inside
one entry reuse the recorded result), and that is the only sharing.  In
``memoized`` mode results are additionally cached for the whole evaluation
in ``memo``, keyed by the recursion's parameters and state; one wrapper in
``recursors`` serves both engines.  Both modes yield deterministic call
counts for a fixed instance.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any

DEFAULT_FUEL = 10_000_000

PLAIN = "plain"
MEMOIZED = "memoized"

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
        if mode not in (PLAIN, MEMOIZED):
            raise ValueError("unknown mode %r" % (mode,))
        self.fuel = fuel
        self.mode = mode
        self.calls = 0
        self.max_domain = 0
        self.ticks = 0
        self.memo: dict | None = {} if mode == MEMOIZED else None

    def charge(self, size: int) -> None:
        """Record one recursor-body entry whose state has ``size`` defined
        positions; refuse it when the budget is spent."""
        if self.calls + self.ticks + 1 > self.fuel:
            raise FuelExhausted(self.metrics())
        self.calls += 1
        if size > self.max_domain:
            self.max_domain = size

    def tick(self) -> None:
        """Charge one auxiliary unfolding against the fuel budget."""
        if self.calls + self.ticks + 1 > self.fuel:
            raise FuelExhausted(self.metrics())
        self.ticks += 1

    def metrics(self) -> Metrics:
        return Metrics(calls=self.calls, max_domain=self.max_domain,
                       mode=self.mode)

    def fresh(self) -> "EvalContext":
        """A new context with the same configuration and zeroed counters."""
        return EvalContext(fuel=self.fuel, mode=self.mode)


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
