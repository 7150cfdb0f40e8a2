"""Helpers shared by the test modules."""

import gc
import sys

from hypothesis import settings

from barrec import context

# The engines raise the recursion limit on first use; raising it here
# keeps a Hypothesis test from seeing it change while it runs.
context.ensure_stack()


def oracle(examples):
    """A seeded, shrinking oracle of ``examples`` examples: a failing
    instance is reduced to a small one."""
    return settings(max_examples=examples, deadline=None, derandomize=True,
                    database=None)


def failures(law_checks):
    """The descriptions of the checks of a law that fail."""
    return [describe for ok, describe in law_checks if not ok]


def python_calls(read, points):
    """The values ``read`` gives at ``points``, and the names of the Python
    functions that ran while it did.  The collector is off meanwhile: a
    collection would run the Python ``gc.callbacks`` Hypothesis installs,
    which are no part of the read."""
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        values = list(map(read, points))
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    return values, calls
