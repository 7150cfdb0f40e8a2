"""Settings shared by the tests that run a law of ``barrec.checks``."""

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
