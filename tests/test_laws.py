"""Every law of ``barrec.checks`` as a seeded, shrinking oracle.

``barrec check`` runs each law over ``random.Random(seed)``.  Here each
law that draws from a generator alone runs under Hypothesis instead, so
a law that fails under ``check`` fails here too, on an instance shrunk
to a small one.
"""

import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barrec import checks, context
from barrec.noinjection import FAMILIES

# The engines raise the recursion limit on first use; raising it here
# keeps a Hypothesis test from seeing it change while it runs.
context.ensure_stack()

RNG_LAWS = [fn for fn in vars(checks).values()
            if inspect.isfunction(fn) and fn.__module__ == checks.__name__
            and list(inspect.signature(fn).parameters) == ["rng"]]


def oracle(examples):
    return settings(max_examples=examples, deadline=None, derandomize=True,
                    database=None)


def failures(law_checks):
    return [describe for ok, describe in law_checks if not ok]


@pytest.mark.parametrize("law", RNG_LAWS, ids=lambda law: law.__name__)
@oracle(40)
@given(st.randoms(use_true_random=False))
def test_law_holds(law, rng):
    assert failures(law(rng)) == []


@pytest.mark.parametrize("family", FAMILIES)
@oracle(10)
@given(st.randoms(use_true_random=False))
def test_rendering_law_holds(family, rng):
    assert failures(checks.rendering_law(rng, family, 20)) == []
