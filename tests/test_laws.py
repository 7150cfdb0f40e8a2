"""Every law of ``barrec.checks`` as a seeded, shrinking oracle.

``barrec check`` runs each law over ``random.Random(seed)``.  Here each
law that draws from a generator alone runs under Hypothesis instead, so
a law that fails under ``check`` fails here too, on an instance shrunk
to a small one.
"""

import inspect

import pytest
from hypothesis import given
from hypothesis import strategies as st

from barrec import checks
from barrec.noinjection import FAMILIES
from conftest import failures, oracle

RNG_LAWS = [fn for fn in vars(checks).values()
            if inspect.isfunction(fn) and fn.__module__ == checks.__name__
            and list(inspect.signature(fn).parameters) == ["rng"]]


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
