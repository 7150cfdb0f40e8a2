"""Translations between the two recursors, used as differential oracles."""

import random
from dataclasses import replace
from unittest import mock

from hypothesis import given
from hypothesis import strategies as st

from barrec import checks, gen, interdef
from barrec.interdef import (YPair, br_from_sbr, carrier_stages, diag_finite,
                             diag_infinite, sbr_from_br, theta_from_br,
                             _embed_seq, _lift_sequential, _unembed)
from barrec.pfun import EMPTY, EMPTY_SEQ, FiniteSeq, InfSeq, PartialFn, \
    extend_hat
from barrec.recursors import RecursorParams, br, sbr, theta
from conftest import failures, oracle


def zero_cont(_v, _x):
    return 0


def test_embedding_round_trip():
    rng = random.Random(1)
    for _ in range(50):
        s = FiniteSeq(rng.randint(0, 9) for _ in range(rng.randint(0, 6)))
        assert _unembed(_embed_seq(s)) == s


def test_lifted_control_law():
    rng = random.Random(2)
    for _ in range(100):
        params, _ = gen.gen_br_instance(rng)
        lifted = _lift_sequential(params)
        s = FiniteSeq(rng.randint(0, 5) for _ in range(rng.randint(0, 6)))
        got = lifted.control(extend_hat(_embed_seq(s), lifted.default))
        bar = params.control(extend_hat(s, params.default))
        assert got == (bar if bar < len(s) else len(s))


def test_br_from_sbr_trivial_stop():
    params = RecursorParams(step=lambda s, n, p: 99, body=lambda t: ("b", t),
                            control=lambda a: 0, default=0)
    s = FiniteSeq((5,))
    assert br_from_sbr(params, s) == br(params, s) == ("b", s)


def test_br_from_sbr_one_unfold():
    params = RecursorParams(step=lambda s, n, p: p(9) + 1, body=lambda t: t[0],
                            control=lambda a: 0, default=0)
    assert br_from_sbr(params, EMPTY_SEQ) == 10


def test_diag_finite_examples():
    assert diag_finite(EMPTY_SEQ) == EMPTY
    s = FiniteSeq((YPair(PartialFn([(0, "a")]), zero_cont),
                   YPair(PartialFn(((0, "b"), (1, "c"))), zero_cont)))
    assert diag_finite(s) == PartialFn(((0, "a"), (1, "c")))
    only = FiniteSeq((YPair(PartialFn([(5, "a")]), zero_cont),))
    assert diag_finite(only) == PartialFn([(5, "a")])


def test_diag_infinite_examples():
    empty_slot = YPair(EMPTY, zero_cont)
    assert diag_infinite(InfSeq.constant(empty_slot), 0).prefix(4) == \
        [0, 0, 0, 0]
    first = YPair(PartialFn([(0, 7)]), zero_cont)
    alpha = InfSeq(lambda i: first if i == 0 else empty_slot)
    assert diag_infinite(alpha, 0).prefix(3) == [7, 0, 0]


def test_diag_infinite_matches_finite_on_extensions():
    rng = random.Random(4)
    for _ in range(50):
        slots = []
        for _ in range(rng.randint(0, 4)):
            pairs = {rng.randint(0, 6): rng.randint(0, 9)
                     for _ in range(rng.randint(0, 3))}
            slots.append(YPair(PartialFn(pairs.items()), zero_cont))
        s = FiniteSeq(slots)
        hat = extend_hat(s, YPair(EMPTY, zero_cont))
        finite = extend_hat(diag_finite(s), 0)
        assert diag_infinite(hat, 0).prefix(12) == finite.prefix(12)


def test_theta_from_br_nonthread_returns_zero_result():
    params = RecursorParams(step=lambda u, n, p: p(1), body=lambda v: len(v),
                            control=lambda a: 0, default=0,
                            default_result=-3)
    assert theta_from_br(params, PartialFn([(5, 1)])) == -3


def test_theta_from_br_differential_on_threads():
    rng = random.Random(5)
    for _ in range(100):
        assert failures(checks.staged_law(rng)) == []
    params, _ = gen.gen_sbr_instance(random.Random(6))
    assert theta_from_br(params, EMPTY) == theta(params, EMPTY)


def test_theta_from_br_resumes_through_a_staged_restart():
    # The thread {2: 5} stages restart slots at positions 0 and 1; the
    # control then names 0, so the step probes both values through the
    # restart slot at position 0.
    params = RecursorParams(step=lambda u, n, p: p(1) + 10 * p(2),
                            body=lambda v: sum(x for _, x in v.entries),
                            control=lambda a: 0 if a(2) > 0 else 2,
                            default=0, default_result=-1)
    u = PartialFn([(2, 5)])
    stages = carrier_stages(params, u)
    assert len(stages[-1]) == 3
    assert theta(params, u) == 6 + 10 * 7
    assert theta_from_br(params, u) == theta(params, u)


def _names_in_order(order):
    """A control naming the first index of ``order`` that its argument
    reads as zero, and ``order[0]`` where it reads none as zero."""
    def control(alpha):
        return next((n for n in order if alpha(n) == 0), order[0])

    return control


@oracle(100)
@given(st.permutations(range(6)), st.integers(1, 5),
       st.lists(st.integers(1, 5), min_size=5, max_size=5),
       st.randoms(use_true_random=False))
def test_theta_from_br_resumes_through_staged_restarts(order, j, values, rng):
    # The thread fills the first ``j`` indices of ``order`` with nonzero
    # values, so its stages pad every index below the last one it names.
    # The control then names ``order[j]``; ordering it below ``order[j-1]``
    # puts it on a padding slot, through whose restart the step resumes.
    order = list(order)
    if order[j] > order[j - 1]:
        order[j - 1], order[j] = order[j], order[j - 1]
    params = replace(gen.gen_sbr_instance(rng)[0],
                     control=_names_in_order(order))
    u = PartialFn(zip(order[:j], values))
    with mock.patch.object(interdef, "br", wraps=br) as entries:
        got = theta_from_br(params, u)
    assert got == theta(params, u)
    # One entry runs the staged thread; each further one is a restart.
    assert entries.call_count > 1


def test_stage_read_back_and_lengths():
    rng = random.Random(7)
    for _ in range(100):
        assert failures(checks.staged_law(rng)) == []


def test_sbr_from_br_trivial_stop():
    params = RecursorParams(step=lambda u, n, p: 99, body=lambda v: ("b", v),
                            control=lambda a: 0, default=0, default_result=0)
    u = PartialFn([(0, 5)])
    assert sbr_from_br(params, u) == sbr(params, u) == ("b", u)


def test_sbr_from_br_two_updates():
    params = RecursorParams(step=lambda u, n, p: p(1), body=lambda v: len(v),
                            control=lambda a: a(0) % 2, default=0,
                            default_result=0)
    assert sbr_from_br(params, EMPTY) == 2


def test_sbr_from_br_differential():
    rng = random.Random(8)
    for _ in range(200):
        assert failures(checks.sbr_from_br_law(rng)) == []


def _checked_lift(params):
    """``_lift_sequential(params)`` with a check, on every state the
    symmetric engine steps or stops on, that the state is an initial
    segment and that a step extends it at its end."""
    lifted = _lift_sequential(params)

    def body(u):
        assert [i for i, _ in u.entries] == list(range(len(u))), u
        return lifted.body(u)

    def step(u, n, p):
        assert [i for i, _ in u.entries] == list(range(len(u))), u
        assert n == len(u), (u, n)
        return lifted.step(u, n, p)

    return replace(lifted, step=step, body=body)


@oracle(200)
@given(st.randoms(use_true_random=False))
def test_br_from_sbr_oracle(rng):
    with mock.patch.object(interdef, "_lift_sequential", _checked_lift):
        assert failures(checks.br_from_sbr_law(rng)) == []


@oracle(200)
@given(st.randoms(use_true_random=False))
def test_sbr_from_br_oracle(rng):
    assert failures(checks.sbr_from_br_law(rng)) == []


@oracle(200)
@given(st.randoms(use_true_random=False))
def test_theta_from_br_oracle(rng):
    assert failures(checks.staged_law(rng)) == []
