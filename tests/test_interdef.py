"""Translations between the two recursors, used as differential oracles."""

import random
from dataclasses import replace
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from barrec import context, gen, interdef
from barrec.interdef import (YPair, br_from_sbr, carrier_stages, diag_finite,
                             diag_infinite, sbr_from_br, theta_from_br,
                             _embed_seq, _lift_sequential, _unembed)
from barrec.pfun import EMPTY, EMPTY_SEQ, FiniteSeq, InfSeq, PartialFn, \
    extend_hat
from barrec.recursors import RecursorParams, br, sbr, theta
from barrec.threads import thread_of_partial

# The engines raise the recursion limit on first use; raising it here
# keeps a Hypothesis test from seeing it change while it runs.
context.ensure_stack()

# Seeded, shrinking oracles: a failing instance is reduced to a small one.
oracle = settings(max_examples=200, deadline=None, derandomize=True,
                  database=None)


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
    s = FiniteSeq((YPair(PartialFn.single(0, "a"), zero_cont),
                   YPair(PartialFn(((0, "b"), (1, "c"))), zero_cont)))
    assert diag_finite(s) == PartialFn(((0, "a"), (1, "c")))
    only = FiniteSeq((YPair(PartialFn.single(5, "a"), zero_cont),))
    assert diag_finite(only) == PartialFn.single(5, "a")


def test_diag_infinite_examples():
    empty_slot = YPair(EMPTY, zero_cont)
    assert diag_infinite(InfSeq.constant(empty_slot), 0).prefix(4) == \
        [0, 0, 0, 0]
    first = YPair(PartialFn.single(0, 7), zero_cont)
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
    assert theta_from_br(params, PartialFn.single(5, 1)) == -3


def test_theta_from_br_differential_on_threads():
    rng = random.Random(5)
    for _ in range(100):
        control, u = gen.gen_thread_input(rng)
        params = replace(gen.gen_sbr_instance(rng)[0], control=control)
        assert theta_from_br(params, u) == theta(params, u)
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
    u = PartialFn.single(2, 5)
    stages = carrier_stages(params, u)
    assert len(stages[-1]) == 3
    assert theta(params, u) == 6 + 10 * 7
    assert theta_from_br(params, u) == theta(params, u)


def test_stage_read_back_and_lengths():
    rng = random.Random(7)
    for _ in range(100):
        control, u = gen.gen_thread_input(rng)
        params = replace(gen.gen_sbr_instance(rng)[0], control=control)
        stages = carrier_stages(params, u)
        assert len(stages) == len(u) + 1
        thread = EMPTY
        for i in range(len(u)):
            assert diag_finite(stages[i]) == \
                thread_of_partial(control, u, i, 0)
            n_i = control(extend_hat(thread, 0))
            thread = thread.update(n_i, u(n_i))
            assert len(stages[i + 1]) == n_i + 1
        assert diag_finite(stages[len(u)]) == u


def test_sbr_from_br_trivial_stop():
    params = RecursorParams(step=lambda u, n, p: 99, body=lambda v: ("b", v),
                            control=lambda a: 0, default=0, default_result=0)
    u = PartialFn.single(0, 5)
    assert sbr_from_br(params, u) == sbr(params, u) == ("b", u)


def test_sbr_from_br_two_updates():
    params = RecursorParams(step=lambda u, n, p: p(1), body=lambda v: len(v),
                            control=lambda a: a(0) % 2, default=0,
                            default_result=0)
    assert sbr_from_br(params, EMPTY) == 2


def test_sbr_from_br_differential():
    rng = random.Random(8)
    for _ in range(200):
        params, u = gen.gen_sbr_instance(rng)
        assert sbr_from_br(params, u) == sbr(params, u)


def _checked_lift(params):
    """``_lift_sequential(params)`` with a check, on every state the
    symmetric engine steps or stops on, that the state is an initial
    segment and that a step extends it at its end."""
    lifted = _lift_sequential(params)

    def body(u):
        assert u.domain() == tuple(range(len(u))), u
        return lifted.body(u)

    def step(u, n, p):
        assert u.domain() == tuple(range(len(u))), u
        assert n == len(u), (u, n)
        return lifted.step(u, n, p)

    return replace(lifted, step=step, body=body)


@oracle
@given(st.randoms(use_true_random=False))
def test_br_from_sbr_oracle(rng):
    params, s = gen.gen_br_instance(rng)
    with mock.patch.object(interdef, "_lift_sequential", _checked_lift):
        assert br_from_sbr(params, s) == br(params, s)


@oracle
@given(st.randoms(use_true_random=False))
def test_sbr_from_br_oracle(rng):
    params, u = gen.gen_sbr_instance(rng)
    assert sbr_from_br(params, u) == sbr(params, u)


@oracle
@given(st.randoms(use_true_random=False))
def test_theta_from_br_oracle(rng):
    control, u = gen.gen_thread_input(rng)
    params = replace(gen.gen_sbr_instance(rng)[0], control=control)
    assert theta_from_br(params, u) == theta(params, u)
