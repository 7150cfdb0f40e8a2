"""Thread construction, the thread predicate, and termination witnesses."""

import random
from dataclasses import replace

import pytest

from barrec import gen
from barrec.context import EvalContext, FuelExhausted
from barrec.interdef import theta_from_br
from barrec.pfun import EMPTY, InfSeq, PartialFn, extend_hat
from barrec.threads import (TaggedValue, is_thread, spec_witness,
                            sspec_witness, stubborn_control, theta_bound,
                            thread_decomposition, thread_of_partial,
                            thread_of_total, trace_thread)

U123 = PartialFn(((1, 1), (2, 2), (3, 3)))


def max_plus_one(alpha):
    return max(alpha(0), alpha(1), alpha(2)) + 1


def max_only(alpha):
    return max(alpha(0), alpha(1), alpha(2))


def test_thread_of_partial_worked_example():
    assert thread_of_partial(max_plus_one, U123, 1, 0) == PartialFn([(1, 1)])
    assert thread_of_partial(max_plus_one, U123, 3, 0) == U123
    for i in (0, 1, 2, 5):
        assert thread_of_partial(max_only, U123, i, 0) == EMPTY


def test_thread_of_partial_base_case():
    assert thread_of_partial(lambda a: a(0), U123, 0, 0) == EMPTY


def test_thread_of_total():
    ident = InfSeq(lambda n: n)
    assert thread_of_total(lambda a: 0, ident, 1, 0) == PartialFn([(0, 0)])
    assert thread_of_total(lambda a: 0, ident, 2, 0) == PartialFn([(0, 0)])
    succ = InfSeq(lambda n: n + 1)
    assert thread_of_total(lambda a: a(0), succ, 2, 0) == \
        PartialFn(((0, 1), (1, 2)))
    assert thread_of_total(lambda a: a(0), succ, 0, 0) == EMPTY


def test_is_thread_examples():
    assert is_thread(max_plus_one, U123, 0)
    assert not is_thread(max_only, U123, 0)
    assert is_thread(max_only, EMPTY, 0)
    assert is_thread(lambda a: 99, EMPTY, 0)


def test_decomposition_examples():
    assert thread_decomposition(max_plus_one, U123, 0) == \
        [(1, 1), (2, 2), (3, 3)]
    assert thread_decomposition(max_only, U123, 0) is None
    assert thread_decomposition(max_only, EMPTY, 0) == []


def test_theta_bound_examples():
    assert theta_bound(lambda a: 0, InfSeq(lambda n: n), 0) == 1
    assert theta_bound(lambda a: a(0) % 2, InfSeq.constant(1), 0) == 2
    assert theta_bound(max_plus_one, InfSeq(lambda n: n), 0) == 3


def test_sspec_witness_examples():
    assert sspec_witness(lambda a: 0, InfSeq(lambda n: n), 0) == 1
    assert sspec_witness(max_plus_one, InfSeq(lambda n: n), 0) == 3
    succ = InfSeq(lambda n: n + 1)
    w = sspec_witness(lambda a: a(0), succ, 0)
    assert w <= theta_bound(lambda a: a(0), succ, 0)
    t = thread_of_total(lambda a: a(0), succ, w, 0)
    assert t.defined_at(extend_hat(t, 0)(0))


def test_spec_witness_examples():
    assert spec_witness(lambda a: 0, InfSeq(lambda n: n), 0) == 1
    assert spec_witness(lambda a: a(0), InfSeq.constant(5), 0) == 6
    assert spec_witness(lambda a: a(0) + a(1), InfSeq.constant(1), 0) == 3


def test_stubborn_control_names_the_least_unfilled_index_below_its_bound():
    def tagged(bound, filled):
        # ``bound`` at index 0, read by the control below.
        return InfSeq(lambda i: TaggedValue(bound if i == 0 else 0,
                                            int(filled(i))))

    stubborn = stubborn_control(lambda a: a(0))
    assert stubborn(tagged(10, lambda i: i < 4)) == 4
    assert stubborn(tagged(3, lambda i: True)) == 3
    assert stubborn(tagged(0, lambda i: False)) == 0


def brute_force_stop(control, alpha, bound=200):
    for n in range(bound):
        prefix = PartialFn((i, alpha(i)) for i in range(n))
        if control(extend_hat(prefix, 0)) < n:
            return n
    raise AssertionError("no stopping point within %d" % bound)


def test_spec_witness_against_brute_force():
    rng = random.Random(99)
    for _ in range(100):
        control = gen.gen_control(rng)
        alpha = gen.gen_alpha(rng)
        assert spec_witness(control, alpha, 0) == \
            brute_force_stop(control, alpha)


def test_fuel_exhaustion_is_an_error():
    wide = lambda a: sum(a(i) for i in range(500))
    ctx = EvalContext(fuel=50)
    with pytest.raises(FuelExhausted) as exc:
        theta_bound(wide, InfSeq.constant(1), 0, ctx)
    assert exc.value.metrics.mode == "plain"


def test_trace_partial_stabilises():
    trace = trace_thread(max_plus_one, U123, 10, 0)
    assert [s.n for s in trace.steps] == [1, 2, 3, 3]
    assert trace.steps[-1].defined
    assert trace.final == U123
    frozen = trace_thread(max_only, U123, 10, 0)
    assert len(frozen.steps) == 1
    assert not frozen.steps[0].defined
    assert frozen.final == EMPTY


def test_trace_total_and_json():
    trace = trace_thread(lambda a: a(0), InfSeq(lambda n: n + 1), 3, 0)
    data = trace.to_json()
    assert data["steps"][0] == {"n": 0, "defined": True, "value": 1}
    assert data["final"] == {"0": 1, "1": 2}


def counting(control):
    calls = []

    def counted(alpha):
        calls.append(None)
        return control(alpha)

    return counted, calls


def test_one_tick_per_control_evaluation():
    rng = random.Random(13)
    for _ in range(50):
        control, thread = gen.gen_thread_input(rng)
        alpha = gen.gen_alpha(rng)
        for c in (control, gen.gen_control(rng)):
            runs = (
                lambda f, ctx: thread_of_partial(f, thread, 4, 0, ctx),
                lambda f, ctx: thread_of_total(f, alpha, 4, 0, ctx),
                lambda f, ctx: is_thread(f, thread, 0, ctx),
                lambda f, ctx: thread_decomposition(f, thread, 0, ctx),
                lambda f, ctx: theta_bound(f, alpha, 0, ctx),
                lambda f, ctx: trace_thread(f, thread, None, 0, ctx),
                lambda f, ctx: trace_thread(f, alpha, None, 0, ctx),
                lambda f, ctx: sspec_witness(f, alpha, 0, ctx),
                lambda f, ctx: spec_witness(f, alpha, 0, ctx),
            )
            for run in runs:
                counted, calls = counting(c)
                ctx = EvalContext()
                run(counted, ctx)
                assert ctx.ticks == len(calls)


def test_theta_from_br_walks_the_thread_once():
    rng = random.Random(17)
    lengths = []
    for _ in range(50):
        control, u = gen.gen_thread_input(rng)
        params = replace(gen.gen_sbr_instance(rng)[0], control=control)
        ctx = EvalContext()
        theta_from_br(params, u, ctx)
        assert ctx.ticks == len(u)
        lengths.append(len(u))
    assert max(lengths) >= 2
