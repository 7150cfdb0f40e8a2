"""Engine behaviour: defining equations, instrumentation, fuel, and the
discrete-index generalisation."""

import random
from dataclasses import replace

import pytest

from barrec import checks, gen, interdef
from barrec.context import EvalContext, FuelExhausted
from barrec.pfun import EMPTY, EMPTY_SEQ, FiniteSeq, PartialFn, extend_hat
from barrec.recursors import RecursorParams, br, sbr, sbr_discrete, theta
from conftest import failures


def test_br_immediate_stop():
    params = RecursorParams(step=lambda s, n, p: 99,
                            body=lambda t: ("stop", t),
                            control=lambda a: 0, default=0)
    ctx = EvalContext()
    assert br(params, FiniteSeq((7,)), ctx) == ("stop", FiniteSeq((7,)))
    assert ctx.calls == 1


def test_br_one_unfold():
    params = RecursorParams(step=lambda s, n, p: p(9) + 1, body=lambda t: t[0],
                            control=lambda a: 0, default=0)
    assert br(params, EMPTY_SEQ) == 10


def test_br_counting_unfold():
    params = RecursorParams(step=lambda s, n, p: p(0), body=lambda t: len(t),
                            control=lambda a: a(0), default=0)
    assert br(params, EMPTY_SEQ) == 1


def test_sbr_immediate_stop():
    params = RecursorParams(step=lambda u, n, p: 99, body=lambda v: v,
                            control=lambda a: 0, default=0)
    ctx = EvalContext()
    u = PartialFn([(0, 5)])
    assert sbr(params, u, ctx) == u
    assert ctx.calls == 1


def test_sbr_one_unfold():
    params = RecursorParams(step=lambda u, n, p: p(9) + 1, body=lambda v: v(0),
                            control=lambda a: 0, default=0)
    assert sbr(params, EMPTY) == 10


def test_sbr_two_updates():
    params = RecursorParams(step=lambda u, n, p: p(1), body=lambda v: len(v),
                            control=lambda a: a(0) % 2, default=0)
    ctx = EvalContext()
    assert sbr(params, EMPTY, ctx) == 2
    assert ctx.max_domain == 2


def test_theta_clauses():
    params = RecursorParams(step=lambda u, n, p: p(1), body=lambda v: len(v),
                            control=lambda a: 0, default=0,
                            default_result=-1)
    # Index 5 is not reachable from the constant-0 control, so the input
    # is not a thread.
    assert theta(params, PartialFn([(5, 3)])) == -1
    assert theta(params, EMPTY) == sbr(params, EMPTY)
    assert theta(params, PartialFn([(0, 3)])) == \
        sbr(params, PartialFn([(0, 3)]))


def test_theta_equals_sbr_on_generated_threads():
    rng = random.Random(21)
    for _ in range(100):
        assert failures(checks.theta_laws(rng)) == []


def test_counters_deterministic_and_modes_agree():
    rng = random.Random(8)
    for _ in range(50):
        params, u = gen.gen_sbr_instance(rng)
        runs = []
        for mode in ("plain", "plain", "memoized"):
            ctx = EvalContext(mode=mode)
            value = sbr(params, u, ctx)
            runs.append((value, ctx.calls, ctx.max_domain, mode))
        assert runs[0][:3] == runs[1][:3]
        assert runs[0][0] == runs[2][0]


def test_domain_growth_monotone():
    seen = []

    def step(u, n, p):
        seen.append(len(u))
        return p(1)

    params = RecursorParams(step=step, body=lambda v: len(v),
                            control=lambda a: a(0) + a(1) + a(2), default=0)
    sbr(params, EMPTY)
    assert seen == sorted(seen)


def test_witness_bounds_depth_along_fixed_sequence():
    rng = random.Random(12)
    for _ in range(50):
        assert failures(checks.theta_laws(rng)) == []


def test_bar_depth_bounded_by_stopping_point():
    from barrec.threads import spec_witness
    rng = random.Random(13)
    for _ in range(50):
        control = gen.gen_control(rng)
        alpha = gen.gen_alpha(rng)
        params = RecursorParams(step=lambda s, n, p: p(alpha(n)),
                                body=lambda t: len(t), control=control,
                                default=0)
        depth = br(params, EMPTY_SEQ)
        assert depth <= spec_witness(control, alpha, 0)


def test_fuel_exhausted_carries_metrics():
    params = RecursorParams(step=lambda s, n, p: p(1), body=lambda t: 0,
                            control=lambda a: sum(a(i) for i in range(500)),
                            default=0)
    ctx = EvalContext(fuel=20)
    with pytest.raises(FuelExhausted) as exc:
        br(params, EMPTY_SEQ, ctx)
    assert exc.value.metrics.calls <= 20
    assert exc.value.metrics.mode == "plain"


@pytest.mark.parametrize("fuel", [0, 1, 2, 7])
@pytest.mark.parametrize("mix", ["charge", "tick", "alternate"])
def test_fuel_admits_exactly_its_units(fuel, mix):
    ctx = EvalContext(fuel=fuel)

    def spend(k):
        if mix == "charge" or (mix == "alternate" and k % 2 == 0):
            ctx.charge(k)
        else:
            ctx.tick()

    for k in range(fuel):
        spend(k)
    assert ctx.calls + ctx.ticks == fuel
    with pytest.raises(FuelExhausted):
        spend(fuel)
    assert ctx.calls + ctx.ticks == fuel


@pytest.mark.parametrize("fuel, calls, ticks", [(0, 0, 0), (5, 2, 1),
                                                (9, 0, 4), (9, 6, 0)])
def test_require_refuses_exactly_past_the_fuel(fuel, calls, ticks):
    ctx = EvalContext(fuel=fuel)
    for _ in range(calls):
        ctx.charge(3)
    for _ in range(ticks):
        ctx.tick()
    left = fuel - calls - ticks
    for work in range(left + 1):
        ctx.require(work)
    with pytest.raises(FuelExhausted) as exc:
        ctx.require(left + 1)
    assert (exc.value.metrics.calls, exc.value.metrics.ticks) \
        == (calls, ticks)
    assert exc.value.metrics.max_domain == (3 if calls else 0)
    # require reserves nothing: the counters stay as they were.
    assert (ctx.calls, ctx.ticks) == (calls, ticks)


def test_sibling_sharing_within_one_entry():
    entries = []

    def step(u, n, p):
        entries.append(u)
        return p(1) + p(1)

    params = RecursorParams(step=step, body=lambda v: len(v),
                            control=lambda a: a(0) % 2, default=0)
    ctx = EvalContext()
    assert sbr(params, EMPTY, ctx) == 8
    # Both probes at 1 inside each entry share one child evaluation.
    assert ctx.calls == 3


def test_sbr_discrete_booleans():
    params = RecursorParams(step=lambda u, n, p: p("x"),
                            body=lambda v: ("stopped", v),
                            control=lambda a: False, default="z")
    u = PartialFn([(False, "y")])
    assert sbr(params, u) == ("stopped", u)
    assert sbr(params, EMPTY) == \
        ("stopped", PartialFn([(False, "x")]))


def test_sbr_discrete_agrees_with_sbr_on_naturals():
    rng = random.Random(3)
    for _ in range(30):
        params, u = gen.gen_sbr_instance(rng)
        assert sbr_discrete(params, u) == sbr(params, u)


def test_sbr_discrete_bool_pairs():
    def control(alpha):
        return (alpha((False, False)) % 2 == 1,
                alpha((True, True)) % 2 == 0)

    params = RecursorParams(step=lambda u, n, p: p(1), body=lambda v: v,
                            control=control, default=0)
    ctx = EvalContext()
    result = sbr(params, EMPTY, ctx)
    assert result.defined_at(control(extend_hat(result, 0)))
    assert ctx.max_domain <= 4


def test_memoized_mode_agrees_with_plain():
    params = RecursorParams(step=lambda u, n, p: p(1) + p(2),
                            body=lambda v: len(v),
                            control=lambda a: a(0) + a(1), default=0)
    plain = EvalContext(mode="plain")
    memo = EvalContext(mode="memoized")
    assert sbr(params, EMPTY, plain) == sbr(params, EMPTY, memo)
    assert memo.calls <= plain.calls


def test_memo_hits_a_visited_state_rebuilt_in_another_buffer():
    # The memo keys a state by its hash and slots, not by its buffer: a
    # state the recursion grew slot by slot and the same slots read into
    # a new list are one key.
    visited = []

    def step(s, n, p):
        visited.append(s)
        return p(0) + p(n)

    params = RecursorParams(step=step, body=lambda t: sum(t),
                            control=lambda a: a(0) + 3, default=0)
    ctx = EvalContext(mode="memoized")
    br(params, EMPTY_SEQ, ctx)
    calls = ctx.calls
    assert len(visited) > 3
    for s in list(visited):
        again = FiniteSeq(s.items)
        assert again._buf is not s._buf
        assert br(params, again, ctx) == br(params, s, EvalContext())
        assert ctx.calls == calls


def test_body_follows_the_control_that_stopped_on_its_state():
    # The choice solvers pair a stopped carrier with the extension its
    # control ran on, so each body call must come right after a control
    # evaluation on its state's canonical extension, in both engines and
    # both translations.
    def logged(params, log):
        def control(alpha):
            log.append(("control", alpha))
            return params.control(alpha)

        def body(state):
            log.append(("body", state))
            return params.body(state)

        return replace(params, control=control, body=body)

    runs = {"br": lambda p, s, u: br(p, s),
            "br_from_sbr": lambda p, s, u: interdef.br_from_sbr(p, s),
            "sbr": lambda p, s, u: sbr(p, u),
            "theta": lambda p, s, u: (theta(p, u), theta(p, EMPTY)),
            "sbr_from_br": lambda p, s, u: interdef.sbr_from_br(p, u)}
    bodies = dict.fromkeys(runs, 0)
    for seed in range(200):
        rng = random.Random(seed)
        seq_params, s = gen.gen_br_instance(rng)
        sym_params, u = gen.gen_sbr_instance(rng)
        for name, run in runs.items():
            params = seq_params if name.startswith("br") else sym_params
            log = []
            run(logged(params, log), s, u)
            for k, (kind, state) in enumerate(log):
                if kind != "body":
                    continue
                bodies[name] += 1
                assert k > 0 and log[k - 1][0] == "control", (name, seed)
                alpha = log[k - 1][1]
                # One past the state's top index.
                end = (len(state) if isinstance(state, FiniteSeq)
                       else state.entries[-1][0] + 1 if len(state) else 0)
                ext = extend_hat(state, params.default)
                assert [alpha(i) for i in range(end + 8)] == \
                    [ext(i) for i in range(end + 8)], (name, seed)
    assert all(bodies.values()), bodies
