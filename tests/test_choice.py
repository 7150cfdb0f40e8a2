"""The two equation solvers and their verification."""

import random
import tracemalloc
from dataclasses import replace

import pytest

from barrec import gen
from barrec.choice import (ChoiceParams, SpectorSolution, phi_spector,
                           psi_symmetric, solve_spector, solve_symmetric,
                           spector_params, symmetric_params, values_equal,
                           verify_equations)
from barrec.context import MEMOIZED, EvalContext
from barrec.interdef import br_from_sbr, sbr_from_br
from barrec.noinjection import (BENCH_RANGES, FAMILIES, builtin_h,
                                make_choice_params)
from barrec.pfun import EMPTY, EMPTY_SEQ, FiniteSeq, InfSeq, PartialFn
from barrec.recursors import br, sbr
from barrec.threads import is_thread, thread_of_partial


def constant_control_params():
    return ChoiceParams(eps=lambda n: (lambda p: p(7) + n),
                        q=lambda f: f(0) * 10 + f(1),
                        control=lambda a: 0, default=0)


def test_phi_stops_on_hit_bar():
    cp = constant_control_params()
    s = FiniteSeq((5,))
    assert phi_spector(cp, s, EvalContext()) == s


def test_psi_stops_on_defined_control():
    cp = constant_control_params()
    u = PartialFn.single(0, 5)
    assert psi_symmetric(cp, u, EvalContext()) == u
    assert sbr_from_br(symmetric_params(cp), u) == u


def test_solve_with_constant_control():
    cp = constant_control_params()
    sol = solve_spector(cp, EvalContext())
    assert sol.n == 0
    assert len(sol.witness) == 1
    assert verify_equations(sol, cp)

    sym = solve_symmetric(cp, EvalContext())
    assert sym.n == 0
    assert sym.witness.domain() == (0,)
    assert verify_equations(sym, cp)


def test_solutions_verify_on_generated_instances():
    rng = random.Random(40)
    for _ in range(60):
        cp = gen.gen_choice_instance(rng)
        for solver in (solve_spector, solve_symmetric):
            sol = solver(cp, EvalContext())
            assert verify_equations(sol, cp)


def test_corrupted_solution_fails():
    cp = gen.gen_choice_instance(random.Random(41))
    sol = solve_symmetric(cp, EvalContext())
    bad = SpectorSolution(f=sol.f, n=sol.n + 1, p=sol.p, witness=sol.witness)
    assert not verify_equations(bad, cp)


def test_carriers_agree_across_engines():
    rng = random.Random(42)
    for _ in range(50):
        cp = gen.gen_choice_instance(rng)
        assert sbr_from_br(symmetric_params(cp), EMPTY) == \
            psi_symmetric(cp, EMPTY, EvalContext())
        assert br_from_sbr(spector_params(cp), EMPTY_SEQ) == \
            phi_spector(cp, EMPTY_SEQ, EvalContext())


def _children_extend_their_states(cp):
    """Run ``br``, ``sbr`` and ``sbr_from_br`` under the choice parameters
    with every continuation wrapped, and check that each child carrier
    ``p(x)`` extends the state updated at the filled index with ``x``.
    On exactly this ground the step's combine of state and child always
    returns the child.  Returns the number of children checked."""
    seen = []

    def recording(params):
        def step(state, n, p):
            def child(x):
                c = p(x)
                seen.append((state, n, x, c))
                return c
            return params.step(state, n, child)
        return replace(params, step=step)

    br(recording(spector_params(cp)), EMPTY_SEQ, EvalContext())
    sbr(recording(symmetric_params(cp)), EMPTY, EvalContext())
    sbr_from_br(recording(symmetric_params(cp)), EMPTY)
    for state, n, x, c in seen:
        if isinstance(state, FiniteSeq):
            assert c.items[:n + 1] == state.append(x).items
        else:
            assert state.update(n, x).leq(c)
    return len(seen)


def test_child_carrier_extends_state_on_generated_instances():
    rng = random.Random(45)
    assert sum(_children_extend_their_states(gen.gen_choice_instance(rng))
               for _ in range(200)) > 0


@pytest.mark.parametrize("family", FAMILIES)
def test_child_carrier_extends_state_on_builtin_instances(family):
    cp = make_choice_params(builtin_h(family, BENCH_RANGES[family][0]))
    assert _children_extend_their_states(cp) > 0


def test_carrier_is_thread_and_rerooting_is_stable():
    rng = random.Random(43)
    for _ in range(30):
        cp = gen.gen_choice_instance(rng)
        v = psi_symmetric(cp, EMPTY, EvalContext())
        assert is_thread(cp.control, v, cp.default)
        for i in range(len(v) + 1):
            prefix = thread_of_partial(cp.control, v, i, cp.default)
            assert psi_symmetric(cp, prefix, EvalContext()) == v


def test_indexwise_equations_sequential():
    rng = random.Random(44)
    for _ in range(20):
        cp = gen.gen_choice_instance(rng)
        t = phi_spector(cp, EMPTY_SEQ, EvalContext())
        qt = cp.q_hat(t)
        for i in range(len(t)):
            prefix = t.take(i)

            def p(x, _prefix=prefix):
                return cp.q_hat(phi_spector(cp, _prefix.append(x),
                                            EvalContext()))

            assert t[i] == cp.eps(i)(p)
            assert qt == p(cp.eps(i)(p))


def test_values_equal_on_functions_uses_window():
    a = InfSeq.constant(1)
    b = InfSeq(lambda i: 1 if i <= 64 else 2)
    c = InfSeq(lambda i: 1 if i <= 3 else 2)
    assert values_equal(a, b)
    assert not values_equal(a, c)
    assert values_equal(3, 3) and not values_equal(3, 4)
    assert not values_equal(a, 3)


def test_memoized_sequential_carrier_memory_is_linear():
    # The memo keeps every state of the recursion spine.  When each state
    # copied its prefix, the 257-slot prod:8 carrier peaked at 0.91 MB
    # under tracemalloc; as views of one buffer it peaks at 0.32 MB.
    # prod:8 rather than a longer carrier: tracemalloc walks the whole
    # Python stack on every allocation, so its cost grows with the
    # recursion depth (prod:10 runs 40 times slower traced than untraced).
    cp = make_choice_params(builtin_h("prod", 8))
    tracemalloc.start()
    try:
        t = phi_spector(cp, EMPTY_SEQ, EvalContext(mode=MEMOIZED))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(t) == 257
    assert peak < 600_000
