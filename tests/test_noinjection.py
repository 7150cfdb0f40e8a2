"""The injectivity refutation study: parameters, extraction, verification."""

import gc
import random
from dataclasses import replace
from math import factorial

import pytest

from barrec import choice, gen
from barrec.choice import (psi_symmetric, phi_spector, solve_spector,
                           solve_symmetric)
from barrec.context import MODES, EvalContext
from barrec.noinjection import (BENCH_RANGES, RECURSORS, Counterexample,
                                builtin_h, counterexample, make_choice_params,
                                report_row, verify_counterexample)
from barrec.pfun import EMPTY, EMPTY_SEQ, FiniteSeq, InfSeq, PartialFn, \
    extend_hat, extension_source
from conftest import python_calls


def _counting(fn):
    """``fn`` with a record of the arguments it is called with."""
    args = []

    def counted(x):
        args.append(x)
        return fn(x)

    return counted, args


def test_builtin_values():
    assert builtin_h("prod", 4)(InfSeq.constant(1)) == 16
    assert builtin_h("leastinc", 3)(InfSeq.constant(1)) == 3
    assert builtin_h("prodpow", 3)(InfSeq.constant(1)) == 36
    gamma = InfSeq(lambda i: [1, 1, 1, 2][i] if i < 4 else 1)
    assert builtin_h("leastinc", 3)(gamma) == 2
    assert builtin_h("contrived", 4)(InfSeq.constant(2)) == 4
    assert builtin_h("contrived", 4)(InfSeq.constant(1)) == 1
    two_then_one = InfSeq(lambda i: 2 if i == 0 else 1)
    assert builtin_h("contrived", 4)(two_then_one) == 0
    with pytest.raises(ValueError):
        builtin_h("nope", 3)


def test_choice_params_pieces():
    h = builtin_h("prod", 4)
    cp = make_choice_params(h)
    zero_family = InfSeq.constant(cp.default)
    q0 = cp.q(zero_family)
    assert q0.prefix(3) == [1, 1, 1]
    assert cp.control(zero_family) == 16

    # The selection returns the shared zero when the observation misses n,
    # and the probe's value when it hits.
    probe_value = cp.q(zero_family)
    select_miss = cp.eps(3)(lambda x: probe_value)
    assert select_miss is cp.default
    select_hit = cp.eps(16)(lambda x: probe_value)
    assert select_hit is probe_value


def test_symmetric_carrier_prod():
    cp = make_choice_params(builtin_h("prod", 4))
    v = psi_symmetric(cp, EMPTY, EvalContext())
    assert [n for n, _ in v.entries] == [16]
    assert v(16).prefix(3) == [1, 1, 1]


def test_generic_engine_formulation_on_prod():
    from barrec.choice import symmetric_params
    from barrec.interdef import sbr_from_br
    cp = make_choice_params(builtin_h("prod", 4))
    v = sbr_from_br(symmetric_params(cp), EMPTY, EvalContext())
    w = psi_symmetric(cp, EMPTY, EvalContext())
    # Function-valued carriers agree extensionally (value objects differ).
    assert [n for n, _ in v.entries] == [n for n, _ in w.entries] == [16]
    assert v(16).prefix(4) == w(16).prefix(4) == [1, 1, 1, 1]


def test_spector_carrier_prod():
    cp = make_choice_params(builtin_h("prod", 4))
    t = phi_spector(cp, EMPTY_SEQ, EvalContext())
    assert len(t) == 17
    assert all(t[k].prefix(2) == [0, 0] for k in range(16))
    assert t[16].prefix(3) == [1, 1, 1]


@pytest.mark.parametrize("solve,family,n", [(solve_spector, "prod", 6),
                                            (solve_symmetric, "leastinc", 20)])
def test_h_runs_only_at_control_evaluations(solve, family, n):
    # At each engine entry, and once when the solve reads n; a selection's
    # probe reads the value the engine computed when the child carrier
    # stopped.
    h, h_args = _counting(builtin_h(family, n))
    cp = make_choice_params(h)
    control, control_args = _counting(cp.control)
    ctx = EvalContext()
    solve(replace(cp, control=control), ctx)
    assert ctx.ticks == 0
    assert len(h_args) == len(control_args) == ctx.calls + 1


@pytest.mark.parametrize("recursor", RECURSORS)
def test_counterexample_walks_no_thread(monkeypatch, recursor):
    # A report reads alpha, i and beta off f and n; the solution's p, which
    # walks the symmetric carrier's thread, is never called.
    walks = []
    decompose = choice.thread_decomposition
    monkeypatch.setattr(choice, "thread_decomposition",
                        lambda *args: walks.append(args) or decompose(*args))
    h, ctx = builtin_h("leastinc", 20), EvalContext()
    assert verify_counterexample(h, counterexample(h, recursor, ctx))
    assert ctx.ticks == 0
    assert walks == []


def test_selection_reruns_h_on_a_probe_the_engine_did_not_stop_on():
    h, h_args = _counting(builtin_h("prod", 4))
    cp = make_choice_params(h)
    carrier = phi_spector(cp, EMPTY_SEQ, EvalContext())
    stopped = cp.q_hat(carrier)
    fresh = cp.q(extend_hat(carrier, cp.default))
    assert fresh is not stopped and fresh.prefix(20) == stopped.prefix(20)
    for n in (16, 3):
        calls = len(h_args)
        read = cp.eps(n)(lambda x: stopped)
        assert len(h_args) == calls
        rerun = cp.eps(n)(lambda x: fresh)
        assert len(h_args) == calls + 1
        assert (read is stopped, rerun is fresh) == (n == 16, n == 16)
        assert read.prefix(20) == rerun.prefix(20)


def _diagonal(f):
    """The no-injection diagonal read point by point through ``f``."""
    return InfSeq(lambda num: f(num)(num) + 1)


def _python_frames(alpha, i):
    """The number of Python frames one read ``alpha(i)`` runs."""
    return len(python_calls(alpha, (i,))[1])


def _reads_below_top(carrier):
    """Indices from -1 to two past the top of ``carrier``: its length for a
    sequence, its largest index plus one for a partial function."""
    if isinstance(carrier, FiniteSeq):
        top = len(carrier)
    else:
        top = max((n for n, _ in carrier.entries), default=-1) + 1
    return range(-1, top + 3)


@pytest.mark.parametrize("family", sorted(BENCH_RANGES))
@pytest.mark.parametrize("solve", [solve_spector, solve_symmetric])
def test_table_backed_diagonal_reads_as_the_plain_one(solve, family):
    cp = make_choice_params(builtin_h(family, BENCH_RANGES[family][0]))
    carrier = solve(cp, EvalContext()).witness
    f = extend_hat(carrier, cp.default)
    assert extension_source(f) is not None
    table = cp.q(f)
    points = _reads_below_top(carrier)
    assert list(map(table, points)) == list(map(_diagonal(f), points))
    # One read is one lookup, however deeply the carrier's values nest: in
    # C at a partial function's entry, else one frame.
    def frames(i):
        return 0 if isinstance(carrier, PartialFn) and \
            carrier.defined_at(i) else 1

    assert all(_python_frames(table, i) == frames(i) for i in points)


def test_sibling_sequence_views_read_their_own_diagonals():
    def seq(k):
        return InfSeq(lambda i: 10 * k + i)

    s = FiniteSeq(seq(k) for k in range(4))
    t = s.take(2).append(seq(7))
    assert t._buf is not s._buf
    cp = make_choice_params(builtin_h("prod", 4))
    # Queried in turn, each view switches the one-buffer table, so a table
    # kept for the other buffer or for a shorter view would read wrong;
    # each diagonal still reads its own view once the table has moved on.
    made = []
    for view in (s.take(1), t, s, t.take(2), s.take(3), t, s):
        f = extend_hat(view, cp.default)
        made.append((cp.q(f), _diagonal(f), range(-1, len(view) + 3)))
        for table, plain, points in made:
            assert list(map(table, points)) == list(map(plain, points))
    assert cp.q(extend_hat(t, cp.default)).prefix(5) == [1, 12, 73, 1, 1]
    assert cp.q(extend_hat(s, cp.default)).prefix(5) == [1, 12, 23, 34, 1]


def test_other_sequences_take_the_plain_diagonal():
    cp = make_choice_params(builtin_h("prod", 4))
    zero_family = InfSeq.constant(cp.default)
    assert extension_source(zero_family) is None
    assert cp.q(zero_family).prefix(4) == [1, 1, 1, 1]
    # A carrier extended by another default reads that default's diagonal.
    three = InfSeq(lambda i: 3 + i)
    for carrier in (FiniteSeq((cp.default,)), PartialFn([(0, cp.default)])):
        f = extend_hat(carrier, three)
        assert cp.q(f).prefix(4) == _diagonal(f).prefix(4) == [1, 5, 6, 7]


def test_verifier_evaluates_h_on_both_sequences():
    # The sequential solve's last control evaluation is on the extension
    # that alpha observes, so alpha is a sequence whose H value is
    # recorded; the verifier still evaluates H on it.
    h, h_args = _counting(builtin_h("prod", 4))
    c = counterexample(h, "spector", EvalContext())
    del h_args[:]
    assert verify_counterexample(h, c)
    assert len(h_args) == 2
    assert h_args[0] is c.alpha and h_args[1] is c.beta


@pytest.mark.parametrize("recursor", RECURSORS)
@pytest.mark.parametrize("mode", MODES)
def test_counterexample_leaves_no_carrier_alive(recursor, mode):
    # Without the cycle collector, a carrier outlives the solve only if a
    # reference cycle (or a record kept past the solve) holds it.
    def carriers():
        return [o for o in gc.get_objects()
                if isinstance(o, (FiniteSeq, PartialFn))]

    h = builtin_h("leastinc", 5)
    gc.collect()
    gc.disable()
    try:
        before = carriers()
        kept = {id(o) for o in before}
        c = counterexample(h, recursor, EvalContext(mode=mode))
        left = [o for o in carriers() if id(o) not in kept]
    finally:
        gc.enable()
    assert verify_counterexample(h, c)
    assert left == []


@pytest.mark.parametrize("recursor,size", [("symmetric", 1), ("spector", 17)])
def test_counterexample_prod4(recursor, size):
    h = builtin_h("prod", 4)
    c = counterexample(h, recursor, EvalContext())
    assert c.i == 16
    assert c.carrier_size == size
    assert c.alpha.prefix(18) == [1] * 16 + [2, 1]
    assert c.beta.prefix(18) == [1] * 18
    assert verify_counterexample(h, c)


def test_counterexample_leastinc3():
    h = builtin_h("leastinc", 3)
    sym = counterexample(h, "symmetric", EvalContext())
    assert sym.i == 3
    assert sym.alpha.prefix(5) == [2, 2, 2, 2, 1]
    assert sym.beta.prefix(5) == [1, 1, 1, 1, 1]
    sp = counterexample(h, "spector", EvalContext())
    assert sp.alpha.prefix(5) == [2, 2, 2, 2, 1]
    assert sp.beta.prefix(5) == [2, 2, 2, 1, 1]
    assert sp.i == 3
    for c in (sym, sp):
        assert verify_counterexample(h, c)


def test_leastinc_closed_forms():
    for n in (3, 4, 5):
        h = builtin_h("leastinc", n)
        sym = counterexample(h, "symmetric", EvalContext())
        assert sym.alpha.prefix(n + 2) == [2] * (n + 1) + [1]
        assert sym.beta.prefix(n + 2) == [1] * (n + 2)
        sp = counterexample(h, "spector", EvalContext())
        assert sp.alpha.prefix(n + 2) == [2] * (n + 1) + [1]
        assert sp.beta.prefix(n + 2) == [2] * n + [1, 1]


def _unread_index(k):
    """The forms of a family whose control names ``k = H(constant 1)``,
    an index ``H`` never reads."""
    return (k + 3, k + 1, k), (3, 1, k)


# Each family's (calls, domain_size, i) on the plain sequential and
# demand-driven solvers, as closed forms in n, over sizes that each solve
# in well under a second (the README's case study derives them).
CLOSED_FORMS = {
    "prod": (range(11), lambda n: _unread_index(2 ** n)),
    "prodpow": (range(5), lambda n: _unread_index(factorial(n) ** 2)),
    "leastinc": (range(0, 31, 5), lambda n: (
        ((n + 1) * (n + 2) + 1, n + 1, n), (2 * n + 3, n + 1, n))),
    "contrived": ((*range(1, 60, 7), 200), lambda n: (
        (5, 1, 0), (2 * n + 3, n + 1, n))),
}


@pytest.mark.parametrize("family", CLOSED_FORMS)
def test_counts_follow_the_closed_forms(family):
    ns, forms = CLOSED_FORMS[family]
    for n in ns:
        h = builtin_h(family, n)
        got = tuple((c.metrics.calls, c.carrier_size, c.i)
                    for c in (counterexample(h, recursor, EvalContext())
                              for recursor in RECURSORS))
        assert got == forms(n), (family, n)


def test_corrupted_counterexample_fails():
    h = builtin_h("prod", 4)
    c = counterexample(h, "symmetric", EvalContext())
    broken = Counterexample(alpha=c.alpha, beta=c.alpha, i=c.i,
                            metrics=c.metrics, carrier_size=c.carrier_size)
    assert not verify_counterexample(h, broken)


def test_every_builtin_verifies_both_recursors():
    for family, lo, hi in (("prod", 4, 6), ("prodpow", 3, 4),
                           ("leastinc", 3, 5), ("contrived", 2, 6)):
        for n in range(lo, hi + 1):
            h = builtin_h(family, n)
            for recursor in ("spector", "symmetric"):
                c = counterexample(h, recursor, EvalContext())
                assert verify_counterexample(h, c), (family, n, recursor)


def test_generated_dsl_counterexamples():
    rng = random.Random(0)
    for _ in range(25):
        _, h = gen.gen_h_for_counterexample(rng)
        for recursor in ("spector", "symmetric"):
            c = counterexample(h, recursor, EvalContext())
            assert verify_counterexample(h, c)


def test_alpha_beta_always_differ_at_i():
    # q bumps the diagonal, so the two sequences differ at the collision
    # index by construction; the verifier must still check it directly.
    h = builtin_h("leastinc", 4)
    c = counterexample(h, "symmetric", EvalContext())
    assert c.alpha(c.i) == c.beta(c.i) + 1


def test_report_row_schema():
    h = builtin_h("prod", 4)
    c = counterexample(h, "symmetric", EvalContext())
    row = report_row("prod", 4, "symmetric", c.metrics, c, True)
    assert list(row) == ["family", "n", "recursor", "mode", "domain_size",
                         "calls", "i", "alpha_prefix", "beta_prefix",
                         "valid"]
    assert row["mode"] == "plain"
    assert row["domain_size"] == 1
    assert row["calls"] == c.metrics.calls
    assert len(row["alpha_prefix"]) == max(c.i, 8) + 1
    assert row["valid"] is True


def test_report_row_without_counterexample_keeps_the_schema():
    c = counterexample(builtin_h("prod", 4), "symmetric", EvalContext())
    ctx = EvalContext(mode="memoized")
    ctx.charge(3)
    ctx.tick()
    row = report_row("prodpow", 5, "spector", ctx.metrics())
    assert list(row) == list(report_row("prod", 4, "symmetric", c.metrics, c))
    assert row == {"family": "prodpow", "n": 5, "recursor": "spector",
                   "mode": "memoized", "domain_size": None, "calls": 1,
                   "i": None, "alpha_prefix": None, "beta_prefix": None,
                   "valid": None}
