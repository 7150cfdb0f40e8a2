"""The injectivity refutation study: parameters, extraction, verification."""

import random

import pytest

from barrec import gen
from barrec.choice import psi_symmetric, phi_spector
from barrec.context import EvalContext
from barrec.noinjection import (Counterexample, builtin_h, counterexample,
                                make_choice_params, report_row,
                                verify_counterexample)
from barrec.pfun import EMPTY, EMPTY_SEQ, InfSeq


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
    assert v.domain() == (16,)
    assert v(16).prefix(3) == [1, 1, 1]


def test_generic_engine_formulation_on_prod():
    from barrec.choice import symmetric_params
    from barrec.interdef import sbr_from_br
    cp = make_choice_params(builtin_h("prod", 4))
    v = sbr_from_br(symmetric_params(cp), EMPTY, EvalContext())
    w = psi_symmetric(cp, EMPTY, EvalContext())
    # Function-valued carriers agree extensionally (value objects differ).
    assert v.domain() == w.domain() == (16,)
    assert v(16).prefix(4) == w(16).prefix(4) == [1, 1, 1, 1]


def test_spector_carrier_prod():
    cp = make_choice_params(builtin_h("prod", 4))
    t = phi_spector(cp, EMPTY_SEQ, EvalContext())
    assert len(t) == 17
    assert all(t[k].prefix(2) == [0, 0] for k in range(16))
    assert t[16].prefix(3) == [1, 1, 1]


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
    row = report_row("prod", 4, "symmetric", "plain", c, True)
    assert list(row) == ["family", "n", "recursor", "mode", "domain_size",
                         "calls", "i", "alpha_prefix", "beta_prefix",
                         "valid"]
    assert row["domain_size"] == 1
    assert len(row["alpha_prefix"]) == max(c.i, 8) + 1
    assert row["valid"] is True
