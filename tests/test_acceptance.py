"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Numeric requirements are exact integer equality unless stated otherwise;
runtime budgets are wall-clock upper bounds for the whole criterion.
"""

import time

from barrec import checks
from barrec.choice import phi_spector, psi_symmetric
from barrec.context import EvalContext
from barrec.noinjection import (builtin_h, counterexample,
                                make_choice_params)
from barrec.pfun import EMPTY, EMPTY_SEQ


def report(number, ok, label):
    print("criterion %d %s: %s" % (number, "PASS" if ok else "FAIL", label))
    assert ok, "criterion %d failed: %s" % (number, label)


def test_criterion_1_example1_closed_forms():
    started = time.monotonic()
    ok = True
    expected_sizes = {4: 17, 5: 33, 6: 65}
    for n in (4, 5, 6):
        h = builtin_h("prod", n)
        sym = counterexample(h, "symmetric", EvalContext(mode="plain"))
        ok &= sym.carrier_size == 1
        ok &= sym.i == 2 ** n
        window = 2 ** n + 4
        ok &= sym.alpha.prefix(window) == \
            [1 if k != 2 ** n else 2 for k in range(window)]
        ok &= sym.beta.prefix(window) == [1] * window
        sp = counterexample(h, "spector", EvalContext(mode="plain"))
        ok &= sp.carrier_size == expected_sizes[n]
        ok &= sp.i == 2 ** n
    elapsed = time.monotonic() - started
    ok &= elapsed < 30.0
    report(1, ok, "product family closed forms, %.1fs (budget 30s)"
           % elapsed)


def test_criterion_2_example2_exact_outputs():
    cp = make_choice_params(builtin_h("leastinc", 3))
    v = psi_symmetric(cp, EMPTY, EvalContext())
    expected_sym = {0: [1, 2, 2, 2], 1: [1, 1, 2, 2], 2: [1, 1, 1, 2],
                    3: [1, 1, 1, 1]}
    ok = [n for n, _ in v.entries] == [0, 1, 2, 3]
    for idx, prefix in expected_sym.items():
        ok &= v(idx).prefix(4) == prefix and v(idx)(9) == 1
    t = phi_spector(cp, EMPTY_SEQ, EvalContext())
    expected_sp = [[1, 2, 1, 1], [2, 1, 2, 1], [2, 2, 1, 2], [2, 2, 2, 1]]
    ok &= len(t) == 4
    for k, prefix in enumerate(expected_sp):
        ok &= t[k].prefix(4) == prefix
    for n, size in ((3, 4), (4, 5), (5, 6)):
        h = builtin_h("leastinc", n)
        for recursor in ("spector", "symmetric"):
            c = counterexample(h, recursor, EvalContext())
            ok &= c.carrier_size == size
    report(2, ok, "least-increase family exact carriers and sizes")


def test_criterion_3_call_count_ordering():
    ok = True
    counts = {}
    for family, ns in (("prod", (4, 5, 6)), ("prodpow", (3, 4)),
                       ("leastinc", (3, 4, 5)), ("contrived", (2, 3, 4, 5,
                                                               6))):
        for n in ns:
            h = builtin_h(family, n)
            for recursor in ("spector", "symmetric"):
                for mode in ("plain", "memoized"):
                    ctx = EvalContext(mode=mode)
                    counterexample(h, recursor, ctx)
                    counts[(family, n, recursor, mode)] = ctx.calls
    for family, ns in (("prod", (4, 5, 6)), ("prodpow", (3, 4)),
                       ("leastinc", (3, 4, 5))):
        for n in ns:
            for mode in ("plain", "memoized"):
                ok &= counts[(family, n, "symmetric", mode)] < \
                    counts[(family, n, "spector", mode)]
    for n in (2, 3, 4, 5, 6):
        for mode in ("plain", "memoized"):
            ok &= counts[("contrived", n, "spector", mode)] < \
                counts[("contrived", n, "symmetric", mode)]
    report(3, ok, "demand-driven wins the three table families, "
                  "sequential wins the contrived one, in both modes")


def test_criterion_4_equation_suite():
    res = checks.ALL_SUITES["spector"](seed=0, cases=100)
    report(4, res.ok, "equation verification on 100 seeded instances and "
                      "all built-ins (%d checks)" % res.passed)


def test_criterion_5_indexwise_equations():
    res = checks.ALL_SUITES["indexwise"](seed=0, cases=50)
    report(5, res.ok, "index-wise equations on 50 seeded instances "
                      "(%d checks)" % res.passed)


def test_criterion_6_interdefinability_suite():
    started = time.monotonic()
    res = checks.ALL_SUITES["interdef"](seed=0, cases=200)
    elapsed = time.monotonic() - started
    ok = res.ok and elapsed < 300.0
    report(6, ok, "200 differential cases per direction plus 100 staged "
                  "read-back cases, %.1fs (budget 300s)" % elapsed)


def test_criterion_7_thread_laws():
    res = checks.ALL_SUITES["threads"](seed=0, cases=500)
    report(7, res.ok, "thread laws on 500 seeded cases (%d checks)"
           % res.passed)


def test_criterion_8_counterexample_validity():
    res = checks.ALL_SUITES["counterexamples"](seed=0, cases=100)
    report(8, res.ok, "collision validity for built-ins and 100 DSL "
                      "functionals, both recursors (%d checks)" % res.passed)


def test_criterion_9_dsl_conformance():
    res = checks.ALL_SUITES["dsl"](seed=0, cases=200)
    report(9, res.ok, "DSL agreement with built-ins and 200 printer "
                      "round-trips (%d checks)" % res.passed)
