"""Seeded verification suites shared by the CLI and the test suite.

Each suite runs a fixed number of generated cases plus the relevant fixed
instances, and reports a pass/fail count with the first few failure
descriptions.  All randomness flows from one seed, so a (seed, cases)
pair pins the exact workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from . import gen, hdsl
from .choice import (phi_spector, psi_symmetric, solve_spector,
                     solve_symmetric, symmetric_params, thread_prefix,
                     verify_equations)
from .context import EvalContext
from .interdef import br_from_sbr, carrier_stages, diag_finite, sbr_from_br, \
    theta_from_br
from .noinjection import (BENCH_RANGES, FAMILIES, builtin_dsl, builtin_h,
                          counterexample, make_choice_params,
                          verify_counterexample)
from .pfun import EMPTY, EMPTY_SEQ, PartialFn, extend_hat
from .recursors import br, sbr, theta
from .threads import (is_thread, spec_witness, sspec_witness, theta_bound,
                      thread_decomposition, thread_of_partial,
                      thread_of_total)


@dataclass
class SuiteResult:
    name: str
    passed: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, describe: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(describe)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_json(self) -> dict:
        return {"suite": self.name, "passed": self.passed,
                "failed": self.failed, "failures": self.failures}


def suite_threads(seed: int = 0, cases: int = 500) -> SuiteResult:
    """Thread laws: monotone growth, stabilisation, decomposition,
    witness bounds, and stopping-point validity."""
    rng = random.Random(seed)
    res = SuiteResult("threads")
    for case in range(cases):
        control = gen.gen_control(rng)
        alpha = gen.gen_alpha(rng)
        if rng.random() < 0.5:
            u = thread_of_total(control, alpha, rng.randint(0, 6), 0)
        else:
            pairs = {}
            for _ in range(rng.randint(0, 4)):
                pairs[rng.randint(0, 7)] = rng.randint(0, 5)
            u = PartialFn(pairs.items())

        prev = thread_of_partial(control, u, 0, 0)
        mono = True
        for i in range(1, len(u) + 2):
            cur = thread_of_partial(control, u, i, 0)
            if not (prev.leq(cur) and len(cur) <= i):
                mono = False
            prev = cur
        res.check(mono, "case %d: thread growth not monotone" % case)

        decomp = thread_decomposition(control, u, 0)
        thread = is_thread(control, u, 0)
        if thread:
            ok = (decomp is not None and len(decomp) == len(u)
                  and len({n for n, _ in decomp}) == len(decomp)
                  and all(u.defined_at(n) and u(n) == x for n, x in decomp))
        else:
            ok = decomp is None
        res.check(ok, "case %d: decomposition disagrees with the thread "
                      "predicate" % case)

        bound = theta_bound(control, alpha, 0)
        witness = sspec_witness(control, alpha, 0)
        res.check(witness <= bound,
                  "case %d: witness %d above bound %d"
                  % (case, witness, bound))
        t = thread_of_total(control, alpha, witness, 0)
        res.check(t.defined_at(control(extend_hat(t, 0))),
                  "case %d: witness %d does not stop" % (case, witness))

        stop = spec_witness(control, alpha, 0)
        seq_prefix = extend_hat(
            PartialFn((i, alpha(i)) for i in range(stop)), 0)
        res.check(control(seq_prefix) < stop,
                  "case %d: stopping point %d not below bar" % (case, stop))
    return res


def suite_recursors(seed: int = 0, cases: int = 200) -> SuiteResult:
    """Engine laws: immediate stops, thread restriction, deterministic
    counters, domain growth, and witness-bounded depth."""
    rng = random.Random(seed)
    res = SuiteResult("recursors")
    for case in range(cases):
        params, s = gen.gen_br_instance(rng)
        ctx1 = EvalContext()
        r1 = br(params, s, ctx1)
        ctx2 = EvalContext()
        r2 = br(params, s, ctx2)
        res.check(r1 == r2 and ctx1.calls == ctx2.calls,
                  "case %d: sequential run not reproducible" % case)
        bar_now = params.control(extend_hat(s, 0)) < len(s)
        res.check((ctx1.calls == 1) == bar_now,
                  "case %d: immediate stop mismatch" % case)
        res.check(ctx1.max_domain >= len(s),
                  "case %d: max_domain below start" % case)

        sparams, u = gen.gen_sbr_instance(rng)
        ctx3 = EvalContext()
        sbr(sparams, u, ctx3)
        n0 = sparams.control(extend_hat(u, 0))
        res.check((ctx3.calls == 1) == u.defined_at(n0),
                  "case %d: symmetric immediate stop mismatch" % case)

        control, tu = gen.gen_thread_input(rng)
        tparams = replace(gen.gen_sbr_instance(rng)[0], control=control)
        res.check(theta(tparams, tu) == sbr(tparams, tu),
                  "case %d: thread restriction changed a thread value"
                  % case)

        alpha = gen.gen_alpha(rng)
        follow = replace(
            tparams,
            step=lambda v, n, p: p(alpha(n)),
            body=lambda v: len(v))
        ctx4 = EvalContext()
        depth = sbr(follow, EMPTY, ctx4)
        res.check(depth == sspec_witness(control, alpha, 0),
                  "case %d: depth along a fixed sequence is not the "
                  "stopping witness" % case)
    return res


def suite_spector(seed: int = 0, cases: int = 100) -> SuiteResult:
    """Both solvers satisfy the three equations, on generated ground
    instances and on the built-in functional families."""
    rng = random.Random(seed)
    res = SuiteResult("spector")
    for case in range(cases):
        cp = gen.gen_choice_instance(rng)
        for tag, solver in (("seq", solve_spector), ("sym", solve_symmetric)):
            sol = solver(cp, EvalContext())
            res.check(verify_equations(sol, cp),
                      "case %d: %s solution fails the equations"
                      % (case, tag))
    for family in FAMILIES:
        lo, hi = BENCH_RANGES[family]
        for n in range(lo, hi + 1):
            cp = make_choice_params(builtin_h(family, n))
            for tag, solver in (("seq", solve_spector),
                                ("sym", solve_symmetric)):
                sol = solver(cp, EvalContext())
                res.check(verify_equations(sol, cp),
                          "%s n=%d: %s solution fails the equations"
                          % (family, n, tag))
    return res


def suite_indexwise(seed: int = 0, cases: int = 50) -> SuiteResult:
    """Index-by-index equations on both carriers, carrier threadhood,
    re-rooting stability, and agreement of the demand-driven carrier with
    its translation onto the sequential engine."""
    rng = random.Random(seed)
    res = SuiteResult("indexwise")
    for case in range(cases):
        cp = gen.gen_choice_instance(rng)
        carrier = phi_spector(cp, EMPTY_SEQ, EvalContext())
        qt = cp.q_hat(carrier)
        for i in range(len(carrier)):
            prefix = carrier.take(i)

            def p(x, _prefix=prefix):
                return cp.q_hat(phi_spector(cp, _prefix.append(x),
                                            EvalContext()))

            sel = cp.eps(i)(p)
            res.check(carrier[i] == sel,
                      "case %d: sequential slot %d is not the selection"
                      % (case, i))
            res.check(qt == p(sel),
                      "case %d: sequential observation differs at %d"
                      % (case, i))

        v = psi_symmetric(cp, EMPTY, EvalContext())
        res.check(is_thread(cp.control, v, cp.default),
                  "case %d: demand-driven carrier is not a thread" % case)
        decomp = thread_decomposition(cp.control, v, cp.default) or []
        for i, (ni, _) in enumerate(decomp):
            prefix = PartialFn(decomp[:i])

            def p(x, _prefix=prefix, _ni=ni):
                return cp.q_hat(psi_symmetric(cp, _prefix.update(_ni, x),
                                              EvalContext()))

            sel = cp.eps(ni)(p)
            res.check(v(ni) == sel,
                      "case %d: carrier value at %d is not the selection"
                      % (case, ni))
            res.check(cp.q_hat(v) == p(sel),
                      "case %d: observation differs at update %d"
                      % (case, i))
        for i in range(len(v) + 1):
            res.check(psi_symmetric(cp, thread_prefix(cp, v, i),
                                    EvalContext()) == v,
                      "case %d: re-rooting at thread prefix %d moved the "
                      "carrier" % (case, i))
        res.check(sbr_from_br(symmetric_params(cp), EMPTY) == v,
                  "case %d: symmetric-from-sequential carrier disagrees"
                  % case)
    return res


def suite_interdef(seed: int = 0, cases: int = 200,
                   thread_cases: int = 100) -> SuiteResult:
    """Differential equivalence of each translation against the direct
    engine, plus the staged-representation read-back identity."""
    rng = random.Random(seed)
    res = SuiteResult("interdef")
    for case in range(cases):
        params, s = gen.gen_br_instance(rng)
        res.check(br_from_sbr(params, s) == br(params, s),
                  "case %d: sequential-from-symmetric differs" % case)
        sparams, u = gen.gen_sbr_instance(rng)
        res.check(sbr_from_br(sparams, u) == sbr(sparams, u),
                  "case %d: symmetric-from-sequential differs" % case)
    for case in range(thread_cases):
        control, u = gen.gen_thread_input(rng)
        params = replace(gen.gen_sbr_instance(rng)[0], control=control)
        res.check(theta_from_br(params, u) == theta(params, u),
                  "thread case %d: staged thread recursor differs" % case)
        stages = carrier_stages(params, u)
        ok = True
        for i in range(len(u) + 1):
            if diag_finite(stages[i]) != thread_of_partial(control, u, i, 0):
                ok = False
        res.check(ok, "thread case %d: stage read-back misses the thread"
                  % case)
        thread = EMPTY
        for i in range(len(u)):
            ni = control(extend_hat(thread, 0))
            thread = thread.update(ni, u(ni))
            if len(stages[i + 1]) != ni + 1:
                ok = False
        res.check(ok, "thread case %d: stage length is not the named "
                      "index plus one" % case)
        nonthread = PartialFn(((control(extend_hat(EMPTY, 0)) + 1, 0),))
        if not is_thread(control, nonthread, 0):
            res.check(theta_from_br(params, nonthread) == 0,
                      "thread case %d: staged recursor nonzero off "
                      "threads" % case)
    return res


def suite_counterexamples(seed: int = 0, dsl_cases: int = 100
                          ) -> SuiteResult:
    """Collision extraction is valid for every built-in family over its
    table range and for generated DSL functionals, on both solvers."""
    rng = random.Random(seed)
    res = SuiteResult("counterexamples")
    for family in FAMILIES:
        lo, hi = BENCH_RANGES[family]
        for n in range(lo, hi + 1):
            h = builtin_h(family, n)
            for recursor in ("spector", "symmetric"):
                c = counterexample(h, recursor, EvalContext())
                res.check(verify_counterexample(h, c),
                          "%s n=%d %s: invalid collision"
                          % (family, n, recursor))
    for case in range(dsl_cases):
        _, h = gen.gen_h_for_counterexample(rng)
        for recursor in ("spector", "symmetric"):
            c = counterexample(h, recursor, EvalContext())
            res.check(verify_counterexample(h, c),
                      "dsl case %d %s: invalid collision" % (case, recursor))
    return res


def suite_dsl(seed: int = 0, gammas: int = 100,
              roundtrips: int = 200) -> SuiteResult:
    """DSL conformance: built-in families against their DSL renderings,
    and printer round-trips."""
    rng = random.Random(seed)
    res = SuiteResult("dsl")
    for family in ("prod", "prodpow", "leastinc", "contrived"):
        n = rng.randint(2, 6)
        href = builtin_h(family, n)
        hdsl_fn = hdsl.as_functional(hdsl.parse(builtin_dsl(family, n)))
        agree = True
        for _ in range(gammas):
            gamma = gen.gen_alpha(rng)
            if href(gamma) != hdsl_fn(gamma):
                agree = False
        res.check(agree, "%s n=%d: DSL rendering disagrees" % (family, n))
    for case in range(roundtrips):
        e = gen.gen_hexpr(rng, depth=rng.randint(0, 3))
        res.check(hdsl.parse(hdsl.to_text(e)) == e,
                  "case %d: round-trip changed the term" % case)
    return res


ALL_SUITES = {
    "threads": suite_threads,
    "recursors": suite_recursors,
    "spector": suite_spector,
    "indexwise": suite_indexwise,
    "interdef": suite_interdef,
    "counterexamples": suite_counterexamples,
    "dsl": suite_dsl,
}


def run_suites(names=None, seed: int = 0, cases: int | None = None) -> list:
    """Run the named suites (all by default); ``cases`` overrides each
    suite's primary case count when given."""
    results = []
    for name in names or ALL_SUITES:
        fn = ALL_SUITES[name]
        if cases is None:
            results.append(fn(seed=seed))
        else:
            results.append(fn(seed=seed, **{_primary_arg(name): cases}))
    return results


def _primary_arg(name: str) -> str:
    return {"counterexamples": "dsl_cases",
            "dsl": "roundtrips"}.get(name, "cases")
