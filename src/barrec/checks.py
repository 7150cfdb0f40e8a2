"""Seeded verification suites shared by the CLI and the test suite.

Each suite runs generated cases and, where it has them, built-in
instances; ``cases`` bounds every loop of a suite.  A suite reports a
pass/fail count with the first few failure descriptions.  All randomness
flows from one seed, so a (seed, cases) pair pins the exact workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from itertools import chain, islice
from typing import Iterator

from . import gen, hdsl
from .choice import (fill_order, phi_spector, psi_symmetric, reroot,
                     solve_spector, solve_symmetric, symmetric_params,
                     thread_prefix, verify_equations)
from .context import EvalContext, InternalInvariantViolation
from .interdef import br_from_sbr, carrier_stages, diag_finite, sbr_from_br, \
    theta_from_br
from .noinjection import (BENCH_RANGES, FAMILIES, RECURSORS, builtin_dsl,
                          builtin_h, counterexample, make_choice_params,
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
            u = gen.gen_partial(rng, 4)

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


def _builtin_cells() -> Iterator[tuple]:
    """Every built-in family over its ``bench`` range, as ``(family, n)``."""
    return ((family, n) for family, ns in BENCH_RANGES.items() for n in ns)


def suite_spector(seed: int = 0, cases: int = 100) -> SuiteResult:
    """Both solvers satisfy the three equations, on generated ground
    instances and on the built-in functional families."""
    rng = random.Random(seed)
    res = SuiteResult("spector")
    instances = chain(
        (("case %d" % case, gen.gen_choice_instance(rng))
         for case in range(cases)),
        (("%s n=%d" % (family, n), make_choice_params(builtin_h(family, n)))
         for family, n in islice(_builtin_cells(), cases)))
    for label, cp in instances:
        for tag, solver in (("seq", solve_spector), ("sym", solve_symmetric)):
            sol = solver(cp, EvalContext())
            res.check(verify_equations(sol, cp),
                      "%s: %s solution fails the equations" % (label, tag))
    return res


def suite_indexwise(seed: int = 0, cases: int = 50) -> SuiteResult:
    """Index-by-index equations on both carriers, over the order in which
    each was filled, carrier threadhood, re-rooting stability, and
    agreement of the demand-driven carrier with its translation onto the
    sequential engine."""
    rng = random.Random(seed)
    res = SuiteResult("indexwise")
    for case in range(cases):
        cp = gen.gen_choice_instance(rng)
        ctx = EvalContext()
        t = phi_spector(cp, EMPTY_SEQ, ctx)
        v = psi_symmetric(cp, EMPTY, ctx)
        try:
            v_order = fill_order(cp, v, ctx)
        except InternalInvariantViolation:
            v_order = None
        res.check(v_order is not None,
                  "case %d: demand-driven carrier is not a thread" % case)
        for tag, carrier, order in (
                ("sequential", t, fill_order(cp, t, ctx)),
                ("demand-driven", v, v_order)):
            if order is None:
                continue  # a non-thread, already failed by the check above
            f = extend_hat(carrier, cp.default)
            qt = cp.q(f)
            for k, n in enumerate(order):
                p = reroot(cp, carrier, order, k, ctx)
                sel = cp.eps(n)(p)
                res.check(f(n) == sel,
                          "case %d: %s carrier value at %d is not the "
                          "selection" % (case, tag, n))
                res.check(qt == p(sel),
                          "case %d: %s observation differs at fill %d"
                          % (case, tag, k))
        for i in range(len(v) + 1):
            res.check(psi_symmetric(cp, thread_prefix(cp, v, i, ctx),
                                    ctx) == v,
                      "case %d: re-rooting at thread prefix %d moved the "
                      "carrier" % (case, i))
        res.check(sbr_from_br(symmetric_params(cp), EMPTY) == v,
                  "case %d: symmetric-from-sequential carrier disagrees"
                  % case)
    return res


def interdef_differential(rng: random.Random, cases: int) -> Iterator[tuple]:
    """Each translation against the direct engine on ``cases`` generated
    instances per direction: yields ``(case, direction, agree)``, first
    ``"sequential"`` (``br_from_sbr`` against ``br``), then
    ``"symmetric"`` (``sbr_from_br`` against ``sbr``)."""
    for case in range(cases):
        params, s = gen.gen_br_instance(rng)
        yield case, "sequential", br_from_sbr(params, s) == br(params, s)
        sparams, u = gen.gen_sbr_instance(rng)
        yield case, "symmetric", sbr_from_br(sparams, u) == sbr(sparams, u)


def suite_interdef(seed: int = 0, cases: int = 200) -> SuiteResult:
    """Differential equivalence of each translation against the direct
    engine, plus the staged-representation read-back identity on
    generated threads."""
    rng = random.Random(seed)
    res = SuiteResult("interdef")
    for case, direction, agree in interdef_differential(rng, cases):
        res.check(agree, "case %d: %s translation differs"
                  % (case, direction))
    for case in range(min(cases, 100)):
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
        lengths_ok = True
        thread = EMPTY
        for i in range(len(u)):
            ni = control(extend_hat(thread, 0))
            thread = thread.update(ni, u(ni))
            if len(stages[i + 1]) != ni + 1:
                lengths_ok = False
        res.check(lengths_ok, "thread case %d: stage length is not the "
                              "named index plus one" % case)
        nonthread = PartialFn(((control(extend_hat(EMPTY, 0)) + 1, 0),))
        if not is_thread(control, nonthread, 0):
            res.check(theta_from_br(params, nonthread) == 0,
                      "thread case %d: staged recursor nonzero off "
                      "threads" % case)
    return res


def suite_counterexamples(seed: int = 0, cases: int = 100) -> SuiteResult:
    """Collision extraction is valid for the built-in families over their
    table ranges and for generated DSL functionals, on both solvers."""
    rng = random.Random(seed)
    res = SuiteResult("counterexamples")
    instances = chain(
        (("%s n=%d" % (family, n), builtin_h(family, n))
         for family, n in islice(_builtin_cells(), cases)),
        (("dsl case %d" % case, gen.gen_h_for_counterexample(rng)[1])
         for case in range(cases)))
    for label, h in instances:
        for recursor in RECURSORS:
            c = counterexample(h, recursor, EvalContext())
            res.check(verify_counterexample(h, c),
                      "%s %s: invalid collision" % (label, recursor))
    return res


def suite_dsl(seed: int = 0, cases: int = 200) -> SuiteResult:
    """DSL conformance: built-in families against their DSL renderings
    on generated sequences, and printer round-trips."""
    rng = random.Random(seed)
    res = SuiteResult("dsl")
    for family in FAMILIES[:cases]:
        n = rng.randint(2, 6)
        href = builtin_h(family, n)
        hdsl_fn = hdsl.as_functional(hdsl.parse(builtin_dsl(family, n)))
        agree = True
        for _ in range(min(cases, 100)):
            gamma = gen.gen_alpha(rng)
            if href(gamma) != hdsl_fn(gamma):
                agree = False
        res.check(agree, "%s n=%d: DSL rendering disagrees" % (family, n))
    for case in range(cases):
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
    suite's size when given."""
    kwargs = {} if cases is None else {"cases": cases}
    return [ALL_SUITES[name](seed=seed, **kwargs)
            for name in names or ALL_SUITES]
