"""Seeded random instances for the property and differential suites.

Every generated control functional reads the extension at finitely many
indices and reduces the result modulo a small bound, which keeps both
stopping conditions reachable within a handful of updates and makes every
generated evaluation terminate well inside the default fuel budget.
Value and result domains are the naturals throughout.
"""

from __future__ import annotations

import operator
import random
from typing import Any, Callable

from . import hdsl
from .pfun import FiniteSeq, InfSeq, PartialFn
from .recursors import RecursorParams
from .choice import ChoiceParams
from .threads import thread_of_total


def gen_control(rng: random.Random) -> Callable[[InfSeq], int]:
    """A control reading at most four leading positions, with values
    reduced modulo at most eight."""
    k = rng.randint(1, 4)
    m = rng.randint(1, 8)
    shape = rng.randrange(4)
    coeffs = [rng.randint(0, 4) for _ in range(k)]
    offset = rng.randint(0, 6)
    points = range(k)

    def control(alpha: InfSeq) -> int:
        # ``map`` makes the reads, with no frame of its own per point.
        xs = list(map(alpha, points))
        if shape == 0:
            acc = offset + sum(map(operator.mul, coeffs, xs))
        elif shape == 1:
            acc = max(xs) + offset
        elif shape == 2:
            acc = xs[0] * (xs[-1] + 1) + offset
        else:
            acc = offset + sum(xs)
        return acc % m

    return control


def gen_alpha(rng: random.Random) -> InfSeq:
    """A total sequence with small values."""
    a = rng.randint(0, 3)
    b = rng.randint(0, 5)
    c = rng.randint(1, 7)
    return InfSeq(lambda i: (a * i + b) % c)


def gen_step(rng: random.Random) -> Callable[[Any, Callable], int]:
    """A step functional probing its continuation at one or two small
    values."""
    shape = rng.randrange(4)
    x1 = rng.randint(0, 5)
    x2 = rng.randint(0, 5)
    c = rng.randint(0, 9)

    def step(_state: Any, _n: Any, p: Callable[[int], int]) -> int:
        if shape == 0:
            return p(x1) + c
        if shape == 1:
            return p(x1) + p(x2)
        if shape == 2:
            return c + min(p(x1), p(x2))
        return p(x1) * 2 + p(x2)

    return step


def gen_body(rng: random.Random, sequential: bool) -> Callable[[Any], int]:
    shape = rng.randrange(3)
    c = rng.randint(0, 9)

    def body(state: Any) -> int:
        if shape == 0:
            return len(state) + c
        values = list(state) if sequential else [x for _, x in state.entries]
        if shape == 1:
            return sum(values) + c
        return (sum(values) + c) * 7 % 23 + len(state)

    return body


def gen_partial(rng: random.Random, most: int) -> PartialFn:
    """A partial function of at most ``most`` entries, at indices below 8
    with values at most 5; a repeated index keeps its last value."""
    pairs = {}
    for _ in range(rng.randint(0, most)):
        pairs[rng.randint(0, 7)] = rng.randint(0, 5)
    return PartialFn(pairs.items())


def _gen_params(rng: random.Random, sequential: bool) -> RecursorParams:
    return RecursorParams(step=gen_step(rng), body=gen_body(rng, sequential),
                          control=gen_control(rng), default=0,
                          default_result=0)


def gen_br_instance(rng: random.Random) -> tuple:
    """A sequential recursion instance and a start sequence."""
    params = _gen_params(rng, sequential=True)
    start = FiniteSeq(rng.randint(0, 5)
                      for _ in range(rng.randint(0, 2)))
    return params, start


def gen_sbr_instance(rng: random.Random) -> tuple:
    """A symmetric recursion instance and a start partial function."""
    return _gen_params(rng, sequential=False), gen_partial(rng, 2)


def gen_thread_input(rng: random.Random) -> tuple:
    """A control together with one of its own threads, built by running
    the total-sequence construction for a few steps."""
    control = gen_control(rng)
    alpha = gen_alpha(rng)
    u = thread_of_total(control, alpha, rng.randint(0, 6), 0)
    return control, u


def gen_choice_instance(rng: random.Random) -> ChoiceParams:
    """Choice parameters over ground naturals."""
    control = gen_control(rng)
    a = rng.randint(0, 4)
    b = rng.randint(0, 4)
    probe = rng.randint(0, 5)
    mx = rng.randint(1, 9)
    j = rng.randint(1, 4)
    w = [rng.randint(0, 3) for _ in range(j)]
    cq = rng.randint(0, 6)
    points = range(j)

    def eps(n: int) -> Callable[[Callable[[int], int]], int]:
        def select(p: Callable[[int], int]) -> int:
            return (a + b * n + p((n + probe) % (mx + 1))) % (mx + 1)
        return select

    def q(f: InfSeq) -> int:
        return sum(map(operator.mul, w, map(f, points))) + cq

    return ChoiceParams(eps=eps, q=q, control=control, default=0)


# -- Control DSL terms. ------------------------------------------------------

def _gen_dsl_expr(rng: random.Random, scope: tuple, depth: int) -> hdsl.Expr:
    if depth <= 0:
        choices = ["nat", "gamma"] + (["var"] if scope else [])
        kind = rng.choice(choices)
        if kind == "nat":
            return hdsl.Nat(rng.randint(0, 4))
        if kind == "var":
            return hdsl.Var(rng.choice(scope))
        return hdsl.Gamma(_gen_dsl_expr(rng, scope, 0))
    kind = rng.randrange(8)
    sub = depth - 1
    if kind in (0, 1):
        op = rng.choice(hdsl.ARITH_OPS)
        if op == "^":
            # Small exponents keep generated functionals cheap to run.
            return hdsl.BinOp(op, _gen_dsl_expr(rng, scope, sub),
                              hdsl.Nat(rng.randint(0, 2)))
        return hdsl.BinOp(op, _gen_dsl_expr(rng, scope, sub),
                          _gen_dsl_expr(rng, scope, sub))
    if kind == 2:
        return hdsl.Gamma(_gen_dsl_expr(rng, scope, sub))
    if kind in (3, 4):
        var = _fresh_name(scope)
        return hdsl.Fold("prod" if kind == 3 else "sum", var,
                         hdsl.Nat(rng.randint(0, 4)),
                         _gen_dsl_expr(rng, scope + (var,), sub))
    if kind in (5, 6):
        var = _fresh_name(scope)
        return hdsl.Search("least" if kind == 5 else "greatest", var,
                           hdsl.Nat(rng.randint(0, 5)),
                           _gen_dsl_cond(rng, scope + (var,), sub),
                           _gen_dsl_expr(rng, scope, sub))
    return hdsl.If(_gen_dsl_cond(rng, scope, sub),
                   _gen_dsl_expr(rng, scope, sub),
                   _gen_dsl_expr(rng, scope, sub))


def _gen_dsl_cond(rng: random.Random, scope: tuple, depth: int) -> hdsl.Cond:
    def cmp() -> hdsl.Cond:
        d = max(depth - 1, 0)
        return hdsl.Cmp(rng.choice(hdsl.CMP_OPS), _gen_dsl_expr(rng, scope, d),
                        _gen_dsl_expr(rng, scope, d))

    if depth > 0 and rng.random() < 0.25:
        return hdsl.Not(_gen_dsl_cond(rng, scope, depth - 1))
    cond: hdsl.Cond = cmp()
    while depth > 0 and rng.random() < 0.3:
        op = "and" if rng.random() < 0.5 else "or"
        cond = hdsl.Conn(op, cond, cmp())
    return cond


def _fresh_name(scope: tuple) -> str:
    base = "ijkmpqrstuvwxyz"
    for ch in base:
        if ch not in scope:
            return ch
    return "v%d" % len(scope)


def gen_hexpr(rng: random.Random, depth: int = 3) -> hdsl.Expr:
    """A closed, grammar-derivable term."""
    return _gen_dsl_expr(rng, (), depth)


def gen_h_for_counterexample(rng: random.Random) -> tuple:
    """A DSL-defined functional tame enough for collision extraction.

    The sequential solver's carrier length tracks the functional's value,
    so candidates are screened on a few probe sequences and rejected when
    any value exceeds 48.  Screening is part of the seeded stream,
    so the accepted instances are reproducible."""
    probes = (InfSeq.constant(1), InfSeq.constant(2),
              InfSeq(lambda i: 1 + i % 2))
    while True:
        e = gen_hexpr(rng, depth=rng.randint(1, 3))
        h = hdsl.as_functional(e)
        if all(h(probe) <= 48 for probe in probes):
            return e, h
