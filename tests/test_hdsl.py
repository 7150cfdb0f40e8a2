"""Parser, compiler, and printer of the control DSL."""

import random
import sys
from dataclasses import fields

import pytest

from barrec import gen
from barrec.hdsl import (MAX_DEPTH, BinOp, Cmp, Cond, Conn, Expr, Fold, Gamma,
                         If, Nat, Not, ParseError, Search, UnboundVariable,
                         Var, as_functional, cond_to_text, parse, to_text)
from barrec.noinjection import builtin_dsl, builtin_h
from barrec.pfun import InfSeq, PartialFn, extend_hat


def test_parse_prod_example():
    assert parse("prod i < 4 : 1 + g(i)") == \
        Fold("prod", "i", Nat(4), BinOp("+", Nat(1), Gamma(Var("i"))))


def test_parse_least_example():
    e = parse("least i <= 3 st g(i) < g(i+1) else 3")
    assert e == Search("least", "i", Nat(3),
                       Cmp("<", Gamma(Var("i")),
                           Gamma(BinOp("+", Var("i"), Nat(1)))),
                       Nat(3))


def test_parse_error_missing_bound():
    with pytest.raises(ParseError) as exc:
        parse("prod i < : 1")
    assert exc.value.offset == 9
    assert "NAT" in exc.value.expected


def test_parse_error_trailing_garbage():
    with pytest.raises(ParseError):
        parse("1 + 2 )")


def _nested_ifs(levels, parenthesised=True):
    """A term exactly ``levels`` levels deep (``levels`` even): ifs, each
    in the condition of the next, around a numeral.  An inner ``if`` is
    two levels: its parentheses, or without them the parentheses the
    printer adds, and itself."""
    inner = "(%s)" if parenthesised else "%s"
    text = "if 1 < 1 then 1 else 0"
    for _ in range(levels // 2 - 1):
        text = "if %s < 1 then 1 else 0" % (inner % text)
    return text


@pytest.mark.parametrize("deepest,deeper", [
    (_nested_ifs(MAX_DEPTH), "(%s)" % _nested_ifs(MAX_DEPTH)),
    (_nested_ifs(MAX_DEPTH, False), "(%s)" % _nested_ifs(MAX_DEPTH, False)),
    ("(" * (MAX_DEPTH - 1) + "1" + ")" * (MAX_DEPTH - 1),
     "(" * MAX_DEPTH + "1" + ")" * MAX_DEPTH),
    ("1 + if 1 < 1 then 1 else " * (MAX_DEPTH // 2 - 1) + "(1)",
     "1 + if 1 < 1 then 1 else " * (MAX_DEPTH // 2) + "1"),
], ids=["if-in-condition", "bare-if-in-condition", "parentheses",
        "if-as-operand"])
def test_deepest_term_parses_prints_and_round_trips(deepest, deeper):
    # The parenthesised if in a condition is the costliest construct per
    # level; all of these run within the default recursion limit.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        e = parse(deepest)
        assert as_functional(e)(InfSeq.constant(0)) in (0, 1,
                                                    MAX_DEPTH // 2)
        assert parse(to_text(e)) == e
        with pytest.raises(ParseError) as exc:
            parse(deeper)
    finally:
        sys.setrecursionlimit(limit)
    assert "nesting at most %d deep" % MAX_DEPTH in str(exc.value)


def test_chains_cost_no_nesting():
    flat = " + ".join("g(%d)" % i for i in range(MAX_DEPTH + 1))
    e = parse(flat)
    assert as_functional(e)(InfSeq(lambda i: i)) == \
        MAX_DEPTH * (MAX_DEPTH + 1) // 2
    assert to_text(e) == flat and parse(to_text(e)) == e
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        long_sum = " + ".join(["1"] * 50000)
        assert to_text(parse(long_sum)) == long_sum
        assert as_functional(parse(long_sum))(InfSeq.constant(0)) == 50000
        conds = " and ".join("g(%d) < 5" % i for i in range(20000))
        cond_term = "if %s or 1 < 0 then 1 else 0" % conds
        assert to_text(parse(cond_term)) == cond_term
        assert as_functional(parse(cond_term))(InfSeq.constant(0)) == 1
    finally:
        sys.setrecursionlimit(limit)


def test_printer_parenthesises_only_where_needed():
    for text in ("1 + 2 * 3 - 4", "(1 + 2) * 3", "2 ^ (3 ^ 2)", "7 - (2 - 1)",
                 "1 + (if 1 < 0 then 2 else 3)", "(sum i < 2 : i) + 1",
                 "if g(0) + 1 < (least i <= 2 st i = 1 else 0) then 1 "
                 "else if 0 < 1 then 2 else 3"):
        assert to_text(parse(text)) == text


def test_unbound_variable():
    with pytest.raises(UnboundVariable) as exc:
        parse("prod i < 4 : j")
    assert exc.value.name == "j"
    with pytest.raises(UnboundVariable):
        parse("i")
    # The binder's own bound is outside its scope.
    with pytest.raises(UnboundVariable):
        parse("prod i < i : 1")


def test_keywords_are_not_variables():
    with pytest.raises(ParseError):
        parse("prod st < 4 : 1")


def test_precedence_and_associativity():
    assert parse("1 + 2 * 3") == \
        BinOp("+", Nat(1), BinOp("*", Nat(2), Nat(3)))
    assert parse("2 * 3 ^ 2") == \
        BinOp("*", Nat(2), BinOp("^", Nat(3), Nat(2)))
    assert parse("7 - 2 - 1") == \
        BinOp("-", BinOp("-", Nat(7), Nat(2)), Nat(1))
    assert as_functional(parse("7 - 2 - 1"))(InfSeq.constant(0)) == 4


def test_eval_examples():
    gamma1 = InfSeq.constant(1)
    assert as_functional(parse("prod i < 4 : 1 + g(i)"))(gamma1) == 16
    ladder = extend_hat(PartialFn(((0, 1), (1, 1), (2, 1), (3, 2))), 1)
    assert as_functional(parse("least i <= 3 st g(i) < g(i+1) else 3"))(
        ladder) == 2
    assert as_functional(parse("5 - 7"))(gamma1) == 0
    assert as_functional(parse("0 ^ 0"))(gamma1) == 1
    assert as_functional(parse("sum i < 5 : i"))(gamma1) == 10
    assert as_functional(parse("greatest i <= 5 st g(i) = 1 else 9"))(
        gamma1) == 5
    assert as_functional(parse("greatest i <= 5 st g(i) = 2 else 9"))(
        gamma1) == 9
    assert as_functional(parse("if not 1 < 0 then 3 else 4"))(gamma1) == 3
    assert as_functional(parse(
        "if 1 < 0 or 0 < 1 and 1 = 1 then 3 else 4"))(gamma1) == 3


def test_empty_ranges():
    gamma = InfSeq.constant(9)
    assert as_functional(parse("prod i < 0 : g(i)"))(gamma) == 1
    assert as_functional(parse("sum i < 0 : g(i)"))(gamma) == 0
    assert as_functional(parse("least i <= 0 st g(i) < g(i) else 7"))(
        gamma) == 7


def test_bound_evaluated_before_body():
    gamma = InfSeq(lambda i: i)
    assert as_functional(parse("sum i < g(3) : i"))(gamma) == 3


def test_as_functional_matches_builtins():
    rng = random.Random(31)
    for family, n in (("prod", 4), ("prodpow", 3), ("leastinc", 3),
                      ("contrived", 5)):
        h_ref = builtin_h(family, n)
        h_dsl = as_functional(parse(builtin_dsl(family, n)))
        for _ in range(100):
            gamma = gen.gen_alpha(rng)
            assert h_ref(gamma) == h_dsl(gamma), (family, n)


def _value_and_reads(h, alpha):
    reads = []
    value = h(InfSeq(lambda i: (reads.append(i), alpha(i))[1]))
    return value, reads


@pytest.mark.parametrize("family,ns", [
    ("prod", (0, 1, 4, 7)), ("prodpow", (0, 2, 3)), ("leastinc", (0, 3, 9)),
])
def test_compiled_dsl_reads_gamma_like_builtin(family, ns):
    # The same points in the same order: only then does a DSL solve make
    # the extension reads, and so the counts, of a built-in one.
    rng = random.Random(33)
    for n in ns:
        h_ref = builtin_h(family, n)
        h_dsl = as_functional(parse(builtin_dsl(family, n)))
        for _ in range(50):
            alpha = gen.gen_alpha(rng)
            assert _value_and_reads(h_dsl, alpha) == \
                _value_and_reads(h_ref, alpha), (family, n)


def test_as_functional_is_reentrant():
    # Every read of gamma evaluates the same functional on a constant
    # sequence, which has no increase and so runs the binder up to 3 and
    # answers 3.  Shared slots would then hand the outer loop i = 3 for
    # its second read, g(4) = 9 > g(0) = 8, and answer 0 instead of 1.
    f = as_functional(parse("least i <= 3 st g(i) < g(i + 1) else 3"))
    steps = [5, 5, 6, 6, 6]
    gamma = InfSeq(lambda i: steps[i] + f(InfSeq.constant(0)))
    assert f(InfSeq.constant(0)) == 3
    assert f(gamma) == 1


def test_inner_binder_shadows_outer():
    # After the inner sum, ``i`` is the outer binder's again.
    f = as_functional(parse("sum i < 3 : (sum i < 2 : i) + i"))
    assert f(InfSeq.constant(0)) == 6


def test_as_functional_constant():
    f = as_functional(parse("42"))
    assert f(InfSeq.constant(0)) == f(InfSeq.constant(9)) == 42


def test_leastinc_dsl_on_walkthrough_sequences():
    h_ref = builtin_h("leastinc", 3)
    h_dsl = as_functional(parse(builtin_dsl("leastinc", 3)))
    for prefix in ([1, 1, 1, 1], [1, 1, 1, 2], [1, 1, 2, 2], [1, 2, 2, 2]):
        gamma = InfSeq(lambda i, p=prefix: p[i] if i < len(p) else 1)
        assert h_ref(gamma) == h_dsl(gamma)


def test_roundtrip_on_generated_terms():
    rng = random.Random(32)
    for _ in range(200):
        e = gen.gen_hexpr(rng, depth=rng.randint(0, 3))
        assert parse(to_text(e)) == e


@pytest.mark.parametrize("seed", range(10))
def test_generator_reaches_every_node_and_op(seed):
    # The round-trip oracle of the ``dsl`` suite covers only the forms the
    # generator builds; on its 200 default cases it should build them all.
    expected = {
        Nat: {None}, Var: {None}, Gamma: {None},
        BinOp: {"+", "-", "*", "^"}, Fold: {"prod", "sum"},
        Search: {"least", "greatest"}, If: {None},
        Cmp: {"<", "<=", "=", "!="}, Conn: {"and", "or"}, Not: {None},
    }
    assert set(expected) == set(Expr.__subclasses__()
                                + Cond.__subclasses__())
    seen = {}
    rng = random.Random(seed)
    for _ in range(200):
        stack = [gen.gen_hexpr(rng, depth=rng.randint(0, 3))]
        while stack:
            node = stack.pop()
            seen.setdefault(type(node), set()).add(getattr(node, "op", None))
            stack.extend(getattr(node, f.name) for f in fields(node)
                         if isinstance(getattr(node, f.name), (Expr, Cond)))
    assert seen == expected


def test_roundtrip_specific_shapes():
    shapes = [
        BinOp("+", Fold("prod", "i", Nat(2), Var("i")), Nat(1)),
        Search("least", "i", Nat(3), Cmp("=", Var("i"), Nat(2)),
               If(Cmp("<", Nat(0), Nat(1)), Nat(4), Nat(5))),
        If(Conn("or", Conn("and", Cmp("=", Gamma(Nat(0)), Nat(1)),
                           Cmp("=", Gamma(Nat(1)), Nat(2))),
                Cmp("<", Nat(0), Nat(1))), Nat(0), Nat(1)),
        Search("greatest", "k", Nat(4), Not(Cmp("!=", Var("k"), Nat(1))),
               Nat(9)),
        Fold("sum", "i", Gamma(Nat(0)),
             Fold("prod", "j", Var("i"), BinOp("^", Var("j"), Nat(2)))),
    ]
    for e in shapes:
        assert parse(to_text(e)) == e


def test_printer_rejects_underivable_conditions():
    with pytest.raises(ValueError):
        cond_to_text(Conn("and", Cmp("=", Nat(0), Nat(0)),
                          Not(Cmp("=", Nat(1), Nat(1)))))


def test_continuity_per_evaluation():
    # Evaluating records which positions were read; agreeing there forces
    # equal results.
    e = parse("g(0) + g(g(1))")
    reads = []
    base = InfSeq(lambda i: (reads.append(i), i + 1)[1])
    result = as_functional(e)(base)
    twin = InfSeq(lambda i: i + 1 if i in reads else 99)
    assert as_functional(e)(twin) == result
