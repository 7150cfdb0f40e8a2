"""Parser, compiler, and printer of the control DSL."""

import ast
import io
import random
import re
import sys
import tokenize
from itertools import product
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barrec import gen
from barrec.hdsl import (MAX_DEPTH, BinOp, Cmp, Cond, Conn, Expr, Fold, Gamma,
                         If, Nat, Not, ParseError, Search, UnboundVariable,
                         Var, _MAX_NESTING, _source, as_functional,
                         cond_to_text, parse, to_text)
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
    # ``^`` associates to the left, unlike Python's ``**``.
    assert as_functional(parse("2 ^ 3 ^ 2"))(InfSeq.constant(0)) == 64
    assert as_functional(parse("2 ^ (3 ^ 2)"))(InfSeq.constant(0)) == 512


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


@pytest.mark.parametrize("cond, reference", [
    ("g(0) = 1 and g(1) = 1", lambda g: g(0) == 1 and g(1) == 1),
    ("g(0) = 1 or g(1) = 1", lambda g: g(0) == 1 or g(1) == 1),
    ("g(0) = 1 and g(1) = 1 or g(2) = 1 and g(3) = 1",
     lambda g: ((g(0) == 1 and g(1) == 1) or g(2) == 1) and g(3) == 1),
    ("g(0) = 1 or g(1) = 1 or g(2) = 1",
     lambda g: g(0) == 1 or g(1) == 1 or g(2) == 1),
], ids=["and", "or", "mixed-chain", "or-chain"])
def test_connectives_read_the_right_side_only_when_the_left_does_not_decide(
        cond, reference):
    # A connective chain is left-nested; each link reads its right side
    # only when the value so far does not decide the link, as Python's
    # ``and``/``or`` do.  The reads of both, in order, must agree.
    h = as_functional(parse("if %s then 1 else 0" % cond))
    for bits in product((0, 1), repeat=4):
        def recording(reads):
            return InfSeq(lambda i: (reads.append(i), bits[i])[1])
        got, want = [], []
        assert h(recording(got)) == int(reference(recording(want)))
        assert got == want, bits


def test_compile_rejects_a_non_node():
    with pytest.raises(TypeError):
        as_functional("g(0)")


def _reference(e, g, env={}):
    """The value of ``e`` on ``g`` by walking the tree: the DSL's semantics
    written once more, apart from the compiler, to test it against."""
    def ev(x, env=env):
        return _reference(x, g, env)
    if isinstance(e, Nat):
        return e.value
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Gamma):
        return g(ev(e.arg))
    if isinstance(e, BinOp):
        a, b = ev(e.left), ev(e.right)
        return (a + b if e.op == "+" else max(a - b, 0) if e.op == "-"
                else a * b if e.op == "*" else a ** b)
    if isinstance(e, Fold):
        acc = 1 if e.op == "prod" else 0
        for i in range(ev(e.bound)):
            v = ev(e.body, {**env, e.var: i})
            acc = acc * v if e.op == "prod" else acc + v
        return acc
    if isinstance(e, Search):
        top = ev(e.bound)
        for i in range(top + 1) if e.op == "least" else range(top, -1, -1):
            if ev(e.cond, {**env, e.var: i}):
                return i
        return ev(e.orelse)
    if isinstance(e, If):
        return ev(e.then) if ev(e.cond) else ev(e.orelse)
    if isinstance(e, Cmp):
        a, b = ev(e.left), ev(e.right)
        return {"<": a < b, "<=": a <= b, "=": a == b, "!=": a != b}[e.op]
    if isinstance(e, Not):
        return not ev(e.cond)
    left = ev(e.left)
    if e.op == "and":
        return left and ev(e.right)
    return left or ev(e.right)


def _agrees_with_reference(e, alpha):
    got = _value_and_reads(as_functional(e), alpha)
    assert got == _value_and_reads(lambda g: _reference(e, g), alpha)
    return got[0]


@pytest.mark.parametrize("text", [
    "5 - (2 + 3)", "5 - (2 - 3)", "9 - 2 - 3", "9 - 2 + 3", "2 * (3 + 4)",
    "2 * (3 - 4)", "2 * (4 - 3) * 5", "(2 * 3) ^ 2", "2 ^ (1 + 1)",
    "2 ^ (3 * 1)", "(1 + 2) ^ 2", "(2 ^ 0) ^ g(1)", "g(2 - g(0)) * (1 + 1)",
    "(if 1 < 0 then 2 else 3) + 1", "1 + (if 1 < 0 then 2 else 3) * 2",
    "if (if 0 < 1 then 0 else 1) < 1 then 4 else 5",
    "if 1 < 0 then (if 0 < 1 then 2 else 3) else 4",
    "if not 1 < 0 or 0 < 1 then 1 else 0",
    "if 0 < 1 or 1 < 0 and 1 < 0 then 1 else 0",
    "if 1 < 0 and 1 < 0 or 0 < 1 then 1 else 0",
    "least i <= 3 - 1 st g(i) = g(0) + 1 else 9 - 2",
])
def test_operands_group_as_the_term_does(text):
    # Each operand is parenthesised by Python precedence only where it
    # needs to be; a missing pair regroups the term.
    for alpha in (InfSeq.constant(0), InfSeq(lambda i: i % 3)):
        _agrees_with_reference(parse(text), alpha)


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_compiled_terms_read_and_answer_like_the_reference(rng):
    # The same value and the same points of gamma in the same order, on
    # every form the generator builds: lazy if, left-nested and/or
    # chains, shadowing binders and the bounds of each binder.
    e = gen.gen_hexpr(rng, depth=rng.randint(0, 4))
    _agrees_with_reference(e, gen.gen_alpha(rng))


@pytest.fixture
def default_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(limit)


def _at_the_bound(deepest, deeper):
    """``deepest`` parsed, after checking that ``deeper`` is one level
    past ``MAX_DEPTH``."""
    with pytest.raises(ParseError, match="nesting at most"):
        parse(deeper)
    return parse(deepest)


def _binders(n):
    """``n`` nested binders over one index each, ``prod`` and ``sum`` in
    turn and a ``least`` innermost, which reads ``g`` at the outermost
    binder's variable."""
    text = "least v%d <= 2 st v%d = g(v0) else 7" % (n - 1, n - 1)
    for k in reversed(range(n - 1)):
        text = "%s v%d < 1 : %s" % (("prod", "sum")[k % 2], k, text)
    return text


def test_binders_nested_to_the_bound_compile(default_recursion_limit):
    # Every binder is the body of a generated function of its own, one
    # loop, and an inner binder is a call of it: no function nests one
    # loop in another, however deep the binders go.
    e = _at_the_bound(_binders(MAX_DEPTH - 2), _binders(MAX_DEPTH - 1))
    for x, value in ((1, 1), (2, 2), (5, 7)):
        assert _agrees_with_reference(e, InfSeq.constant(x)) == value


# An if chain in each branch, the other branch a binder that needs
# statements: ``k`` ifs reach ``k + 3`` levels, the binder's ``g(i)``.
_IF_CHAINS = {
    "then": lambda k: ("if g(0) < 1 then " * k + "7"
                       + " else sum i < 2 : g(i)" * k),
    "else": lambda k: "if g(0) < 1 then sum i < 2 : g(i) else " * k + "7",
}


@pytest.mark.parametrize("branch", sorted(_IF_CHAINS))
def test_if_chains_nested_to_the_bound_compile(default_recursion_limit,
                                               branch):
    # Each if is a conditional expression, one level per if, so the chain
    # stays one expression below ``_MAX_NESTING``; each binder runs only
    # on some paths and is a call of a function of its own.
    chain = _IF_CHAINS[branch]
    e = _at_the_bound(chain(MAX_DEPTH - 3), chain(MAX_DEPTH - 2))
    assert _source(e)[0].count("def ") > 1
    for alpha in (InfSeq.constant(0), InfSeq.constant(1),
                  InfSeq(lambda i: i % 2)):
        _agrees_with_reference(e, alpha)


def test_ifs_that_emit_no_statement_stay_in_one_function(
        default_recursion_limit):
    # The 98 ifs nest 99 levels, below ``_MAX_NESTING``, so the chain is
    # one conditional expression in the term's own function, with no
    # temporary and no call.
    e = parse("if 0 < 1 then " * 98 + "7" + " else 0" * 98)
    assert _source(e)[0].count("def ") == 1
    assert _agrees_with_reference(e, InfSeq.constant(0)) == 7


# The forms that open the most parentheses per level, each with the
# deepest nesting ``parse`` accepts and the one level past it.
_PARENTHESISED = {
    "sub-sub": (MAX_DEPTH - 2, lambda n: "1 - (" * n + "g(0)" + ")" * n),
    "sub-add": (MAX_DEPTH // 2 - 1,
                lambda n: "1 - (2 + (" * n + "g(0)" + "))" * n),
    "g-sub": (MAX_DEPTH - 2, lambda n: "g(1 - " * n + "g(0)" + ")" * n),
    "g-g": (MAX_DEPTH - 1, lambda n: "g(" * n + "0" + ")" * n),
}


@pytest.mark.parametrize("form", sorted(_PARENTHESISED))
def test_parenthesised_forms_nested_to_the_bound_compile(
        default_recursion_limit, form):
    # Past 200 nested parentheses CPython's tokenizer refuses a line, and
    # a subtraction opens two or three per level.
    n, nest = _PARENTHESISED[form]
    e = _at_the_bound(nest(n), nest(n + 1))
    for alpha in (InfSeq.constant(0), InfSeq.constant(3),
                  InfSeq(lambda i: i % 3), InfSeq(lambda i: 2 * i + 1)):
        _agrees_with_reference(e, alpha)


# A chain of reads at distinct points of ``g``, nested past the bound on
# an expression's depth, so that it needs temporaries.
_LONG_CHAIN = "(%s)" % " + ".join("g(%d)" % i
                                  for i in range(1, 2 * _MAX_NESTING))


@pytest.mark.parametrize("text", [
    "g(0) + %s", "if g(0) < %s then 1 else 0", "if g(0) < 1 then %s else 0",
    "if g(0) < 1 then 0 else %s", "if g(0) < 1 and %s < 5 then 1 else 0",
    "if g(0) < 1 or %s < 5 then 1 else 0",
], ids=["plus", "less", "then", "else", "and", "or"])
def test_a_later_operand_that_needs_temporaries_keeps_its_reads(text):
    # Run ahead of the statement, its temporaries would read ``g`` before
    # the operand to its left does, or on a path that does not read it.
    e = parse(text % _LONG_CHAIN)
    for alpha in (InfSeq(lambda i: i % 2), InfSeq(lambda i: (i + 1) % 2)):
        _agrees_with_reference(e, alpha)


def test_each_generated_function_holds_at_most_one_loop(
        default_recursion_limit):
    # Each binder is the loop of a function of its own, and ``least`` and
    # ``greatest`` return from it.
    rng = random.Random(35)
    terms = [gen.gen_hexpr(rng, depth=4) for _ in range(300)]
    terms += [parse(_binders(MAX_DEPTH - 2)), _PYTHON_WORDS]
    for e in terms:
        for function in ast.parse(_source(e)[0]).body:
            nodes = list(ast.walk(function))
            assert sum(isinstance(node, ast.For) for node in nodes) <= 1
            assert not any(isinstance(node, ast.Break) for node in nodes)


def test_numeral_too_long_to_print_compiles(default_recursion_limit):
    # Longer than ``str`` converts, so only a directly built term holds
    # it: it is bound as a constant, never printed into the source.
    big = 10 ** 5000
    assert as_functional(Nat(big))(InfSeq.constant(1)) == big
    e = BinOp("+", Nat(big), Gamma(Nat(0)))
    assert as_functional(e)(InfSeq.constant(1)) == big + 1
    assert len(_source(e)[0]) < 100


# Binders named like Python keywords and builtins.
_PYTHON_WORDS = parse(
    "sum for < 3 : sum range < for + 1 : prod lambda < 2 : sum is < 2 : "
    "least return <= 3 st g(return) = lambda + range + is "
    "else (greatest in <= for st in != g(is) else for)")


def test_binders_may_be_named_like_python_words(default_recursion_limit):
    for alpha in (InfSeq.constant(1), InfSeq(lambda i: i % 3)):
        _agrees_with_reference(_PYTHON_WORDS, alpha)


_EMITTED_KEYWORDS = {"def", "return", "for", "in", "if", "else", "break",
                     "and", "or", "not"}


def test_generated_source_names_nothing_from_the_term(
        default_recursion_limit):
    rng = random.Random(34)
    terms = [gen.gen_hexpr(rng, depth=4) for _ in range(100)]
    terms += [_PYTHON_WORDS, parse(_binders(30)),
              BinOp("+", Nat(2 ** 70), Nat(1))]
    for e in terms:
        for tok in tokenize.generate_tokens(io.StringIO(
                _source(e)[0]).readline):
            if tok.type == tokenize.NAME:
                assert (re.fullmatch(r"_[dgr]|_[fvtk][0-9]+", tok.string)
                        or tok.string in _EMITTED_KEYWORDS), tok.string
