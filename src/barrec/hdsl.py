"""A small expression language for control functionals on sequences.

A term denotes a natural number and may query the argument sequence
``gamma`` through ``g(e)``.  The surface grammar:

    expr   := term (("+" | "-") term)*
    term   := factor ("*" factor)*
    factor := atom ("^" atom)*
    atom   := NAT | IDENT | "g" "(" expr ")" | "(" expr ")"
            | "prod" IDENT "<" expr ":" expr
            | "sum" IDENT "<" expr ":" expr
            | "least" IDENT "<=" expr "st" cond "else" expr
            | "greatest" IDENT "<=" expr "st" cond "else" expr
            | "if" cond "then" expr "else" expr
    cond   := ccmp (("and" | "or") ccmp)* | "not" cond
    ccmp   := expr ("<" | "<=" | "=" | "!=") expr

Whitespace is insignificant, NAT is decimal, IDENT is ``[a-z][a-z0-9]*``
excluding keywords.  Binary operators associate to the left within a
precedence level.  Subtraction is truncated at zero, ``0 ^ 0 = 1``, and
``prod``/``sum`` bounds are exclusive while ``least``/``greatest`` bounds
are inclusive with the ``else`` branch taken when no index satisfies the
condition.  There is no recursion and no unbounded search, so every
closed term denotes a total functional that inspects ``gamma`` at
finitely many points per evaluation.  ``parse`` refuses terms nested more
than ``MAX_DEPTH`` levels deep.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

from .pfun import InfSeq


class ParseError(ValueError):
    """Syntax error, carrying the byte offset and the expected tokens."""

    def __init__(self, offset: int, expected: tuple, found: str):
        self.offset = offset
        self.expected = tuple(sorted(expected))
        self.found = found
        super().__init__("at offset %d: expected %s, found %r"
                         % (offset, " | ".join(self.expected), found))


class UnboundVariable(ValueError):
    """A variable occurrence with no enclosing binder for its name."""

    def __init__(self, name: str, offset: int):
        self.name = name
        self.offset = offset
        super().__init__("unbound variable %r at offset %d" % (name, offset))


# Expression nodes.

class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Nat(Expr):
    value: int


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Gamma(Expr):
    arg: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Prod(Expr):
    var: str
    bound: Expr
    body: Expr


@dataclass(frozen=True)
class Sum(Expr):
    var: str
    bound: Expr
    body: Expr


@dataclass(frozen=True)
class Least(Expr):
    var: str
    bound: Expr
    cond: "Cond"
    orelse: Expr


@dataclass(frozen=True)
class Greatest(Expr):
    var: str
    bound: Expr
    cond: "Cond"
    orelse: Expr


@dataclass(frozen=True)
class If(Expr):
    cond: "Cond"
    then: Expr
    orelse: Expr


# Condition nodes.

class Cond:
    __slots__ = ()


@dataclass(frozen=True)
class Cmp(Cond):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class And(Cond):
    left: Cond
    right: Cond


@dataclass(frozen=True)
class Or(Cond):
    left: Cond
    right: Cond


@dataclass(frozen=True)
class Not(Cond):
    cond: Cond


KEYWORDS = frozenset(("g", "prod", "sum", "least", "greatest", "st", "else",
                      "if", "then", "and", "or", "not"))

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([a-z][a-z0-9]*)|(<=|!=|[-+*^():<=]))")

_ATOM_HEADS = ("NAT", "IDENT", "g", "(", "prod", "sum", "least", "greatest",
               "if")

# Binary operators by precedence, loosest first.
_BINARY = (("+", "-"), ("*",), ("^",))
_PREC = {op: prec for prec, ops in enumerate(_BINARY) for op in ops}

# Atoms that extend as far to the right as they can.  As an operand of a
# binary operator or a comparison the printer puts them in parentheses.
_GREEDY = (Prod, Sum, Least, Greatest, If)
_GREEDY_HEADS = ("prod", "sum", "least", "greatest", "if")

# The deepest nesting ``parse`` accepts.  Each atom (a parenthesised term
# included) and each ``not`` is one level, and a greedy atom that is an
# operand without parentheses is one more, for the parentheses the
# printer adds; so every term ``parse`` accepts prints within the bound.
# Operator and connective chains are no deeper than their operands: they
# are parsed, evaluated and printed in loops.  The costliest construct is
# a parenthesised ``if`` in the condition of the next, eleven parser
# frames for its two levels, so a term at the bound parses within the
# default recursion limit of 1,000; evaluating or printing it takes fewer
# frames per level.
MAX_DEPTH = 100


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            offset = len(text) - len(stripped)
            raise ParseError(offset, ("token",), stripped[0])
        nat, ident, sym = m.group(1), m.group(2), m.group(3)
        offset = m.end() - len(m.group(1) or m.group(2) or m.group(3))
        if nat is not None:
            tokens.append(("NAT", nat, offset))
        elif ident is not None:
            kind = ident if ident in KEYWORDS else "IDENT"
            tokens.append((kind, ident, offset))
        else:
            tokens.append((sym, sym, offset))
        pos = m.end()
    tokens.append(("EOF", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        # Levels open above the current token.
        self.depth = 0

    def peek(self) -> tuple:
        return self.tokens[self.pos]

    def advance(self) -> tuple:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple:
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(tok[2], (kind,), tok[1] or "end of input")
        return self.advance()

    def error(self, expected: tuple) -> ParseError:
        tok = self.peek()
        return ParseError(tok[2], expected, tok[1] or "end of input")

    def enter(self, levels: int = 1) -> None:
        """Open ``levels`` levels; past ``MAX_DEPTH`` that is a
        ``ParseError`` at the current token."""
        self.depth += levels
        if self.depth > MAX_DEPTH:
            raise self.error(("nesting at most %d deep" % MAX_DEPTH,))

    def parse_expr(self, scope: frozenset, prec: int = 0,
                   operand: bool = False) -> Expr:
        """A left-nested chain of the operators ``_BINARY[prec]`` over
        operands of the next tighter precedence; past the tightest, an
        atom one level below the open ones.  If the term is an
        ``operand`` of a binary operator or a comparison and the atom at
        its head is greedy, the atom costs a level more, for the
        parentheses the printer puts around it."""
        if prec == len(_BINARY):
            levels = 1 + (operand and self.peek()[0] in _GREEDY_HEADS)
            self.enter(levels)
            atom = self.parse_atom(scope)
            self.depth -= levels
            return atom
        left = self.parse_expr(scope, prec + 1, operand)
        while self.peek()[0] in _BINARY[prec]:
            op = self.advance()[0]
            left = BinOp(op, left, self.parse_expr(scope, prec + 1, True))
        return left

    def parse_binder_head(self, relation: str) -> tuple:
        name = self.expect("IDENT")[1]
        self.expect(relation)
        return name

    def parse_atom(self, scope: frozenset) -> Expr:
        kind, text, offset = self.peek()
        if kind == "NAT":
            self.advance()
            return Nat(int(text))
        if kind == "IDENT":
            self.advance()
            if text not in scope:
                raise UnboundVariable(text, offset)
            return Var(text)
        if kind == "g":
            self.advance()
            self.expect("(")
            arg = self.parse_expr(scope)
            self.expect(")")
            return Gamma(arg)
        if kind == "(":
            self.advance()
            inner = self.parse_expr(scope)
            self.expect(")")
            return inner
        if kind in ("prod", "sum"):
            self.advance()
            name = self.parse_binder_head("<")
            bound = self.parse_expr(scope)
            self.expect(":")
            body = self.parse_expr(scope | {name})
            return (Prod if kind == "prod" else Sum)(name, bound, body)
        if kind in ("least", "greatest"):
            self.advance()
            name = self.parse_binder_head("<=")
            bound = self.parse_expr(scope)
            self.expect("st")
            cond = self.parse_cond(scope | {name})
            self.expect("else")
            orelse = self.parse_expr(scope)
            return (Least if kind == "least" else Greatest)(
                name, bound, cond, orelse)
        if kind == "if":
            self.advance()
            cond = self.parse_cond(scope)
            self.expect("then")
            then = self.parse_expr(scope)
            self.expect("else")
            orelse = self.parse_expr(scope)
            return If(cond, then, orelse)
        raise self.error(_ATOM_HEADS)

    def parse_cond(self, scope: frozenset) -> Cond:
        if self.peek()[0] == "not":
            self.advance()
            self.enter()
            cond = self.parse_cond(scope)
            self.depth -= 1
            return Not(cond)
        left: Cond = self.parse_ccmp(scope)
        while self.peek()[0] in ("and", "or"):
            op = self.advance()[0]
            right = self.parse_ccmp(scope)
            left = And(left, right) if op == "and" else Or(left, right)
        return left

    def parse_ccmp(self, scope: frozenset) -> Cond:
        left = self.parse_expr(scope, operand=True)
        kind = self.peek()[0]
        if kind not in ("<", "<=", "=", "!="):
            raise self.error(("<", "<=", "=", "!="))
        self.advance()
        return Cmp(kind, left, self.parse_expr(scope, operand=True))


def parse(text: str) -> Expr:
    """Parse a closed term; raise ``ParseError`` on bad syntax or nesting
    deeper than ``MAX_DEPTH``, and ``UnboundVariable`` on a variable with
    no enclosing binder."""
    p = _Parser(text)
    e = p.parse_expr(frozenset())
    p.expect("EOF")
    return e


_ARITH = {"+": lambda a, b: a + b, "-": lambda a, b: a - b if a > b else 0,
          "*": lambda a, b: a * b, "^": lambda a, b: a ** b}


def eval_expr(e: Expr, gamma: InfSeq, env: dict | None = None) -> int:
    """Evaluate a term against the sequence ``gamma``.  Total on closed
    terms; subtraction truncates at zero."""
    env = env or {}
    if isinstance(e, Nat):
        return e.value
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Gamma):
        return gamma(eval_expr(e.arg, gamma, env))
    if isinstance(e, BinOp):
        # A lone operator, the common case, is evaluated here directly;
        # a chain below it is folded in a loop.
        left = e.left
        if isinstance(left, BinOp):
            left = _fold(left, gamma, env)
        else:
            left = eval_expr(left, gamma, env)
        return _ARITH[e.op](left, eval_expr(e.right, gamma, env))
    if isinstance(e, (Prod, Sum)):
        bound = eval_expr(e.bound, gamma, env)
        acc = 1 if isinstance(e, Prod) else 0
        for i in range(bound):
            val = eval_expr(e.body, gamma, {**env, e.var: i})
            acc = acc * val if isinstance(e, Prod) else acc + val
        return acc
    if isinstance(e, (Least, Greatest)):
        bound = eval_expr(e.bound, gamma, env)
        indices = range(bound + 1) if isinstance(e, Least) \
            else range(bound, -1, -1)
        for i in indices:
            if eval_cond(e.cond, gamma, {**env, e.var: i}):
                return i
        return eval_expr(e.orelse, gamma, env)
    if isinstance(e, If):
        branch = e.then if eval_cond(e.cond, gamma, env) else e.orelse
        return eval_expr(branch, gamma, env)
    raise TypeError("not an expression node: %r" % (e,))


def _fold(e: BinOp, gamma: InfSeq, env: dict) -> int:
    """The value of a left-nested operator chain, folded in a loop so that
    the chain's length costs no stack."""
    spine = []
    while isinstance(e, BinOp):
        spine.append(e)
        e = e.left
    acc = eval_expr(e, gamma, env)
    for node in reversed(spine):
        acc = _ARITH[node.op](acc, eval_expr(node.right, gamma, env))
    return acc


def eval_cond(c: Cond, gamma: InfSeq, env: dict) -> bool:
    if isinstance(c, Cmp):
        left = eval_expr(c.left, gamma, env)
        right = eval_expr(c.right, gamma, env)
        return {"<": left < right, "<=": left <= right,
                "=": left == right, "!=": left != right}[c.op]
    if isinstance(c, (And, Or)):
        return _fold_cond(c, gamma, env)
    if isinstance(c, Not):
        return not eval_cond(c.cond, gamma, env)
    raise TypeError("not a condition node: %r" % (c,))


def _fold_cond(c: Cond, gamma: InfSeq, env: dict) -> bool:
    """The value of a left-nested ``and``/``or`` chain, folded in a loop
    like an operator chain."""
    spine = []
    while isinstance(c, (And, Or)):
        spine.append(c)
        c = c.left
    acc = eval_cond(c, gamma, env)
    for node in reversed(spine):
        # The right side decides only after a true left side under
        # ``and`` and after a false one under ``or``.
        if acc == isinstance(node, And):
            acc = eval_cond(node.right, gamma, env)
    return acc


def as_functional(e: Expr) -> Callable[[InfSeq], int]:
    """Package a closed term as a reusable pure functional."""
    return lambda gamma: eval_expr(e, gamma)


def _operand(e: Expr, prec: int) -> str:
    """``e`` as an operand at precedence ``prec``: in parentheses if it is
    greedy or a chain of looser operators."""
    text = to_text(e)
    if isinstance(e, _GREEDY) or isinstance(e, BinOp) and _PREC[e.op] < prec:
        return "(%s)" % text
    return text


def to_text(e: Expr) -> str:
    """Canonical printer; ``parse(to_text(e)) == e`` for every term the
    grammar can produce."""
    if isinstance(e, Nat):
        return str(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Gamma):
        return "g(%s)" % to_text(e.arg)
    if isinstance(e, BinOp):
        # The left spine of operators at least as tight is printed in a
        # loop, without parentheses, so a chain's length costs no stack.
        tail = []
        prec = _PREC[e.op]
        while isinstance(e, BinOp) and _PREC[e.op] >= prec:
            prec = _PREC[e.op]
            tail.append(" %s %s" % (e.op, _operand(e.right, prec + 1)))
            e = e.left
        return _operand(e, prec) + "".join(reversed(tail))
    if isinstance(e, (Prod, Sum)):
        word = "prod" if isinstance(e, Prod) else "sum"
        return "%s %s < %s : %s" % (word, e.var, to_text(e.bound),
                                    to_text(e.body))
    if isinstance(e, (Least, Greatest)):
        word = "least" if isinstance(e, Least) else "greatest"
        return "%s %s <= %s st %s else %s" % (
            word, e.var, to_text(e.bound), cond_to_text(e.cond),
            to_text(e.orelse))
    if isinstance(e, If):
        return "if %s then %s else %s" % (
            cond_to_text(e.cond), to_text(e.then), to_text(e.orelse))
    raise TypeError("not an expression node: %r" % (e,))


def cond_to_text(c: Cond) -> str:
    """Print a condition.  The grammar only derives left-nested and/or
    chains with ``not`` at the head, so other shapes are rejected."""
    if isinstance(c, Not):
        return "not %s" % cond_to_text(c.cond)
    if isinstance(c, Cmp):
        return "%s %s %s" % (_operand(c.left, 0), c.op, _operand(c.right, 0))
    if isinstance(c, (And, Or)):
        # Printed in a loop along the left spine, like an operator chain.
        tail = []
        while isinstance(c, (And, Or)):
            if isinstance(c.right, (And, Or, Not)):
                raise ValueError(
                    "condition is not grammar-derivable: %r" % (c,))
            word = "and" if isinstance(c, And) else "or"
            tail.append(" %s %s" % (word, cond_to_text(c.right)))
            c = c.left
        return cond_to_text(c) + "".join(reversed(tail))
    raise TypeError("not a condition node: %r" % (c,))
