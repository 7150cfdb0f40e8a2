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
finitely many points per evaluation.
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

    def parse_expr(self, scope: frozenset) -> Expr:
        left = self.parse_term(scope)
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            left = BinOp(op, left, self.parse_term(scope))
        return left

    def parse_term(self, scope: frozenset) -> Expr:
        left = self.parse_factor(scope)
        while self.peek()[0] == "*":
            self.advance()
            left = BinOp("*", left, self.parse_factor(scope))
        return left

    def parse_factor(self, scope: frozenset) -> Expr:
        left = self.parse_atom(scope)
        while self.peek()[0] == "^":
            self.advance()
            left = BinOp("^", left, self.parse_atom(scope))
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
            return Not(self.parse_cond(scope))
        left: Cond = self.parse_ccmp(scope)
        while self.peek()[0] in ("and", "or"):
            op = self.advance()[0]
            right = self.parse_ccmp(scope)
            left = And(left, right) if op == "and" else Or(left, right)
        return left

    def parse_ccmp(self, scope: frozenset) -> Cond:
        left = self.parse_expr(scope)
        kind = self.peek()[0]
        if kind not in ("<", "<=", "=", "!="):
            raise self.error(("<", "<=", "=", "!="))
        self.advance()
        return Cmp(kind, left, self.parse_expr(scope))


def parse(text: str) -> Expr:
    """Parse a closed term; raise ``ParseError`` on bad syntax and
    ``UnboundVariable`` on a variable with no enclosing binder."""
    p = _Parser(text)
    e = p.parse_expr(frozenset())
    p.expect("EOF")
    return e


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
        left = eval_expr(e.left, gamma, env)
        right = eval_expr(e.right, gamma, env)
        if e.op == "+":
            return left + right
        if e.op == "-":
            return left - right if left > right else 0
        if e.op == "*":
            return left * right
        return left ** right
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


def eval_cond(c: Cond, gamma: InfSeq, env: dict) -> bool:
    if isinstance(c, Cmp):
        left = eval_expr(c.left, gamma, env)
        right = eval_expr(c.right, gamma, env)
        return {"<": left < right, "<=": left <= right,
                "=": left == right, "!=": left != right}[c.op]
    if isinstance(c, And):
        return eval_cond(c.left, gamma, env) and eval_cond(c.right, gamma, env)
    if isinstance(c, Or):
        return eval_cond(c.left, gamma, env) or eval_cond(c.right, gamma, env)
    if isinstance(c, Not):
        return not eval_cond(c.cond, gamma, env)
    raise TypeError("not a condition node: %r" % (c,))


def as_functional(e: Expr) -> Callable[[InfSeq], int]:
    """Package a closed term as a reusable pure functional."""
    return lambda gamma: eval_expr(e, gamma)


def _atomized(e: Expr) -> str:
    text = to_text(e)
    if isinstance(e, (Nat, Var, Gamma)):
        return text
    return "(%s)" % text


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
        return "%s %s %s" % (_atomized(e.left), e.op, _atomized(e.right))
    if isinstance(e, (Prod, Sum)):
        word = "prod" if isinstance(e, Prod) else "sum"
        return "%s %s < %s : %s" % (word, e.var, to_text(e.bound),
                                    to_text(e.body))
    if isinstance(e, (Least, Greatest)):
        word = "least" if isinstance(e, Least) else "greatest"
        return "%s %s <= %s st %s else %s" % (
            word, e.var, to_text(e.bound), cond_to_text(e.cond),
            _atomized(e.orelse))
    if isinstance(e, If):
        return "if %s then %s else %s" % (
            cond_to_text(e.cond), _atomized(e.then), _atomized(e.orelse))
    raise TypeError("not an expression node: %r" % (e,))


def cond_to_text(c: Cond) -> str:
    """Print a condition.  The grammar only derives left-nested and/or
    chains with ``not`` at the head, so other shapes are rejected."""
    if isinstance(c, Not):
        return "not %s" % cond_to_text(c.cond)
    if isinstance(c, Cmp):
        return "%s %s %s" % (_atomized(c.left), c.op, _atomized(c.right))
    if isinstance(c, (And, Or)):
        if isinstance(c.right, (And, Or, Not)):
            raise ValueError("condition is not grammar-derivable: %r" % (c,))
        word = "and" if isinstance(c, And) else "or"
        return "%s %s %s" % (cond_to_text(c.left), word,
                             cond_to_text(c.right))
    raise TypeError("not a condition node: %r" % (c,))
