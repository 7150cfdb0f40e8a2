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

``as_functional`` compiles a term once into nested closures, with each
binder variable in a slot fixed at compile time, so evaluating it walks
no syntax tree.  Operator and ``and``/``or`` chains compile to one
closure that folds them in a loop, so a chain of any length costs no
stack.
"""

from __future__ import annotations

import operator
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


# Expression nodes.  One class per syntactic form; a form with more than
# one keyword holds its keyword in ``op``.

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
class Fold(Expr):
    """The ``prod`` or ``sum`` (``op``) of ``body`` over ``var < bound``."""
    op: str
    var: str
    bound: Expr
    body: Expr


@dataclass(frozen=True)
class Search(Expr):
    """The ``least`` or ``greatest`` (``op``) ``var <= bound`` satisfying
    ``cond``, else ``orelse``."""
    op: str
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
class Conn(Cond):
    """``left and right`` or ``left or right`` (``op``)."""
    op: str
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
_GREEDY = (Fold, Search, If)
_GREEDY_HEADS = ("prod", "sum", "least", "greatest", "if")

# The deepest nesting ``parse`` accepts.  Each atom (a parenthesised term
# included) and each ``not`` is one level, and a greedy atom that is an
# operand without parentheses is one more, for the parentheses the
# printer adds; so every term ``parse`` accepts prints within the bound.
# Operator and connective chains are no deeper than their operands: they
# are parsed, compiled, evaluated and printed in loops.  The costliest
# construct is a parenthesised ``if`` in the condition of the next, eleven
# parser frames for its two levels, so a term at the bound parses within
# the default recursion limit of 1,000.  Compiling or evaluating a term
# takes at most two frames per level, and printing it fewer than parsing.
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
        if kind in ("prod", "sum", "least", "greatest"):
            fold = kind in ("prod", "sum")
            self.advance()
            name = self.expect("IDENT")[1]
            self.expect("<" if fold else "<=")
            bound = self.parse_expr(scope)
            inner = scope | {name}
            if fold:
                self.expect(":")
                return Fold(kind, name, bound, self.parse_expr(inner))
            self.expect("st")
            cond = self.parse_cond(inner)
            self.expect("else")
            return Search(kind, name, bound, cond, self.parse_expr(scope))
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
            left = Conn(op, left, self.parse_ccmp(scope))
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


_ARITH = {"+": operator.add, "-": lambda a, b: a - b if a > b else 0,
          "*": operator.mul, "^": operator.pow}
_CMP = {"<": operator.lt, "<=": operator.le, "=": operator.eq,
        "!=": operator.ne}
# The operator of each fold and its unit.
_FOLD = {"prod": (operator.mul, 1), "sum": (operator.add, 0)}


def _spine(e, kind: type) -> tuple:
    """The head of a left-nested chain of ``kind`` nodes and its links,
    innermost first."""
    links = []
    while isinstance(e, kind):
        links.append(e)
        e = e.left
    return e, links[::-1]


def _slot(scope: tuple, name: str) -> int:
    """The slot of the innermost binder of ``name``."""
    return len(scope) - 1 - scope[::-1].index(name)


def _compile(e: Expr, scope: tuple, width: list) -> Callable:
    """``e`` as a closure ``(gamma, slots) -> int``.  ``scope`` names the
    variable held in each slot, outermost binder first; ``width[0]``
    grows to the number of slots the whole term needs."""
    if isinstance(e, Nat):
        value = e.value
        return lambda g, s: value
    if isinstance(e, Var):
        slot = _slot(scope, e.name)
        return lambda g, s: s[slot]
    if isinstance(e, Gamma):
        # ``g(i)``, the commonest read, takes its slot without a call.
        if isinstance(e.arg, Var):
            slot = _slot(scope, e.arg.name)
            return lambda g, s: g(s[slot])
        arg = _compile(e.arg, scope, width)
        return lambda g, s: g(arg(g, s))
    if isinstance(e, BinOp):
        head, links = _spine(e, BinOp)
        head = _compile(head, scope, width)
        pairs = [(_ARITH[link.op], _compile(link.right, scope, width))
                 for link in links]
        if len(pairs) == 1:
            (op, right), = pairs
            # Likewise the numeral of ``i + 1``.
            if isinstance(links[0].right, Nat):
                value = links[0].right.value
                return lambda g, s: op(head(g, s), value)
            return lambda g, s: op(head(g, s), right(g, s))

        def fold_chain(g, s):
            acc = head(g, s)
            for op, operand in pairs:
                acc = op(acc, operand(g, s))
            return acc
        return fold_chain
    if isinstance(e, (Fold, Search)):
        slot = len(scope)
        width[0] = max(width[0], slot + 1)
        bound = _compile(e.bound, scope, width)
        inner = scope + (e.var,)
        if isinstance(e, Fold):
            body = _compile(e.body, inner, width)
            op, acc0 = _FOLD[e.op]

            def fold_range(g, s):
                acc = acc0
                for i in range(bound(g, s)):
                    s[slot] = i
                    acc = op(acc, body(g, s))
                return acc
            return fold_range
        cond = _compile_cond(e.cond, inner, width)
        orelse = _compile(e.orelse, scope, width)
        least = e.op == "least"

        def search(g, s):
            top = bound(g, s)
            for i in range(top + 1) if least else range(top, -1, -1):
                s[slot] = i
                if cond(g, s):
                    return i
            return orelse(g, s)
        return search
    if isinstance(e, If):
        cond = _compile_cond(e.cond, scope, width)
        then = _compile(e.then, scope, width)
        orelse = _compile(e.orelse, scope, width)
        return lambda g, s: then(g, s) if cond(g, s) else orelse(g, s)
    raise TypeError("not an expression node: %r" % (e,))


def _compile_cond(c: Cond, scope: tuple, width: list) -> Callable:
    """``c`` as a closure ``(gamma, slots) -> bool``, like ``_compile``."""
    if isinstance(c, Cmp):
        op = _CMP[c.op]
        left = _compile(c.left, scope, width)
        right = _compile(c.right, scope, width)
        return lambda g, s: op(left(g, s), right(g, s))
    if isinstance(c, Not):
        inner = _compile_cond(c.cond, scope, width)
        return lambda g, s: not inner(g, s)
    if isinstance(c, Conn):
        head, links = _spine(c, Conn)
        head = _compile_cond(head, scope, width)
        pairs = [(link.op == "and", _compile_cond(link.right, scope, width))
                 for link in links]
        if len(pairs) == 1:
            (is_and, right), = pairs
            if is_and:
                return lambda g, s: head(g, s) and right(g, s)
            return lambda g, s: head(g, s) or right(g, s)

        def fold_chain(g, s):
            acc = head(g, s)
            for is_and, right in pairs:
                # The right side decides only after a true left side
                # under ``and`` and after a false one under ``or``.
                if acc == is_and:
                    acc = right(g, s)
            return acc
        return fold_chain
    raise TypeError("not a condition node: %r" % (c,))


def as_functional(e: Expr) -> Callable[[InfSeq], int]:
    """Compile a closed term once into a reusable pure functional: nested
    closures ``(gamma, slots) -> int`` with chains folded in loops, where
    the variable of the binder ``d`` levels deep reads ``slots[d]``.  Each
    call allocates its own slots, so the functional stays re-entrant when
    a read of ``gamma`` calls it again."""
    width = [0]
    f = _compile(e, (), width)
    k = width[0]
    return lambda gamma: f(gamma, [0] * k)


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
    if isinstance(e, Fold):
        return "%s %s < %s : %s" % (e.op, e.var, to_text(e.bound),
                                    to_text(e.body))
    if isinstance(e, Search):
        return "%s %s <= %s st %s else %s" % (
            e.op, e.var, to_text(e.bound), cond_to_text(e.cond),
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
    if isinstance(c, Conn):
        # Printed in a loop along the left spine, like an operator chain.
        tail = []
        while isinstance(c, Conn):
            if isinstance(c.right, (Conn, Not)):
                raise ValueError(
                    "condition is not grammar-derivable: %r" % (c,))
            tail.append(" %s %s" % (c.op, cond_to_text(c.right)))
            c = c.left
        return cond_to_text(c) + "".join(reversed(tail))
    raise TypeError("not a condition node: %r" % (c,))
