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

``as_functional`` emits Python source for the whole term and passes it
to ``compile()`` once.  Each ``g(e)`` is a call of ``gamma`` and each
``if``, ``and`` and ``or`` Python's own lazy form.  Each binder is the
body of a generated function of its own, a ``for`` loop over a local
variable that ``least`` and ``greatest`` return from: the term's own
function when the binder is the whole term, and a call anywhere else.
So evaluating a term walks no syntax tree, and a term with no binder but
at its root runs in one frame, as the ``prod`` and ``leastinc``
renderings of the case study do.  What costs frames is a read of
``gamma``, which runs the sequence's own function, a binder anywhere but
at the root, which costs a call each time it runs, and an expression too
deep for one line (see ``_MAX_NESTING``), which becomes a call of a
function that returns it.  A chain of operators or of ``and``/``or``
too long for one line costs one call however long it is: its function
keeps the value so far in temporaries.  Compiling is the price: 0.2-0.3
ms per small term on CPython 3.11, several times what building a
closure per syntax node costs, which a solve's thousands of evaluations
repay.  ``checks.evaluate`` walks the syntax tree instead: the same
semantics written apart from the compiler, which the checks hold it to.
"""

from __future__ import annotations

import re
import sys
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

# Binary operators by precedence, loosest first.
_BINARY = (("+", "-"), ("*",), ("^",))
_PREC = {op: prec for prec, ops in enumerate(_BINARY) for op in ops}

# Atoms that extend as far to the right as they can.  As an operand of a
# binary operator or a comparison the printer puts them in parentheses.
_GREEDY = (Fold, Search, If)
_GREEDY_HEADS = ("prod", "sum", "least", "greatest", "if")
_ATOM_HEADS = ("NAT", "IDENT", "g", "(") + _GREEDY_HEADS

# The deepest nesting ``parse`` accepts.  Each atom (a parenthesised term
# included) and each ``not`` is one level, and a greedy atom that is an
# operand without parentheses is one more, for the parentheses the
# printer adds; so every term ``parse`` accepts prints within the bound.
# Operator and connective chains are no deeper than their operands: they
# are parsed, emitted, evaluated and printed in loops.  The costliest
# construct is a parenthesised ``if`` in the condition of the next, eleven
# parser frames for its two levels, so a term at the bound parses within
# the default recursion limit of 1,000.  Emitting a term's source takes
# at most four frames per level, for a ``g(1 - g(...))`` nest, and printing
# it fewer than parsing; the compiled term runs in one frame, plus one per
# generated function it calls.
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
            try:
                return Nat(int(text))
            except ValueError:
                # Longer than the interpreter reads a decimal int from.
                raise ParseError(offset, ("numeral of at most %d digits"
                                          % sys.get_int_max_str_digits(),),
                                 "numeral of %d digits" % len(text)) from None
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
        if kind not in CMP_OPS:
            raise self.error(CMP_OPS)
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


# Python precedence levels of the generated source, loosest first: a
# conditional expression, ``or``, ``and``, ``not``, a comparison, ``+``,
# ``*``, ``**``, and an atom (a name, a numeral, a call or a parenthesised
# expression).
_ATOM = 8
# Each arithmetic operator as a template over the source of its operands,
# the precedence of the result, the least precedence each operand takes
# without parentheses, and how many levels each operand nests below the
# result (see ``_MAX_NESTING``).  ``^`` associates to the left as ``**``
# does not.  Subtraction is truncated through ``_d``, which holds the
# difference, so each operand is evaluated once.  One name serves every
# subtraction: nothing is evaluated between its assignment and its read.
_ARITH = {"+": ("%s + %s", 5, 5, 6, 1),
          "-": ("(0 if (_d := %s - %s) < 0 else _d)", _ATOM, 5, 6, 3),
          "*": ("%s * %s", 6, 6, 7, 1),
          "^": ("%s ** %s", 7, _ATOM, 7, 1)}
# ``and`` and ``or`` in the same form: with the operators, the links of a
# chain (see ``_Emitter.chain``).
_LINKS = {**_ARITH, "and": ("%s and %s", 2, 2, 3, 1),
          "or": ("%s or %s", 1, 1, 2, 1)}
_CMP = {"<": "<", "<=": "<=", "=": "==", "!=": "!="}
ARITH_OPS = tuple(_ARITH)
CMP_OPS = tuple(_CMP)
# The unit and operator of each fold.
_FOLD = {"prod": ("1", "*"), "sum": ("0", "+")}

# The deepest an expression nests before it becomes a call of a function
# that returns it, or, inside a chain, before the chain's value so far
# goes to a temporary.  A level is a pair of parentheses or a node of
# Python's syntax tree: each call, operator, comparison, connective and
# ``if`` nests its operands one level below it, in parentheses or not, and
# a subtraction nests them three, its two pairs of parentheses and one
# more an operand may need.  So no line opens more than
# ``_MAX_NESTING + 3`` parentheses, well within the 200 CPython's
# tokenizer allows, no line's syntax tree is deeper than its compiler
# takes, a chain of any length compiles in chunks, and an ``if`` chain as
# deep as ``parse`` accepts, one level per ``if``, stays one expression.
_MAX_NESTING = 120


def _spine(e, kind: type) -> tuple:
    """The head of a left-nested chain of ``kind`` nodes and its links,
    innermost first."""
    links = []
    while isinstance(e, kind):
        links.append(e)
        e = e.left
    return e, links[::-1]


def _wrap(x: tuple, prec: int) -> str:
    """The source of expression ``x`` as an operand that needs precedence
    ``prec``."""
    return x[0] if x[1] >= prec else "(%s)" % x[0]


class _Emitter:
    """Python source for a term, as functions of ``_g`` and the variables
    in scope.  Each binder is the body of a function of its own, a ``for``
    loop that ``least`` and ``greatest`` return from, so a function holds
    at most one loop.  Each expression is returned as its source, its
    precedence and how deep it nests, and no statement is ever emitted
    ahead of it: an expression too deep for one line becomes a call of a
    function that returns it, which runs where the expression would, so
    the points of ``gamma`` are read in the term's order and only when the
    term reads them.  The only assignments are a fold's accumulator and
    the temporaries of a chain too long for one line (see ``chain``).
    Every name in the source is generated: ``_g`` for the argument
    sequence, ``_r`` for ``range``, ``_d`` for a difference (see
    ``_ARITH``) and ``_`` plus a letter and a counter for functions
    (``f``), variables (``v``), temporaries (``t``) and numerals too large
    to print (``k``).  So no text of the term reaches the source except
    numerals."""

    def __init__(self):
        self.defs = []
        self.consts = {"_r": range}
        self.count = 0

    def fresh(self, kind: str) -> str:
        self.count += 1
        return "_%s%d" % (kind, self.count)

    def define(self, lines: list, scope: dict) -> str:
        """Define a function of ``_g`` and the variables of ``scope`` with
        the body ``lines``, and return its name."""
        name = self.fresh("f")
        self.defs.append("def %s(%s):\n%s" % (
            name, ", ".join(("_g", *scope.values())),
            "".join("    %s\n" % line for line in lines)))
        return name

    def call(self, lines: list, scope: dict) -> tuple:
        """A call of a function of its own with the body ``lines``."""
        return "%s(%s)" % (self.define(lines, scope),
                           ", ".join(("_g", *scope.values()))), _ATOM, 1

    def body(self, e, scope: dict) -> list:
        """The body of a function that returns the value of ``e``: a
        binder's loop, or one ``return``."""
        if isinstance(e, Fold):
            return self.fold(e, scope)
        if isinstance(e, Search):
            return self.search(e, scope)
        return ["return " + self.expr(e, scope)[0]]

    def nest(self, scope: dict, value: str, prec: int, levels: int,
             *operands: tuple) -> tuple:
        """The expression ``value``, ``levels`` deeper than the deepest of
        its ``operands``, or a call that returns it if that is too deep."""
        depth = levels + max(x[2] for x in operands)
        if depth > _MAX_NESTING:
            return self.call(["return " + value], scope)
        return value, prec, depth

    def expr(self, e, scope: dict) -> tuple:
        """The expression of term or condition ``e``; ``scope`` maps each
        variable to its generated name."""
        kind = type(e)
        if kind is Fold or kind is Search:
            return self.call(self.body(e, scope), scope)
        if kind not in _EMIT:
            raise TypeError("not a term or condition node: %r" % (e,))
        return _EMIT[kind](self, e, scope)

    def nat(self, e: Nat, scope: dict) -> tuple:
        if type(e.value) is int and 0 <= e.value < 1 << 64:
            return str(e.value), _ATOM, 0
        k = self.fresh("k")
        self.consts[k] = e.value
        return k, _ATOM, 0

    def var(self, e: Var, scope: dict) -> tuple:
        if e.name not in scope:
            raise ValueError("unbound variable %r" % (e.name,))
        return scope[e.name], _ATOM, 0

    def gamma(self, e: Gamma, scope: dict) -> tuple:
        arg = self.expr(e.arg, scope)
        return self.nest(scope, "_g(%s)" % arg[0], _ATOM, 1, arg)

    def chain(self, e, scope: dict) -> tuple:
        """A left-nested chain of operators or of ``and``/``or``, emitted
        in a loop; ``and`` and ``or`` read their right side only when the
        value so far does not decide it.  Where a link would nest past
        ``_MAX_NESTING``, the value so far goes to a temporary instead,
        and a chain with temporaries is a call of a function that assigns
        them in turn: a chain of any length runs in one frame."""
        head, links = _spine(e, type(e))
        acc = self.expr(head, scope)
        lines = []
        for link in links:
            template, prec, left, right, levels = _LINKS[link.op]
            b = self.expr(link.right, scope)
            value = template % (_wrap(acc, left), _wrap(b, right))
            acc = value, prec, levels + max(acc[2], b[2])
            if acc[2] > _MAX_NESTING:
                acc = self.fresh("t"), _ATOM, 0
                lines.append("%s = %s" % (acc[0], value))
        if lines:
            return self.call(lines + ["return " + acc[0]], scope)
        return acc

    def fold(self, e: Fold, scope: dict) -> list:
        unit, op = _FOLD[e.op]
        bound = self.expr(e.bound, scope)
        acc, var = self.fresh("t"), self.fresh("v")
        value = self.expr(e.body, {**scope, e.var: var})
        return ["%s = %s" % (acc, unit), "for %s in _r(%s):" % (var, bound[0]),
                "    %s = %s %s %s" % (acc, acc, op,
                                       _wrap(value, _ARITH[op][3])),
                "return " + acc]

    def search(self, e: Search, scope: dict) -> list:
        bound = self.expr(e.bound, scope)
        var = self.fresh("v")
        cond = self.expr(e.cond, {**scope, e.var: var})
        if e.op == "least":
            loop = "for %s in _r(%s + 1):" % (var, _wrap(bound, 5))
        else:
            loop = "for %s in _r(%s, -1, -1):" % (var, bound[0])
        return [loop, "    if %s:" % cond[0], "        return " + var,
                "return " + self.expr(e.orelse, scope)[0]]

    def if_(self, e: If, scope: dict) -> tuple:
        cond = self.expr(e.cond, scope)
        then, orelse = self.expr(e.then, scope), self.expr(e.orelse, scope)
        return self.nest(scope, "%s if %s else %s" % (
            _wrap(then, 1), _wrap(cond, 1), orelse[0]), 0, 1,
            then, cond, orelse)

    def cmp(self, e: Cmp, scope: dict) -> tuple:
        left, right = self.expr(e.left, scope), self.expr(e.right, scope)
        return self.nest(scope, "%s %s %s" % (
            _wrap(left, 5), _CMP[e.op], _wrap(right, 5)), 4, 1, left, right)

    def not_(self, e: Not, scope: dict) -> tuple:
        cond = self.expr(e.cond, scope)
        return self.nest(scope, "not %s" % _wrap(cond, 3), 3, 1, cond)


_EMIT = {Nat: _Emitter.nat, Var: _Emitter.var, Gamma: _Emitter.gamma,
         BinOp: _Emitter.chain, If: _Emitter.if_, Cmp: _Emitter.cmp,
         Not: _Emitter.not_, Conn: _Emitter.chain}


def _source(e: Expr) -> tuple:
    """The generated source of ``e``, the constants it reads and the name
    of the function it defines for ``e``."""
    emitter = _Emitter()
    name = emitter.define(emitter.body(e, {}), {})
    return "".join(emitter.defs), emitter.consts, name


def as_functional(e: Expr) -> Callable[[InfSeq], int]:
    """Compile a closed term once into a reusable pure functional: Python
    source for the whole term, passed to ``compile()`` once, where each
    binder is a ``for`` loop over a local variable.  Each call runs in a
    frame of its own, so the functional stays re-entrant when a read of
    ``gamma`` calls it again."""
    source, namespace, name = _source(e)
    exec(compile(source, "<hdsl>", "exec"), namespace)
    return namespace[name]


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
        # Printed along the left spine without recursing on it, as
        # ``_Emitter.chain`` emits it, so a chain's length costs no stack.
        head, links = _spine(c, Conn)
        if any(isinstance(link.right, (Conn, Not)) for link in links):
            raise ValueError("condition is not grammar-derivable: %r" % (c,))
        return cond_to_text(head) + "".join(
            " %s %s" % (link.op, cond_to_text(link.right)) for link in links)
    raise TypeError("not a condition node: %r" % (c,))
