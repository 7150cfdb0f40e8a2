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
to ``compile()`` once.  Each binder is a ``for`` loop over a local
variable, each ``g(e)`` a call of ``gamma`` and each ``if``, ``and`` and
``or`` Python's own lazy form, so evaluating the term walks no syntax
tree and runs in one frame.  What still costs frames is a read of
``gamma``, which runs the sequence's own function, and a subterm nested
deeper than one generated function holds (``_MAX_LOOPS`` binders, or a
statement inside more than ``_MAX_INDENT`` blocks), which becomes a
function of its own and costs a frame per evaluation.  Compiling is the
price: 0.1-0.3 ms per small term on CPython 3.11, several times what
building a closure per syntax node costs, which a solve's thousands of
evaluations repay.
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
# at most three frames per level and printing it fewer than parsing; the
# compiled term runs in one frame, plus one per generated function it
# calls.
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
# the precedence of the result and the least precedence each operand
# takes without parentheses.  ``^`` associates to the left as ``**`` does
# not.  Subtraction is truncated through ``_d``, which holds the
# difference, so each operand is evaluated once.  One name serves every
# subtraction: nothing is evaluated between its assignment and its read.
_ARITH = {"+": ("%s + %s", 5, 5, 6),
          "-": ("(0 if (_d := %s - %s) < 0 else _d)", _ATOM, 5, 6),
          "*": ("%s * %s", 6, 6, 7),
          "^": ("%s ** %s", 7, _ATOM, 7)}
_CMP = {"<": "<", "<=": "<=", "=": "==", "!=": "!="}
ARITH_OPS = tuple(_ARITH)
CMP_OPS = tuple(_CMP)
# The unit and operator of each fold.
_FOLD = {"prod": ("1", "*"), "sum": ("0", "+")}

# Bounds that keep generated source within what CPython compiles: its
# tokenizer allows 200 nested parentheses and 100 levels of indentation,
# and its compiler 20 nested loops in one function.  Each operator, call
# and connective nests its operands one level, in at most two pairs of
# parentheses (subtraction's), and an expression nested deeper than
# ``_MAX_NESTING`` levels is bound to a temporary: no line opens more
# than about 100 parentheses, and a chain of any length compiles in
# chunks.  A statement nests in at most ``_MAX_INDENT`` blocks: a block
# met ``_MAX_INDENT`` levels deep is emitted in place unless one of its
# statements would nest deeper, and then moves into a function of its
# own, as a binder nested deeper than ``_MAX_LOOPS`` does.
_MAX_NESTING = 50
_MAX_INDENT = 48
_MAX_LOOPS = 16


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


class _TooDeep(Exception):
    """A statement would nest in more than ``_MAX_INDENT`` blocks."""


class _Emitter:
    """Python source for a term.  Each expression is returned as its
    source, its precedence and how deep it nests; statements it needs
    first go to ``lines``, the body of the function being emitted.  Every
    name in the source is generated: ``_g`` for the argument sequence,
    ``_r`` for ``range``, ``_d`` for a difference (see ``_ARITH``) and
    ``_`` plus a letter and a counter for functions (``f``), variables
    (``v``), temporaries (``t``) and numerals too large to print (``k``).
    So no text of the term reaches the source except numerals."""

    def __init__(self):
        self.defs = []
        self.consts = {"_r": range}
        self.count = 0
        self.lines = []
        self.indent = 0
        self.loops = 0

    def fresh(self, kind: str) -> str:
        self.count += 1
        return "_%s%d" % (kind, self.count)

    def emit(self, line: str, below: int = 0) -> None:
        """Emit ``line``, ``below`` levels deeper than the statements
        being emitted.  A function body is indented one level, so a line
        indented more than ``_MAX_INDENT + 1`` nests in too many blocks."""
        indent = self.indent + below
        if indent > _MAX_INDENT + 1:
            raise _TooDeep
        self.lines.append("    " * indent + line)

    def function(self, e, scope: dict) -> str:
        """Define a function of ``_g`` and the variables of ``scope`` that
        returns the value of ``e``, and return its name."""
        outer = self.lines, self.indent, self.loops
        self.lines, self.indent, self.loops = [], 1, 0
        value = self.expr(e, scope)[0]
        name = self.fresh("f")
        self.defs.append("def %s(%s):\n%s    return %s\n" % (
            name, ", ".join(("_g", *scope.values())),
            "".join(line + "\n" for line in self.lines), value))
        self.lines, self.indent, self.loops = outer
        return name

    def bind(self, value: str) -> str:
        t = self.fresh("t")
        self.emit("%s = %s" % (t, value))
        return t

    def nest(self, value: str, prec: int, *operands: tuple) -> tuple:
        """The expression ``value`` over ``operands``, bound to a
        temporary if it nests too deep."""
        depth = 1 + max(x[2] for x in operands)
        if depth > _MAX_NESTING:
            return self.bind(value), _ATOM, 0
        return value, prec, depth

    def after(self, first: tuple, e, scope: dict) -> tuple:
        """Emit ``e`` to be evaluated after the expression ``first``.  If
        ``e`` needs statements, ``first`` is bound to a temporary ahead of
        them, so the points of ``gamma`` are still read in order."""
        mark = len(self.lines)
        second = self.expr(e, scope)
        if len(self.lines) > mark and first[2]:
            t = self.fresh("t")
            self.lines.insert(mark, "    " * self.indent
                              + "%s = %s" % (t, first[0]))
            first = t, _ATOM, 0
        return first, second

    def branch(self, e, scope: dict) -> tuple:
        """``e`` emitted one level deeper, with the statements it needs
        kept apart, for a branch taken only when a condition decides."""
        outer = self.lines
        self.lines = []
        self.indent += 1
        value = self.expr(e, scope)
        lines, self.lines = self.lines, outer
        self.indent -= 1
        return lines, value

    def expr(self, e, scope: dict) -> tuple:
        """The expression of term or condition ``e``; ``scope`` maps each
        variable to its generated name."""
        kind = type(e)
        if kind not in _EMIT:
            raise TypeError("not a term or condition node: %r" % (e,))
        if self.loops >= _MAX_LOOPS and kind in (Fold, Search):
            return self.call(e, scope)
        if self.indent == _MAX_INDENT and kind in _BLOCKS:
            # A statement that would nest too deep lies inside a block
            # met at this level: emit the block in place, and as a call
            # if one of its statements does.
            mark = self.lines, len(self.lines), self.loops, len(self.defs)
            try:
                return _EMIT[kind](self, e, scope)
            except _TooDeep:
                self.lines, end, self.loops, defs = mark
                del self.lines[end:], self.defs[defs:]
                self.indent = _MAX_INDENT
            return self.call(e, scope)
        return _EMIT[kind](self, e, scope)

    def call(self, e, scope: dict) -> tuple:
        """A call of a function of its own that returns ``e``."""
        return "%s(%s)" % (self.function(e, scope),
                           ", ".join(("_g", *scope.values()))), _ATOM, 1

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
        return self.nest("_g(%s)" % arg[0], _ATOM, arg)

    def binop(self, e: BinOp, scope: dict) -> tuple:
        head, links = _spine(e, BinOp)
        acc = self.expr(head, scope)
        for link in links:
            template, prec, left, right = _ARITH[link.op]
            acc, b = self.after(acc, link.right, scope)
            acc = self.nest(template % (_wrap(acc, left), _wrap(b, right)),
                            prec, acc, b)
        return acc

    def fold(self, e: Fold, scope: dict) -> tuple:
        unit, op = _FOLD[e.op]
        bound = self.expr(e.bound, scope)
        acc, var = self.fresh("t"), self.fresh("v")
        self.emit("%s = %s" % (acc, unit))
        self.emit("for %s in _r(%s):" % (var, bound[0]))
        self.indent += 1
        self.loops += 1
        body = self.expr(e.body, {**scope, e.var: var})
        self.emit("%s = %s %s %s" % (acc, acc, op, _wrap(body, _ARITH[op][3])))
        self.indent -= 1
        self.loops -= 1
        return acc, _ATOM, 0

    def search(self, e: Search, scope: dict) -> tuple:
        bound = self.expr(e.bound, scope)
        found, var = self.fresh("t"), self.fresh("v")
        if e.op == "least":
            self.emit("for %s in _r(%s + 1):" % (var, _wrap(bound, 5)))
        else:
            self.emit("for %s in _r(%s, -1, -1):" % (var, bound[0]))
        self.indent += 1
        self.loops += 1
        cond = self.expr(e.cond, {**scope, e.var: var})
        self.emit("if %s:" % cond[0])
        self.emit("%s = %s" % (found, var), 1)
        self.emit("break", 1)
        self.indent -= 1
        self.loops -= 1
        self.emit("else:")
        lines, orelse = self.branch(e.orelse, scope)
        self.lines += lines
        self.emit("%s = %s" % (found, orelse[0]), 1)
        return found, _ATOM, 0

    def if_(self, e: If, scope: dict) -> tuple:
        cond = self.expr(e.cond, scope)
        then_lines, then = self.branch(e.then, scope)
        else_lines, orelse = self.branch(e.orelse, scope)
        if not then_lines and not else_lines:
            return self.nest("%s if %s else %s" % (
                _wrap(then, 1), _wrap(cond, 1), orelse[0]),
                0, then, cond, orelse)
        t = self.fresh("t")
        self.emit("if %s:" % cond[0])
        self.lines += then_lines
        self.emit("%s = %s" % (t, then[0]), 1)
        self.emit("else:")
        self.lines += else_lines
        self.emit("%s = %s" % (t, orelse[0]), 1)
        return t, _ATOM, 0

    def cmp(self, e: Cmp, scope: dict) -> tuple:
        op = _CMP[e.op]
        left, right = self.after(self.expr(e.left, scope), e.right, scope)
        return self.nest("%s %s %s" % (_wrap(left, 5), op, _wrap(right, 5)),
                         4, left, right)

    def not_(self, e: Not, scope: dict) -> tuple:
        cond = self.expr(e.cond, scope)
        return self.nest("not %s" % _wrap(cond, 3), 3, cond)

    def conn(self, e: Conn, scope: dict) -> tuple:
        """A left-nested chain: each link reads its right side only when
        the value so far does not decide it, as Python's ``and`` and
        ``or`` do.  A right side that needs statements runs under an
        ``if`` on the value so far, held in a temporary of its own."""
        head, links = _spine(e, Conn)
        acc = self.expr(head, scope)
        held = None
        for link in links:
            prec = 2 if link.op == "and" else 1
            lines, right = self.branch(link.right, scope)
            if not lines:
                acc = self.nest("%s %s %s" % (
                    _wrap(acc, prec), link.op, _wrap(right, prec + 1)),
                    prec, acc, right)
                continue
            if acc[0] != held:
                held = self.bind(acc[0])
                acc = held, _ATOM, 0
            self.emit(("if %s:" if link.op == "and" else "if not %s:") % held)
            self.lines += lines
            self.emit("%s = %s" % (held, right[0]), 1)
        return acc


_EMIT = {Nat: _Emitter.nat, Var: _Emitter.var, Gamma: _Emitter.gamma,
         BinOp: _Emitter.binop, Fold: _Emitter.fold,
         Search: _Emitter.search, If: _Emitter.if_, Cmp: _Emitter.cmp,
         Not: _Emitter.not_, Conn: _Emitter.conn}
# The nodes that may emit blocks.
_BLOCKS = (Fold, Search, If, Conn)


def _source(e: Expr) -> tuple:
    """The generated source of ``e``, the constants it reads and the name
    of the function it defines for ``e``."""
    emitter = _Emitter()
    name = emitter.function(e, {})
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
        # ``_compile`` folds it, so a chain's length costs no stack.
        head, links = _spine(c, Conn)
        if any(isinstance(link.right, (Conn, Not)) for link in links):
            raise ValueError("condition is not grammar-derivable: %r" % (c,))
        return cond_to_text(head) + "".join(
            " %s %s" % (link.op, cond_to_text(link.right)) for link in links)
    raise TypeError("not a condition node: %r" % (c,))
