"""Finite sequences, finite partial functions, and canonical extensions.

Three kinds of value flow through the recursion engines:

* ``FiniteSeq`` -- an immutable finite sequence, the state of sequential
  bar recursion;
* ``PartialFn`` -- an immutable finite partial function (defined at
  finitely many indices), the state of symmetric bar recursion;
* ``InfSeq`` -- a total function packaged as a callable value, used for
  the canonical extension of either finite carrier.

Both finite carriers are kept in canonical form (entries sorted by index)
so that structural equality coincides with extensional equality.

The carriers share storage.  A ``FiniteSeq`` is a view: the first ``n``
slots of a list to which slots are only ever appended, never written or
removed.  Extending a sequence pushes onto the list it views when the view
reaches its end, so a recursion that grows one sequence slot by slot keeps
one list, and every state along the way is a view of it; a sibling that
extends the same prefix by a different value copies that prefix once.
``take`` copies nothing, so a short view keeps its whole buffer alive.  A
``PartialFn`` keeps one sorted tuple of ``(index, value)`` entries and
finds an index by bisection, so indices must be totally ordered.  ``InfSeq``
values are never compared extensionally; only finite observations of them
are.  Each value domain supplies its own canonical zero explicitly wherever
an extension is formed; nothing here bakes in a zero for a type.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from itertools import islice
from typing import Any, Callable, Iterable, Iterator

_new = object.__new__
_index = operator.itemgetter(0)


class FiniteSeq:
    """Immutable finite sequence of values: the first ``_n`` slots of the
    shared append-only list ``_buf``.

    Slots below ``_n`` are never written again, so a view is fixed once
    made, however far its buffer grows.  ``append`` pushes onto the buffer
    when the view ends it, and reuses the next slot when it already holds
    the same object; only a sibling branch (a different value at a length
    the buffer has passed) copies the prefix into a buffer of its own.
    """

    __slots__ = ("_buf", "_n")

    def __init__(self, items: Iterable[Any] = ()):
        self._buf = list(items)
        self._n = len(self._buf)

    @property
    def items(self) -> tuple:
        """The slots of this view, as a tuple."""
        return tuple(self._buf[:self._n])

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: "int | slice") -> Any:
        if isinstance(i, slice):
            return self.items[i]
        k = operator.index(i)
        if k < 0:
            k += self._n
        if not 0 <= k < self._n:
            raise IndexError("FiniteSeq index out of range")
        return self._buf[k]

    def __iter__(self) -> Iterator[Any]:
        return islice(self._buf, self._n)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteSeq):
            return False
        n = self._n
        return n == other._n and (self._buf is other._buf
                                  or self._buf[:n] == other._buf[:n])

    def __hash__(self) -> int:
        return hash(self.items)

    def __repr__(self) -> str:
        return "FiniteSeq(%r)" % (self._buf[:self._n],)

    def append(self, x: Any) -> "FiniteSeq":
        """The one-element extension ``s * x``."""
        buf, n = self._buf, self._n
        if len(buf) == n:
            buf.append(x)
        # Slot ``n`` is final once written, so reading it back also sees a
        # push that raced this one onto the same buffer.
        if buf[n] is not x:
            buf = buf[:n]
            buf.append(x)
        return _seq_view(buf, n + 1)

    def take(self, n: int) -> "FiniteSeq":
        """Initial segment of length ``n`` (all of ``s`` if ``n >= |s|``; a
        negative ``n`` drops that many slots from the end, as slicing
        does).  The segment is a view of the same buffer."""
        return _seq_view(self._buf, slice(n).indices(self._n)[1])

    def overlay(self, other: "FiniteSeq") -> "FiniteSeq":
        """Merge of two sequences viewed as partial functions on an initial
        segment, with priority to ``self``.  The result has length
        ``max(|self|, |other|)``; it is ``other`` itself when ``other``
        extends ``self`` slot for slot."""
        n = self._n
        if other._n <= n:
            return self
        buf = self._buf
        if other._buf is buf or all(map(operator.is_, buf[:n], other._buf)):
            return other
        merged = buf[:n]
        merged.extend(islice(other._buf, n, other._n))
        return _seq_view(merged, other._n)


def _seq_view(buf: list, n: int) -> FiniteSeq:
    """The view of the first ``n`` slots of ``buf``, sharing it."""
    s = _new(FiniteSeq)
    s._buf = buf
    s._n = n
    return s


class PartialFn:
    """Immutable finite partial function from an index domain to values.

    Indices must be hashable and mutually comparable; the default index
    domain is the naturals.  Entries are stored sorted by index, so two
    partial functions are equal exactly when they agree as functions.
    """

    __slots__ = ("entries",)

    def __init__(self, pairs: Iterable[tuple] = ()):
        entries = tuple(sorted(pairs, key=_index))
        for a, b in zip(entries, entries[1:]):
            if a[0] == b[0]:
                raise ValueError("duplicate index %r" % (a[0],))
        self.entries = entries

    @classmethod
    def single(cls, n: Any, x: Any) -> "PartialFn":
        return cls(((n, x),))

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PartialFn) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return "PartialFn({%s})" % ", ".join(
            "%r: %r" % (n, x) for n, x in self.entries)

    def defined_at(self, n: Any) -> bool:
        entries = self.entries
        i = bisect_left(entries, n, key=_index)
        return i < len(entries) and entries[i][0] == n

    def __call__(self, n: Any) -> Any:
        entries = self.entries
        i = bisect_left(entries, n, key=_index)
        if i < len(entries) and entries[i][0] == n:
            return entries[i][1]
        raise KeyError(n)

    def domain(self) -> tuple:
        return tuple(n for n, _ in self.entries)

    def max_index(self) -> Any:
        if not self.entries:
            raise ValueError("empty partial function has no maximal index")
        return self.entries[-1][0]

    def update(self, n: Any, x: Any) -> "PartialFn":
        """The update ``u (+) (n, x)``: extend at ``n`` unless ``n`` is
        already defined, in which case the existing value wins and the
        result is ``u`` itself."""
        if self.defined_at(n):
            return self
        # A second bisection, so that the lookup stays one ``defined_at``
        # call, the unit the benchmark's layer trace counts.
        entries = self.entries
        i = bisect_left(entries, n, key=_index)
        return _pf_sorted(entries[:i] + ((n, x),) + entries[i:])

    def merge(self, other: "PartialFn") -> "PartialFn":
        """The merge ``u @ v`` with priority to ``self`` on shared indices."""
        if not self.entries:
            return other
        if not other.entries:
            return self
        combined = dict(other.entries)
        combined.update(self.entries)
        return _pf_sorted(tuple(sorted(combined.items(), key=_index)))

    def leq(self, other: "PartialFn") -> bool:
        """Domain inclusion with agreement on the smaller domain."""
        return all(other.defined_at(n) and other(n) == x
                   for n, x in self.entries)

    def splice(self, n: Any, x: Any, above: "PartialFn") -> "PartialFn":
        """Three-way splice: ``self`` below ``n``, the value ``x`` at ``n``,
        and ``above`` strictly above ``n``."""
        below = self.entries[:bisect_left(self.entries, n, key=_index)]
        rest = above.entries[bisect_right(above.entries, n, key=_index):]
        return _pf_sorted(below + ((n, x),) + rest)

    def to_json(self) -> dict:
        """JSON object with stringified keys in increasing index order."""
        return {str(n): x for n, x in self.entries}


def _pf_sorted(entries: tuple) -> PartialFn:
    """The partial function whose canonical entries are ``entries``, which
    the caller guarantees sorted and free of duplicate indices."""
    u = _new(PartialFn)
    u.entries = entries
    return u


EMPTY = PartialFn()
EMPTY_SEQ = FiniteSeq()


class InfSeq:
    """A total function packaged as a callable value.

    Instances are compared and hashed by identity; extensional equality of
    function values is never decided, only finite observations are.  Each
    query calls the function afresh, so queries must be deterministic.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[Any], Any]):
        self.fn = fn

    def __call__(self, i: Any) -> Any:
        return self.fn(i)

    @classmethod
    def constant(cls, x: Any) -> "InfSeq":
        return cls(lambda _i: x)

    def prefix(self, k: int) -> list:
        """The finite observation ``[self(0), ..., self(k-1)]``."""
        return [self(i) for i in range(k)]

    def __repr__(self) -> str:
        return "InfSeq(<fn>)"


def extend_hat(u: "PartialFn | FiniteSeq", default: Any) -> InfSeq:
    """Canonical extension: agree with ``u`` on its domain, return the
    supplied zero everywhere else."""
    if isinstance(u, FiniteSeq):
        buf, n = u._buf, u._n
        return InfSeq(lambda i: buf[i] if 0 <= i < n else default)
    if isinstance(u, PartialFn):
        table = dict(u.entries)
        return InfSeq(lambda i: table.get(i, default))
    raise TypeError("cannot extend %r" % type(u).__name__)


def bounded_search(bound: int, pred: Callable[[int], bool]) -> int:
    """Bounded search: the least ``i <= bound`` satisfying ``pred``, or
    ``bound`` itself when no such ``i`` exists."""
    for i in range(bound):
        if pred(i):
            return i
    return bound
