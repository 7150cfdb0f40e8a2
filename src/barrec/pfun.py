"""Finite sequences, finite partial functions, and canonical extensions.

Three kinds of value flow through the recursion engines:

* ``FiniteSeq`` -- an immutable finite sequence, the state of sequential
  bar recursion;
* ``PartialFn`` -- an immutable finite partial function (defined at
  finitely many indices), the state of symmetric bar recursion;
* ``InfSeq`` -- a total function packaged as a callable value, used for
  the canonical extension of either finite carrier: a ``functools.partial``
  whose function is ``.func``, so a read is partial's C call.

Both finite carriers are kept in canonical form (entries sorted by index)
so that structural equality coincides with extensional equality.

The carriers share storage.  A ``FiniteSeq`` is a view: the first ``n``
slots of a list to which slots are only ever appended, never written or
removed.  Extending a sequence pushes onto the list it views when the view
reaches its end, so a recursion that grows one sequence slot by slot keeps
one list, and every state along the way is a view of it; a sibling that
extends the same prefix by a different value copies that prefix once.
``take`` copies nothing, so a short view keeps its whole buffer alive.
Each copy records the list it forked from and how many slots it shares
with it, so ``overlay`` tells that its argument extends the state by
following those records, in steps that count forks, not slots; only
views with no such path have their slots compared.  A view's hash is a
fold over its slots, ``h(s * x) = hash((h(s), x))``, so a view made by
``append`` from a view whose hash is known derives its own from it by
hashing one pair, and a spine of states is hashed in time linear in its
length, each slot once.

A ``PartialFn`` keeps one sorted tuple of ``(index, value)`` entries and
finds an index by bisection, so indices must be totally ordered.  Its
``update`` and ``merge`` keep the entry tuples they are given (``update``
builds only the new entry, ``merge`` none), so every state a recursion
grows from one start state shares its entries; a merge into a carrier
that already holds each of ``self``'s entries returns that carrier.

Extension reads run in C where they can.  A ``PartialFn``'s extension reads
an ``_Extension`` table, a ``dict`` whose ``__missing__`` hands the index
to a shared ``partial(next, repeat(zero))``, so no read runs a Python
frame, in the domain or outside it; a constant sequence is
``partial(next, repeat(x))``.  A ``FiniteSeq``'s extension reads a
``_SeqExtension`` record through its bound ``read``.  Either extension's
function is bound to the record it reads, and ``extension_source`` hands
that record to a reader that builds a table off the carrier.  ``InfSeq``
values are equal only when identical; they are never compared
extensionally, only finite observations of them are.  Each value domain
supplies its own canonical zero explicitly wherever an extension is
formed; nothing here bakes in a zero for a type.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from functools import partial
from itertools import islice, repeat
from typing import Any, Iterable, Iterator

_new = object.__new__
_index = operator.itemgetter(0)
# The hash of the empty sequence, where a sequence's hash fold starts.
_EMPTY_HASH = hash(())


class FiniteSeq:
    """Immutable finite sequence of values: the first ``_n`` slots of the
    shared append-only list ``_buf``.

    Slots below ``_n`` are never written again, so a view is fixed once
    made, however far its buffer grows.  ``append`` pushes onto the buffer
    when the view ends it, and reuses the next slot when it already holds
    the same object; only a sibling branch (a different value at a length
    the buffer has passed) copies the prefix into a buffer of its own.  An
    empty view shares nothing, so its ``append`` starts a buffer of its own.

    ``_link`` records where the buffer forked: ``None`` for a buffer built
    from items, else ``(old, k, old_link)``, saying that the first ``k``
    slots of ``_buf`` are the first ``k`` slots of the list ``old``, object
    for object, and ``old_link`` is ``old``'s own record.  A view made by
    ``append`` onto its buffer or by ``take`` keeps its parent's record.

    ``_hash`` is the hash, or ``None`` until it is known.  It folds the
    slots from ``_EMPTY_HASH`` by ``h(s * x) = hash((h(s), x))``, so it is
    not the hash of ``items``.  ``__hash__`` runs the fold over a view
    that has none yet; ``append`` on a view whose hash is known stores its
    child's, unless the new slot is unhashable.  ``take``, ``overlay``'s
    merged copy and a sequence built from items start without one.
    """

    __slots__ = ("_buf", "_n", "_link", "_hash")

    def __init__(self, items: Iterable[Any] = ()):
        self._buf = list(items)
        self._n = len(self._buf)
        self._link = None
        self._hash = None

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
        h = self._hash
        if h is None:
            h = _EMPTY_HASH
            for x in islice(self._buf, self._n):
                h = hash((h, x))
            self._hash = h
        return h

    def __repr__(self) -> str:
        return "FiniteSeq(%r)" % (self._buf[:self._n],)

    def append(self, x: Any) -> "FiniteSeq":
        """The one-element extension ``s * x``, whose hash is derived from
        ``s``'s when that is known and ``x`` is hashable."""
        buf, n, link = self._buf, self._n, self._link
        h = self._hash
        if h is not None:
            try:
                h = hash((h, x))
            except TypeError:
                h = None
        if not n:
            return _seq_view([x], 1, None, h)
        if len(buf) == n:
            buf.append(x)
        # Slot ``n`` is final once written, so reading it back also sees a
        # push that raced this one onto the same buffer.
        if buf[n] is not x:
            link = (buf, n, link)
            buf = buf[:n]
            buf.append(x)
        return _seq_view(buf, n + 1, link, h)

    def take(self, n: int) -> "FiniteSeq":
        """Initial segment of length ``n`` (all of ``s`` if ``n >= |s|``; a
        negative ``n`` drops that many slots from the end, as slicing
        does).  The segment is a view of the same buffer."""
        return _seq_view(self._buf, slice(n).indices(self._n)[1], self._link)

    def overlay(self, other: "FiniteSeq") -> "FiniteSeq":
        """Merge of two sequences viewed as partial functions on an initial
        segment, with priority to ``self``.  The result has length
        ``max(|self|, |other|)``; it is ``other`` itself when ``other``
        extends ``self`` slot for slot.

        ``other``'s fork records answer that without reading a slot when
        they lead back to ``self``'s buffer through forks that each share
        at least ``|self|`` slots; otherwise the slots are compared."""
        n = self._n
        if other._n <= n:
            return self
        buf = self._buf
        theirs, link = other._buf, other._link
        while theirs is not buf and link is not None and link[1] >= n:
            theirs, _, link = link
        if theirs is buf or all(map(operator.is_, buf[:n], other._buf)):
            return other
        merged = buf[:n]
        merged.extend(islice(other._buf, n, other._n))
        return _seq_view(merged, other._n, (buf, n, self._link))


def _seq_view(buf: list, n: int, link: "tuple | None",
              h: "int | None" = None) -> FiniteSeq:
    """The view of the first ``n`` slots of ``buf``, sharing it, whose
    buffer forked as ``link`` records and whose hash is ``h`` (``None``
    when not known)."""
    s = _new(FiniteSeq)
    s._buf = buf
    s._n = n
    s._link = link
    s._hash = h
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

    def update(self, n: Any, x: Any) -> "PartialFn":
        """The update ``u (+) (n, x)``: extend at ``n`` unless ``n`` is
        already defined, in which case the existing value wins and the
        result is ``u`` itself."""
        entries = self.entries
        i = bisect_left(entries, n, key=_index)
        if i < len(entries) and entries[i][0] == n:
            return self
        return _pf_sorted(entries[:i] + ((n, x),) + entries[i:])

    def merge(self, other: "PartialFn") -> "PartialFn":
        """The merge ``u @ v`` with priority to ``self`` on shared indices.

        The result keeps the operands' entry tuples and builds no new
        pair.  It is ``other`` itself when ``other`` holds each entry of
        ``self`` as the same object, as a carrier grown from ``self`` by
        ``update`` and ``merge`` does."""
        mine, theirs = self.entries, other.entries
        if not mine:
            return other
        if not theirs:
            return self
        pairs = dict(zip(map(_index, theirs), theirs))
        if all(map(operator.is_, map(pairs.get, map(_index, mine)), mine)):
            return other
        pairs.update(zip(map(_index, mine), mine))
        return _pf_sorted(tuple(sorted(pairs.values(), key=_index)))

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


class InfSeq(partial):
    """A total function packaged as a callable value: a ``functools.partial``
    whose function is ``.func``, with no bound arguments except a
    constant's ``repeat(x)``.

    A read ``alpha(i)`` is partial's C call straight into the function,
    with no Python frame of its own; it is all C when the function is a
    builtin, as for a constant and a ``PartialFn``'s extension at a
    defined point.  Instances are compared and hashed by identity;
    extensional equality of function values is never decided, only finite
    observations are.  Each query calls the function afresh, so queries
    must be deterministic.
    """

    __slots__ = ()
    __call__ = partial.__call__

    @classmethod
    def constant(cls, x: Any) -> "InfSeq":
        """The sequence that is ``x`` everywhere: a read is
        ``next(repeat(x), i)``, which never exhausts and so returns
        ``x``."""
        return cls(next, repeat(x))

    def prefix(self, k: int) -> list:
        """The finite observation ``[self(0), ..., self(k-1)]``."""
        return list(map(self, range(k)))

    def __repr__(self) -> str:
        return "InfSeq(<fn>)"


class _Extension(dict):
    """A partial function's entries as a table that reads ``default`` at
    every index it lacks.

    ``__getitem__`` is dict's C lookup, and a miss runs no Python frame
    either: dict looks ``__missing__`` up on the type, where it is a
    property that hands back the table's ``_miss`` reader,
    ``partial(next, repeat(default))``, which dict then calls with the
    index.  Nothing is inserted on a miss.  ``entries`` is the entry tuple
    of the partial function ``extend_hat`` built the table from, and
    ``None`` for any other table.  The table is built afresh for each
    extension and not cached on the ``PartialFn``: the memo keeps its
    states alive, and a cached table would live as long as they do."""

    __slots__ = ("default", "entries", "_miss")
    __missing__ = property(operator.attrgetter("_miss"))


# The last default a table not built off another table was given, and its
# miss reader, replaced as one tuple so that a table never gets the reader
# of another default.  It keeps that one default alive.
_reader = (object(), None)


class _SeqExtension:
    """A sequence's view as the record its extension reads: slot ``i`` of
    the first ``n`` slots of ``buf``, and ``default`` at every other
    index.  ``read`` runs one Python frame per read, as a closure would."""

    __slots__ = ("buf", "n", "default")

    def read(self, i: Any) -> Any:
        return self.buf[i] if 0 <= i < self.n else self.default


def extend_hat(u: "PartialFn | FiniteSeq", default: Any) -> InfSeq:
    """Canonical extension: agree with ``u`` on its domain, return the
    supplied zero everywhere else.  Its function is a bound method of the
    record it reads, which ``extension_source`` returns."""
    if isinstance(u, FiniteSeq):
        view = _new(_SeqExtension)
        view.buf, view.n, view.default = u._buf, u._n, default
        return InfSeq(view.read)
    if isinstance(u, PartialFn):
        return extend_table(u.entries, default, u.entries)
    raise TypeError("cannot extend %r" % type(u).__name__)


def extend_table(pairs: Any, default: Any,
                 entries: "tuple | None" = None) -> InfSeq:
    """The sequence that reads the table of ``pairs`` (a mapping, or
    ``(index, value)`` pairs) at its indices and ``default`` elsewhere, in
    C at every index: a partial function's extension, whose table records
    its ``entries``, and any table a reader builds off one.  A table built
    off another table of the same default takes that table's miss reader,
    and any other table the reader of the last such default, so a stream
    of partial-function extensions shares one reader, and a stream of
    tables each derived from the last shares another."""
    global _reader
    table = _Extension(pairs)
    table.default, table.entries = default, entries
    if type(pairs) is _Extension and pairs.default is default:
        read = pairs._miss
    else:
        last, read = _reader
        if last is not default:
            read = partial(next, repeat(default))
            _reader = (default, read)
    table._miss = read
    return InfSeq(table.__getitem__)


def extension_source(alpha: InfSeq) -> Any:
    """The carrier data an ``extend_hat`` extension reads, for a reader
    that derives a table from it instead of reading ``alpha`` point by
    point: a partial function's ``dict`` of index to value, whose
    ``default`` is the zero and whose ``entries`` is the partial
    function's entry tuple; a sequence's record of ``buf``, ``n`` and
    ``default``, whose slots below ``n`` are fixed once written, however
    far ``buf`` grows.  ``None`` for any other sequence.  Neither may be
    written to."""
    source = getattr(alpha.func, "__self__", None)
    return source if type(source) in (_Extension, _SeqExtension) else None

