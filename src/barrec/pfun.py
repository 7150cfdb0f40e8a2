"""Finite sequences, finite partial functions, and canonical extensions.

Three kinds of value flow through the recursion engines:

* ``FiniteSeq`` -- an immutable finite sequence, the state of sequential
  bar recursion;
* ``PartialFn`` -- an immutable finite partial function (defined at
  finitely many indices), the state of symmetric bar recursion;
* ``InfSeq`` -- a total function packaged as a callable value, used for
  the canonical extension of either finite carrier.

Both finite carriers are kept in canonical form (entries sorted by index)
so that structural equality coincides with extensional equality.  ``InfSeq``
values are never compared extensionally; only finite observations of them
are.  Each value domain supplies its own canonical zero explicitly wherever
an extension is formed; nothing here bakes in a zero for a type.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator


class FiniteSeq:
    """Immutable finite sequence of values."""

    __slots__ = ("items",)

    def __init__(self, items: Iterable[Any] = ()):
        self.items = tuple(items)

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, i: int) -> Any:
        return self.items[i]

    def __iter__(self) -> Iterator[Any]:
        return iter(self.items)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FiniteSeq) and self.items == other.items

    def __hash__(self) -> int:
        return hash(self.items)

    def __repr__(self) -> str:
        return "FiniteSeq(%r)" % (list(self.items),)

    def append(self, x: Any) -> "FiniteSeq":
        """The one-element extension ``s * x``."""
        return FiniteSeq(self.items + (x,))

    def take(self, n: int) -> "FiniteSeq":
        """Initial segment of length ``n`` (all of ``s`` if ``n >= |s|``)."""
        return FiniteSeq(self.items[:n])

    def overlay(self, other: "FiniteSeq") -> "FiniteSeq":
        """Merge of two sequences viewed as partial functions on an initial
        segment, with priority to ``self``.  The result has length
        ``max(|self|, |other|)``."""
        if len(other) <= len(self.items):
            return self
        return FiniteSeq(self.items + other.items[len(self.items):])


class PartialFn:
    """Immutable finite partial function from an index domain to values.

    Indices must be hashable and mutually comparable; the default index
    domain is the naturals.  Entries are stored sorted by index, so two
    partial functions are equal exactly when they agree as functions.
    """

    __slots__ = ("entries",)

    def __init__(self, pairs: Iterable[tuple] = ()):
        entries = tuple(sorted(pairs, key=lambda e: e[0]))
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
        return any(m == n for m, _ in self.entries)

    def __call__(self, n: Any) -> Any:
        for m, x in self.entries:
            if m == n:
                return x
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
        return PartialFn(self.entries + ((n, x),))

    def merge(self, other: "PartialFn") -> "PartialFn":
        """The merge ``u @ v`` with priority to ``self`` on shared indices."""
        if not self.entries:
            return other
        if not other.entries:
            return self
        combined = dict(other.entries)
        combined.update(self.entries)
        return PartialFn(combined.items())

    def leq(self, other: "PartialFn") -> bool:
        """Domain inclusion with agreement on the smaller domain."""
        return all(other.defined_at(n) and other(n) == x
                   for n, x in self.entries)

    def splice(self, n: Any, x: Any, above: "PartialFn") -> "PartialFn":
        """Three-way splice: ``self`` below ``n``, the value ``x`` at ``n``,
        and ``above`` strictly above ``n``."""
        pairs = [(m, y) for m, y in self.entries if m < n]
        pairs.append((n, x))
        pairs.extend((m, y) for m, y in above.entries if m > n)
        return PartialFn(pairs)

    def to_json(self) -> dict:
        """JSON object with stringified keys in increasing index order."""
        return {str(n): x for n, x in self.entries}


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
        items = u.items
        n = len(items)
        return InfSeq(lambda i: items[i] if 0 <= i < n else default)
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
