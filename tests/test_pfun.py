"""Laws of the finite carriers and canonical extensions."""

import functools
import json
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from barrec.context import sibling_cache
from barrec.pfun import (EMPTY, FiniteSeq, InfSeq, PartialFn, _seq_view,
                         extend_hat, extend_table, extension_source)
from conftest import python_calls

indices = st.integers(min_value=0, max_value=30)
values = st.integers(min_value=0, max_value=9)
pfuns = st.dictionaries(indices, values, max_size=8).map(
    lambda d: PartialFn(d.items()))
seqs = st.lists(values, max_size=8).map(FiniteSeq)


def test_update_empty():
    assert PartialFn().update(3, 7) == PartialFn([(3, 7)])


def test_update_keeps_existing_value():
    u = PartialFn([(1, "a")])
    assert u.update(1, "b") == u


def test_update_partial_identity():
    u = PartialFn(((1, 1), (2, 2)))
    assert u.update(3, 3) == PartialFn(((1, 1), (2, 2), (3, 3)))


@given(pfuns, indices, values)
def test_update_domain_growth(u, n, x):
    r = u.update(n, x)
    assert len(r) == len(u) + (0 if u.defined_at(n) else 1)


def test_merge_left_identity():
    v = PartialFn(((0, 5), (4, 1)))
    assert EMPTY.merge(v) == v
    assert v.merge(EMPTY) == v


def test_merge_left_priority():
    u = PartialFn([(0, "a")])
    v = PartialFn(((0, "b"), (1, "c")))
    assert u.merge(v) == PartialFn(((0, "a"), (1, "c")))


def test_sequence_overlay():
    assert FiniteSeq("x").overlay(FiniteSeq("yz")) == FiniteSeq("xz")


@given(pfuns, pfuns, pfuns)
def test_merge_associative(u, v, w):
    assert u.merge(v).merge(w) == u.merge(v.merge(w))


@given(pfuns, pfuns)
def test_merge_idempotent_and_extends(u, v):
    assert u.merge(u) == u
    assert u.leq(u.merge(v))


@given(pfuns)
def test_leq_reflexive(u):
    assert u.leq(u)
    assert EMPTY.leq(u)


@given(pfuns, pfuns)
def test_leq_antisymmetric(u, v):
    if u.leq(v) and v.leq(u):
        assert u == v


@given(pfuns, pfuns, pfuns)
def test_leq_transitive(u, v, w):
    if u.leq(v) and v.leq(w):
        assert u.leq(w)


def test_leq_examples():
    assert PartialFn([(1, 1)]).leq(PartialFn(((1, 1), (2, 2))))
    assert not PartialFn([(1, 1)]).leq(PartialFn([(1, 2)]))


def test_extend_hat_examples():
    assert extend_hat(EMPTY, 0).prefix(4) == [0, 0, 0, 0]
    assert extend_hat(PartialFn([(2, 5)]), 0).prefix(4) == [0, 0, 5, 0]
    hat = extend_hat(FiniteSeq((4, 4)), 0)
    assert [hat(1), hat(2)] == [4, 0]


@given(pfuns, indices, values)
def test_extend_hat_update_law(u, n, x):
    expected = u(n) if u.defined_at(n) else x
    assert extend_hat(u.update(n, x), -1)(n) == expected


@given(seqs, seqs)
def test_overlay_matches_partial_view(s, t):
    merged = PartialFn(enumerate(s)).merge(PartialFn(enumerate(t)))
    assert PartialFn(enumerate(s.overlay(t))) == merged


def test_splice():
    u = PartialFn(((0, "a"), (2, "b"), (5, "c")))
    v = PartialFn(((1, "x"), (4, "y"), (9, "z")))
    spliced = u.splice(2, "m", v)
    assert spliced == PartialFn(((0, "a"), (2, "m"), (4, "y"), (9, "z")))


def test_duplicate_indices_rejected():
    with pytest.raises(ValueError):
        PartialFn(((1, 2), (1, 3)))


def test_sequence_as_partial():
    s = FiniteSeq((7, 8))
    assert s.take(1) == FiniteSeq((7,))
    assert s.append(9) == FiniteSeq((7, 8, 9))


def test_infseq_uncached_and_constant():
    hits = []

    def f(i):
        hits.append(i)
        return i * i

    raw = InfSeq(f)
    raw(3), raw(3)
    assert hits == [3, 3]
    assert InfSeq.constant(2).prefix(3) == [2, 2, 2]
    assert InfSeq.constant("x").prefix(0) == []
    assert raw.prefix(4) == [0, 1, 4, 9]
    assert repr(raw) == repr(InfSeq.constant(1)) == "InfSeq(<fn>)"


def _caller_code(i):
    """The code object of the frame that called this function."""
    return sys._getframe(1).f_code


def _read_from_here(alpha):
    return alpha(0), sys._getframe(0).f_code


def test_infseq_read_is_partials_c_call():
    assert vars(InfSeq)["__call__"] is functools.partial.__call__
    alpha = InfSeq(_caller_code)
    assert alpha.func is _caller_code
    # No Python frame sits between the reader and the function.
    seen, reader = _read_from_here(alpha)
    assert seen is reader


def test_infseq_call_can_be_patched_and_restored():
    # The benchmark's tracer counts reads by swapping ``__call__`` on the
    # class for a wrapper over the original, and later puts it back.
    original = InfSeq.__call__
    reads = []

    def counted_call(self_, i):
        reads.append(i)
        return original(self_, i)

    alpha = InfSeq(lambda i: i + 1)
    InfSeq.__call__ = counted_call
    try:
        assert alpha(4) == 5
        assert alpha.prefix(3) == [1, 2, 3]
        assert reads == [4, 0, 1, 2]
    finally:
        InfSeq.__call__ = original
    assert vars(InfSeq)["__call__"] is original is functools.partial.__call__
    assert alpha(4) == 5 and reads == [4, 0, 1, 2]
    seen, reader = _read_from_here(InfSeq(_caller_code))
    assert seen is reader


def test_infseq_equality_and_hash_are_identity():
    def f(i):
        return i * 10

    a, b = InfSeq(f), InfSeq(f)
    assert a == a and a != b and not a == b
    assert hash(a) == object.__hash__(a) and hash(b) == object.__hash__(b)
    # So a continuation's per-entry cache keys extensions by identity.
    evaluated = []

    def cont(alpha):
        evaluated.append(alpha)
        return alpha(2)

    cached = sibling_cache(cont)
    assert [cached(a), cached(a), cached(b), cached(b)] == [20, 20, 20, 20]
    assert len(evaluated) == 2
    assert evaluated[0] is a and evaluated[1] is b


def test_constant_reads_run_no_python_frame():
    for x in (0, "x", None, (1, 2)):
        alpha = InfSeq.constant(x)
        values, calls = python_calls(alpha, range(5))
        assert values == [x] * 5 and calls == []


@pytest.mark.parametrize("entries,undefined", [
    (((0, "a"), (3, "b"), (7, "c")), (1, 2, 8, -1)),
    (((True, "t"),), (False,)),
    ((((0, True), "p"), ((2, False), "q")), ((0, False), (1, True))),
])
def test_partial_fn_extension_reads(entries, undefined):
    u = PartialFn(entries)
    alpha = extend_hat(u, "zero")
    defined = [n for n, _ in entries]
    values, calls = python_calls(alpha, defined)
    assert values == [x for _, x in entries] and calls == []
    values, calls = python_calls(alpha, undefined)
    assert values == ["zero"] * len(undefined) and calls == []
    # A miss inserts nothing, so the table stays the partial function.
    assert dict(alpha.func.__self__) == dict(entries)
    assert extend_hat(u, None).prefix(0) == []


def test_tables_of_two_defaults_built_in_turn_read_their_own():
    # Equal defaults that are distinct objects: a miss must hand back the
    # very default its own table was built with.
    defaults = ([0], [0])
    made = []
    for k in range(6):
        default = defaults[k % 2]
        made.append((extend_hat(PartialFn([(k, "x")]), default), k, default))
        made.append((extend_table({k: "y"}, default), k, default))
    for alpha, k, default in made:
        assert all(alpha(i) is default for i in range(8) if i != k)
        assert alpha(k) in ("x", "y")


def test_extension_source_is_the_record_the_extension_reads():
    u = PartialFn(((0, "a"), (3, "b")))
    table = extension_source(extend_hat(u, "zero"))
    assert dict(table) == dict(u.entries) and table.default == "zero"
    s = FiniteSeq(("a", "b", "c")).take(2)
    view = extension_source(extend_hat(s, "zero"))
    assert view.buf is s._buf and view.n == 2 and view.default == "zero"
    assert extend_hat(s, "zero").prefix(4) == ["a", "b", "zero", "zero"]
    built = extend_table({1: "x"}, "zero")
    assert extension_source(built) == {1: "x"}
    assert built.prefix(3) == ["zero", "x", "zero"]
    # Any other sequence has no source, whatever its function is bound to.
    for alpha in (InfSeq.constant(0), InfSeq(lambda i: i),
                  InfSeq(["a"].__getitem__), InfSeq({0: "a"}.__getitem__)):
        assert extension_source(alpha) is None


def test_json_forms():
    u = PartialFn(((2, 9), (0, 4)))
    assert json.dumps(u.to_json()) == '{"0": 4, "2": 9}'


# -- Model tests: the carriers against a tuple and a dict. --------------------

# Small ints are shared objects, so appending one again reuses the slot;
# the big ints are fresh objects that are equal but not identical, which
# forces a sibling copy.
seq_values = st.one_of(st.integers(0, 3),
                       st.integers(0, 3).map(lambda k: 10 ** 30 + k))
seq_ops = st.lists(st.tuples(st.sampled_from(("append", "take", "overlay")),
                             st.integers(0, 1000), seq_values,
                             st.integers(-10, 10), st.integers(0, 1000)),
                   max_size=40)


def _build_views(start, ops):
    """Pairs (view, model tuple), each grown from an arbitrary earlier
    pair by ``append``, ``take`` or ``overlay``.  Each view is hashed as
    it is made, so its cached hash predates the later growth of its
    buffer."""
    pool = [(FiniteSeq(start), tuple(start))]
    for op, pick, x, k, other in ops:
        s, model = pool[pick % len(pool)]
        if op == "append":
            pool.append((s.append(x), model + (x,)))
        elif op == "take":
            pool.append((s.take(k), model[:k]))
        else:
            t, mt = pool[other % len(pool)]
            pool.append((s.overlay(t), model + mt[len(model):]))
        hash(pool[-1][0])
    return pool


def _assert_fork_records_hold(s):
    """Each fork record on the way back from ``s``'s buffer names a list
    whose first ``k`` slots are those of the list before it, object for
    object."""
    buf, link = s._buf, s._link
    while link is not None:
        old, k, link = link
        assert len(buf) >= k and len(old) >= k
        assert all(a is b for a, b in zip(buf[:k], old[:k]))
        buf = old


@given(st.lists(seq_values, max_size=4), seq_ops)
def test_finite_seq_views_match_tuple_model(start, ops):
    pool = _build_views(start, ops)
    for s, model in pool:
        fresh = FiniteSeq(model)
        assert len(s) == len(model)
        assert tuple(s) == model and s.items == model
        assert s == fresh and hash(s) == hash(fresh)
        assert repr(s) == repr(fresh) == "FiniteSeq(%r)" % (list(model),)
        for i in range(-len(model) - 1, len(model) + 1):
            if -len(model) <= i < len(model):
                assert s[i] is model[i]
            else:
                with pytest.raises(IndexError):
                    s[i]
        assert s[1:-1] == model[1:-1] and s[::-2] == model[::-2]
        for k in (-len(model) - 1, -1, 0, 1, len(model), len(model) + 1):
            assert s.take(k) == FiniteSeq(model[:k])
        assert extend_hat(s, None).prefix(len(model) + 2) == \
            list(model) + [None, None]
        _assert_fork_records_hold(s)


@given(st.lists(seq_values, max_size=4), seq_ops)
def test_finite_seq_overlay_matches_tuple_model(start, ops):
    pool = _build_views(start, ops)
    for s, ms in pool:
        for t, mt in pool:
            merged = s.overlay(t)
            assert merged == FiniteSeq(ms + mt[len(ms):])
            if len(mt) > len(ms):
                assert (merged is t) == all(a is b for a, b in zip(ms, mt))
            _assert_fork_records_hold(merged)
            assert (s == t) == (ms == mt)
            if ms == mt:
                assert hash(s) == hash(t)


def test_empty_view_appends_to_a_list_of_its_own():
    for empty in (FiniteSeq(), FiniteSeq((1, 2)).take(0)):
        before = list(empty._buf)
        one, again = empty.append(1), empty.append(1)
        assert one == again == FiniteSeq((1,))
        assert one._buf is not again._buf and one._link is None
        assert empty._buf == before
        assert empty.overlay(one) is one


def test_sibling_appends_keep_their_own_values():
    root = FiniteSeq((1, 2))
    left, right = root.append(10 ** 30), root.append(-10 ** 30)
    deeper = left.append(3)
    assert (left.items, right.items, deeper.items) == \
        ((1, 2, 10 ** 30), (1, 2, -10 ** 30), (1, 2, 10 ** 30, 3))
    assert root.overlay(right) is right
    assert FiniteSeq((1, 2)).overlay(deeper) is deeper
    equal_not_same = FiniteSeq((1, 2, int("1" + "0" * 30)))
    merged = equal_not_same.overlay(deeper)
    assert merged == deeper and merged is not deeper


class _SliceCountingList(list):
    """A list that counts the slices read from it; a slice is again such
    a list, so a buffer copied from it counts its own."""

    def __init__(self, items=()):
        super().__init__(items)
        self.slices = 0

    def __getitem__(self, i):
        if isinstance(i, slice):
            self.slices += 1
            return _SliceCountingList(list.__getitem__(self, i))
        return list.__getitem__(self, i)


def test_overlay_follows_fork_records_without_reading_slots():
    # A chain of sibling forks at growing depths: each pre-fork state is
    # a view of one buffer, and the carrier continues on a copy of it.
    s = _seq_view(_SliceCountingList((0,)), 1, None)
    before_fork = []
    for depth in range(5):
        for _ in range(depth + 1):
            s = s.append(depth)
        before_fork.append(s)
        s.append(10 ** 30 + depth)
        s = s.append(-10 ** 30 - depth)
    final = s.append(7)
    buffers = {id(state._buf) for state in before_fork}
    assert len(buffers) == len(before_fork)
    for state in before_fork:
        read = state._buf.slices
        assert state.overlay(final) is final
        assert state._buf.slices == read
    # A merged copy records the buffer of the side it took its prefix from.
    sibling = before_fork[2].append(5)
    merged = sibling.overlay(final)
    assert merged is not final
    assert merged.items == sibling.items + final.items[len(sibling):]
    longer = merged.append(8)
    read = sibling._buf.slices
    assert sibling.overlay(longer) is longer
    assert sibling._buf.slices == read
    # Without a record reaching the state's buffer, the slots are compared.
    unlinked = FiniteSeq(final)
    read = before_fork[0]._buf.slices
    assert before_fork[0].overlay(unlinked) is unlinked
    assert before_fork[0]._buf.slices == read + 1


def test_finite_seq_hashes_its_slots_once():
    hashed = []

    class Slot:
        def __hash__(self):
            hashed.append(self)
            return 1

    s = FiniteSeq((Slot(), Slot())).append(Slot())
    assert hash(s) == hash(s)
    assert len(hashed) == 3
    # An append onto a hashed view hashes its new slot alone, whether it
    # pushes onto the buffer or forks a sibling off it.
    pushed = s.append(Slot())
    assert len(hashed) == 4
    forked = s.append(Slot())
    assert forked._buf is not pushed._buf and len(hashed) == 5
    deeper = forked.append(Slot())
    assert len(hashed) == 6
    for view in (pushed, forked, deeper):
        assert hash(view) == hash(FiniteSeq(view.items))
    # A prefix cannot be derived from its parent's hash, so it folds its
    # own slots once when asked.
    t = s.take(2)
    hashed.clear()
    assert hash(t) == hash(t) == hash(FiniteSeq(t.items))
    assert len(hashed) == 2 + 2


def test_finite_seq_append_of_an_unhashable_value_does_not_raise():
    s = FiniteSeq((1, 2))
    hash(s)
    t = s.append([3])
    assert t.items == (1, 2, [3]) and t.append(4).items == (1, 2, [3], 4)
    with pytest.raises(TypeError):
        hash(t)
    assert hash(t.take(2)) == hash(s)


# Index domains of the symmetric recursor: naturals, booleans, pairs.
index_domains = st.sampled_from((
    st.integers(0, 12),
    st.booleans(),
    st.tuples(st.integers(0, 3), st.booleans()),
))
pf_ops = st.lists(st.tuples(st.integers(0, 1000), values), max_size=12)


@given(st.data())
def test_partial_fn_matches_dict_model(data):
    index = data.draw(index_domains)
    probes = data.draw(st.lists(index, max_size=6))
    pool = [(EMPTY, {})]
    for pick, x in data.draw(pf_ops):
        u, model = pool[pick % len(pool)]
        n = data.draw(index)
        pool.append((u.update(n, x), {**model, n: model.get(n, x)}))
    for u, model in pool:
        keys = [n for n, _ in u.entries]
        assert keys == sorted(set(keys)) == sorted(model)
        assert dict(u.entries) == model and len(u) == len(model)
        assert u == PartialFn(model.items())
        for n in probes + keys:
            assert u.defined_at(n) == (n in model)
            if n in model:
                assert u(n) == model[n]
            else:
                with pytest.raises(KeyError):
                    u(n)
    for (u, mu), (v, mv) in zip(pool, reversed(pool)):
        assert u.merge(v) == PartialFn({**mv, **mu}.items())
        assert u.leq(v) == all(n in mv and mv[n] == x
                               for n, x in mu.items())
        for n in probes:
            spliced = {m: y for m, y in mu.items() if m < n}
            spliced[n] = 7
            spliced.update((m, y) for m, y in mv.items() if m > n)
            assert u.splice(n, 7, v) == PartialFn(spliced.items())


@given(st.data())
def test_merge_shares_its_operands_entries(data):
    index = data.draw(index_domains)
    pool = [EMPTY]
    for pick, other, x in data.draw(st.lists(
            st.tuples(st.integers(0, 1000), st.integers(0, 1000), values),
            max_size=12)):
        u = pool[pick % len(pool)]
        if data.draw(st.booleans()):
            pool.append(u.update(data.draw(index), x))
        else:
            pool.append(u.merge(pool[other % len(pool)]))
    for u in pool:
        for v in pool:
            merged = u.merge(v)
            assert merged == PartialFn({**dict(v.entries),
                                        **dict(u.entries)}.items())
            own = {id(e) for e in u.entries + v.entries}
            assert all(id(e) in own for e in merged.entries)
            at = dict(zip((n for n, _ in v.entries), v.entries))
            if all(at.get(e[0]) is e for e in u.entries):
                assert merged is v
        child = u.update(data.draw(index), 0)
        assert u.merge(child) is child
