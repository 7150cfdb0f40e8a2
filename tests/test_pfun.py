"""Laws of the finite carriers and canonical extensions."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from barrec.pfun import (EMPTY, FiniteSeq, InfSeq, PartialFn,
                         bounded_search, extend_hat)

indices = st.integers(min_value=0, max_value=30)
values = st.integers(min_value=0, max_value=9)
pfuns = st.dictionaries(indices, values, max_size=8).map(
    lambda d: PartialFn(d.items()))
seqs = st.lists(values, max_size=8).map(FiniteSeq)


def test_update_empty():
    assert PartialFn().update(3, 7) == PartialFn.single(3, 7)


def test_update_keeps_existing_value():
    u = PartialFn.single(1, "a")
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
    u = PartialFn.single(0, "a")
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
    assert PartialFn.single(1, 1).leq(PartialFn(((1, 1), (2, 2))))
    assert not PartialFn.single(1, 1).leq(PartialFn.single(1, 2))


def test_extend_hat_examples():
    assert extend_hat(EMPTY, 0).prefix(4) == [0, 0, 0, 0]
    assert extend_hat(PartialFn.single(2, 5), 0).prefix(4) == [0, 0, 5, 0]
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


def test_json_forms():
    u = PartialFn(((2, 9), (0, 4)))
    assert json.dumps(u.to_json()) == '{"0": 4, "2": 9}'


def test_bounded_search():
    assert bounded_search(10, lambda i: i >= 4) == 4
    assert bounded_search(3, lambda i: False) == 3
    assert bounded_search(0, lambda i: True) == 0


# -- Model tests: the carriers against a tuple and a dict. --------------------

# Small ints are shared objects, so appending one again reuses the slot;
# the big ints are fresh objects that are equal but not identical, which
# forces a sibling copy.
seq_values = st.one_of(st.integers(0, 3),
                       st.integers(0, 3).map(lambda k: 10 ** 30 + k))
seq_ops = st.lists(st.tuples(st.sampled_from(("append", "take")),
                             st.integers(0, 1000), seq_values,
                             st.integers(-10, 10)), max_size=40)


def _build_views(start, ops):
    """Pairs (view, model tuple), each grown from an arbitrary earlier
    pair by ``append`` or ``take``."""
    pool = [(FiniteSeq(start), tuple(start))]
    for op, pick, x, k in ops:
        s, model = pool[pick % len(pool)]
        if op == "append":
            pool.append((s.append(x), model + (x,)))
        else:
            pool.append((s.take(k), model[:k]))
    return pool


@given(st.lists(seq_values, max_size=4), seq_ops)
def test_finite_seq_views_match_tuple_model(start, ops):
    pool = _build_views(start, ops)
    for s, model in pool:
        fresh = FiniteSeq(model)
        assert len(s) == len(model)
        assert tuple(s) == model and s.items == model
        assert s == fresh and hash(s) == hash(fresh) == hash(model)
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


@given(st.lists(seq_values, max_size=4), seq_ops)
def test_finite_seq_overlay_matches_tuple_model(start, ops):
    pool = _build_views(start, ops)
    for s, ms in pool:
        for t, mt in pool:
            merged = s.overlay(t)
            assert merged == FiniteSeq(ms + mt[len(ms):])
            extends = len(mt) > len(ms) and all(
                a is b for a, b in zip(ms, mt))
            if extends:
                assert merged is t
            assert (s == t) == (ms == mt)
            if ms == mt:
                assert hash(s) == hash(t)


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
