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
    merged = s.as_partial().merge(t.as_partial())
    assert s.overlay(t).as_partial() == merged


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
    assert s.as_partial() == PartialFn(((0, 7), (1, 8)))
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
