"""Closed root subsets, span closure, and polarization search."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracle import span_closure
from dynr import (
    PropertyViolated,
    TooLarge,
    build_root_system,
    enumerate_closed_subsets,
    find_polarization,
    is_closed_subset,
)
from dynr.combinatorics import additive_closure

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
B2 = build_root_system("B", 2)
G2 = build_root_system("G", 2)


def _closed_oracle(rs, members):
    s = set(members)
    for i in s:
        if rs.neg(i) not in s:
            return False
    for i in s:
        for j in s:
            k = rs.add(i, j)
            if k is not None and k not in s:
                return False
    return True


def _brute_count(rs):
    """Count closed subsets by scanning every symmetric subset."""
    pairs = [(i, rs.neg(i)) for i in rs.positive_roots]
    count = 0
    for mask in itertools.product([0, 1], repeat=len(pairs)):
        members = [x for bit, pr in zip(mask, pairs) if bit for x in pr]
        if _closed_oracle(rs, members):
            count += 1
    return count


def _root_index(rs, coords):
    for i, r in enumerate(rs.roots):
        if np.allclose(r, coords):
            return i
    raise AssertionError(f"no root at {coords}")


def test_is_closed_examples():
    assert is_closed_subset(A1, []) is True
    assert is_closed_subset(A1, [A1.positive_roots[0]]) is False
    long_roots = [_root_index(B2, c) for c in [(1, 1), (1, -1), (-1, -1), (-1, 1)]]
    assert is_closed_subset(B2, long_roots) is True
    # dropping one negation partner breaks it
    assert is_closed_subset(B2, long_roots[:3]) is False


def test_is_closed_matches_oracle_exhaustively():
    rs = B2
    pairs = [(i, rs.neg(i)) for i in rs.positive_roots]
    for mask in itertools.product([0, 1], repeat=len(pairs)):
        members = [x for bit, pr in zip(mask, pairs) if bit for x in pr]
        assert is_closed_subset(rs, members) == _closed_oracle(rs, members)
        assert (additive_closure(rs, members) == set(members)) == _closed_oracle(rs, members)


def _sum_fixpoint(rs, members):
    """Add root sums of members until nothing new appears."""
    s = set(members)
    while True:
        sums = {rs.add(i, j) for i in s for j in s} - {None}
        if sums <= s:
            return s
        s |= sums


@pytest.mark.parametrize("rs", [A2, B2], ids=["A2", "B2"])
def test_additive_closure_matches_fixpoint_exhaustively(rs):
    for mask in itertools.product([0, 1], repeat=rs.n_roots):
        members = [i for i, bit in enumerate(mask) if bit]
        closure = additive_closure(rs, members)
        assert closure >= set(members)
        assert _sum_fixpoint(rs, closure) == closure
        assert closure == _sum_fixpoint(rs, members)


def test_enumeration_counts():
    assert len(enumerate_closed_subsets(A1)) == 2
    assert len(enumerate_closed_subsets(A2)) == 5
    assert len(enumerate_closed_subsets(B2)) == 7
    assert len(enumerate_closed_subsets(G2)) == 12


@pytest.mark.parametrize("rs", [A1, A2, B2, G2], ids=["A1", "A2", "B2", "G2"])
def test_enumeration_matches_brute_force(rs):
    got = enumerate_closed_subsets(rs)
    assert len(got) == _brute_count(rs)
    seen = set()
    for sub in got:
        assert is_closed_subset(rs, sub.members)
        key = frozenset(sub.members)
        assert key not in seen
        seen.add(key)


def test_enumeration_contains_edge_cases():
    subs = {frozenset(s.members) for s in enumerate_closed_subsets(B2)}
    assert frozenset() in subs
    assert frozenset(range(B2.n_roots)) in subs
    long_roots = frozenset(
        _root_index(B2, c) for c in [(1, 1), (1, -1), (-1, -1), (-1, 1)]
    )
    assert long_roots in subs


def test_enumeration_deterministic_order():
    a = [tuple(s.members) for s in enumerate_closed_subsets(B2)]
    b = [tuple(s.members) for s in enumerate_closed_subsets(B2)]
    assert a == b


def test_enumeration_rank_gate():
    with pytest.raises(TooLarge):
        enumerate_closed_subsets(build_root_system("A", 5))


def test_span_closure_examples():
    assert span_closure(A2, []).members == ()
    s0, s1 = A2.simple_roots
    assert set(span_closure(A2, [s0]).members) == {s0}
    full = span_closure(B2, list(B2.simple_roots))
    assert set(full.members) == set(B2.positive_roots)


def test_span_closure_is_additively_closed():
    for rs in (A2, B2, G2):
        for take in range(1, len(rs.simple_roots) + 1):
            for chosen in itertools.combinations(rs.simple_roots, take):
                z = set(span_closure(rs, chosen).members)
                for i in z:
                    assert rs.is_positive(i)
                    for j in z:
                        k = rs.add(i, j)
                        if k is not None:
                            assert k in z


def test_polarization_simple_cases():
    s0 = A2.simple_roots[0]
    res = find_polarization(A2, [s0])
    v = np.asarray(res.vector)
    assert A2.roots[s0] @ v > 0
    assert res.margin > 0

    i = _root_index(B2, (1, 1))
    j = _root_index(B2, (1, -1))
    res = find_polarization(B2, [i, j])
    v = np.asarray(res.vector)
    assert B2.roots[i] @ v > 0 and B2.roots[j] @ v > 0
    assert res.margin > 0


def test_polarization_empty_input():
    res = find_polarization(A2, [])
    assert len(res.positive) == len(A2.positive_roots)


def test_polarization_property_violations():
    i = A2.positive_roots[0]
    with pytest.raises(PropertyViolated):
        find_polarization(A2, [i, A2.neg(i)])
    # two simple roots whose sum is a root, sum missing
    s0, s1 = A2.simple_roots
    with pytest.raises(PropertyViolated):
        find_polarization(A2, [s0, s1])


def _polarization_invariants(rs, res):
    pos = set(res.positive)
    assert len(pos) * 2 == rs.n_roots
    for i in pos:
        assert rs.neg(i) not in pos
    v = np.asarray(res.vector)
    for i in range(rs.n_roots):
        val = rs.roots[i] @ v
        assert abs(val) > 0
        assert (val > 0) == (i in pos)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 12 - 1), st.sampled_from(["A2", "B2", "G2"]))
def test_polarization_random_subsets(mask, name):
    rs = {"A2": A2, "B2": B2, "G2": G2}[name]
    members = [i for b, i in enumerate(range(rs.n_roots)) if mask >> b & 1 and b < rs.n_roots]
    try:
        res = find_polarization(rs, members)
    except PropertyViolated:
        # oracle agrees the input was bad
        s = set(members)
        bad_b = any(rs.neg(i) in s for i in s)
        bad_a = any(
            rs.add(i, j) is not None and rs.add(i, j) not in s for i in s for j in s
        )
        assert bad_a or bad_b
        return
    _polarization_invariants(rs, res)
    v = np.asarray(res.vector)
    for i in members:
        assert rs.roots[i] @ v > 0
