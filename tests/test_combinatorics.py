"""Closed root subsets, span closure, and polarization search."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracle import span_closure
from dynr import (
    PropertyViolated,
    SpecInvalid,
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


def _brute_closed(rs):
    """Every closed subset as a sorted index tuple, from a scan of all
    2^|positive roots| symmetric subsets at once: a subset is closed when no
    root sum a + b = s has a and b in it and s outside."""
    pos = np.array(rs.positive_roots)
    bits = (np.arange(2 ** len(pos))[:, None] >> np.arange(len(pos))) & 1 == 1
    held = np.zeros((len(bits), rs.n_roots), dtype=bool)
    held[:, pos] = bits
    held[:, [rs.neg(i) for i in pos]] = bits
    broken = np.zeros(len(bits), dtype=bool)
    for a, b in zip(*np.nonzero(rs.sum_table >= 0)):
        broken |= held[:, a] & held[:, b] & ~held[:, rs.sum_table[a, b]]
    return {tuple(np.flatnonzero(row).tolist()) for row in held[~broken]}


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


def _closure_inputs(rs):
    """Every index set on A2 and B2; otherwise the standard polarization,
    its negative, the simple roots and 40 seeded random sets of 1 to 6
    roots, half of them positive."""
    if rs.n_roots <= 8:
        return [[i for i, bit in enumerate(mask) if bit] for mask in itertools.product([0, 1], repeat=rs.n_roots)]
    rng = np.random.default_rng(rs.n_roots)
    pos = list(rs.positive_roots)
    out = [pos, [rs.neg(i) for i in pos], list(rs.simple_roots)]
    for n in range(40):
        pool = pos if n % 2 else range(rs.n_roots)
        out.append(rng.choice(pool, size=1 + n % 6, replace=False).tolist())
    return out


@pytest.mark.parametrize(
    "rs",
    [A2, B2, G2] + [build_root_system(s, r) for s, r in (("B", 3), ("A", 4), ("D", 4), ("F", 4), ("E", 6), ("E", 7), ("E", 8))],
    ids=["A2", "B2", "G2", "B3", "A4", "D4", "F4", "E6", "E7", "E8"],
)
def test_additive_closure_matches_fixpoint_exhaustively(rs):
    """The closure equals the oracle's fixed point, exhaustively on A2 and
    B2 and on _closure_inputs elsewhere."""
    for members in _closure_inputs(rs):
        closure = additive_closure(rs, members)
        assert closure >= set(members)
        assert _sum_fixpoint(rs, closure) == closure
        assert closure == _sum_fixpoint(rs, members)


def test_additive_closure_refuses_an_index_that_is_not_a_root():
    """An index outside range(n_roots) is refused, -1 too, which a root
    mask would read as the last root."""
    for members in ([-1], [0, A2.n_roots]):
        with pytest.raises(SpecInvalid, match="root index out of range"):
            additive_closure(A2, members)


def test_enumeration_counts():
    assert len(enumerate_closed_subsets(A1)) == 2
    assert len(enumerate_closed_subsets(A2)) == 5
    assert len(enumerate_closed_subsets(B2)) == 7
    assert len(enumerate_closed_subsets(G2)) == 12


_ENUM_TYPES = [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3), ("A", 4), ("B", 4), ("C", 4), ("D", 4)]


@pytest.mark.parametrize("series,rank", _ENUM_TYPES, ids=[f"{s}{r}" for s, r in _ENUM_TYPES])
def test_enumeration_matches_brute_force(series, rank):
    """The enumeration lists each closed subset once, as a sorted tuple,
    and nothing else: B4 and C4 scan 2^16 symmetric subsets."""
    rs = build_root_system(series, rank)
    got = enumerate_closed_subsets(rs)
    assert all(list(sub) == sorted(set(sub)) for sub in got)
    assert len(set(got)) == len(got)
    assert set(got) == _brute_closed(rs)


def test_enumeration_on_f4_is_closed():
    """All 447 F4 results are closed by the oracle's own check."""
    rs = build_root_system("F", 4)
    got = enumerate_closed_subsets(rs)
    assert len(got) == len(set(got)) == 447
    for sub in got:
        assert _closed_oracle(rs, sub), sub


def test_enumeration_contains_edge_cases():
    subs = {frozenset(s) for s in enumerate_closed_subsets(B2)}
    assert frozenset() in subs
    assert frozenset(range(B2.n_roots)) in subs
    long_roots = frozenset(
        _root_index(B2, c) for c in [(1, 1), (1, -1), (-1, -1), (-1, 1)]
    )
    assert long_roots in subs


def test_enumeration_deterministic_order():
    a = enumerate_closed_subsets(B2)
    b = enumerate_closed_subsets(B2)
    assert a == b


def test_enumeration_rank_gate():
    with pytest.raises(TooLarge):
        enumerate_closed_subsets(build_root_system("A", 5))


def test_span_closure_examples():
    assert span_closure(A2, []) == ()
    s0, s1 = A2.simple_roots
    assert span_closure(A2, [s0]) == (s0,)
    full = span_closure(B2, list(B2.simple_roots))
    assert full == tuple(sorted(B2.positive_roots))


def test_span_closure_is_additively_closed():
    for rs in (A2, B2, G2):
        for take in range(1, len(rs.simple_roots) + 1):
            for chosen in itertools.combinations(rs.simple_roots, take):
                z = set(span_closure(rs, chosen))
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
