"""Root systems, structure constants, and the invariant form."""

import dataclasses
import hashlib
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from _oracle import basis_index, bracket_table, casimir, jacobi_defect, pairing
from dynr import (
    CartanVector,
    ConstructionFailure,
    RMatrixSpec,
    UnsupportedType,
    build_root_system,
    build_simple_lie_algebra,
    fundamental_weights,
    spec_to_json,
)
from dynr import lie_core
from dynr.lie_core import _verify_algebra
from dynr.verifier import spec_digest


def _algebra(series, rank):
    return build_simple_lie_algebra(build_root_system(series, rank))


def test_a1_has_two_roots():
    rs = build_root_system("A", 1)
    assert rs.n_roots == 2
    assert len(rs.positive_roots) == 1
    assert len(rs.simple_roots) == 1


def test_b2_root_coordinates():
    rs = build_root_system("B", 2)
    got = {tuple(np.round(r, 12)) for r in rs.roots}
    want = {
        (1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0),
        (1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0),
    }
    assert got == want


def test_g2_root_count():
    rs = build_root_system("G", 2)
    assert rs.n_roots == 12
    assert len(rs.positive_roots) == 6
    # (a, a) as a float, long roots at 2: the short ones are a third of that
    assert sorted({rs.length_sq(i) for i in range(rs.n_roots)}) == [2 / 3, 2.0]


def test_cartan_matrix_entries():
    a2 = build_root_system("A", 2)
    assert np.array_equal(a2.cartan_matrix, [[2, -1], [-1, 2]])
    b2 = build_root_system("B", 2)
    assert np.array_equal(b2.cartan_matrix, [[2, -2], [-1, 2]])
    g2 = build_root_system("G", 2)
    assert np.array_equal(g2.cartan_matrix, [[2, -1], [-3, 2]])


def test_root_index_helpers():
    rs = build_root_system("A", 2)
    for i in range(rs.n_roots):
        assert np.allclose(rs.roots[rs.neg(i)], -rs.roots[i])
    # alpha1 + alpha2 is a root, alpha1 + alpha1 is not
    s0, s1 = rs.simple_roots
    assert rs.add(s0, s1) is not None
    assert rs.add(s0, s0) is None
    assert rs.is_positive(rs.add(s0, s1))


_ALL_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4), ("D", 3), ("D", 4), ("G", 2), ("F", 4),
    ("E", 6), ("E", 7), ("E", 8),
]


def _coefficient_lookup(rs):
    """Index of the root with a coefficient vector, or None, from a dict
    keyed by coefficient tuples."""
    by_tuple = {tuple(c): i for i, c in enumerate(rs.coeffs.tolist())}
    return lambda v: by_tuple.get(tuple(int(x) for x in v))


@pytest.mark.parametrize("series,rank", _ALL_TYPES)
def test_root_codes_match_coefficient_lookup(series, rank):
    """add and neg agree with a dict keyed by coefficient tuples."""
    rs = build_root_system(series, rank)
    find = _coefficient_lookup(rs)
    c = rs.coeffs
    n = rs.n_roots
    sums = (c[:, None, :] + c[None, :, :]).reshape(n * n, rank)
    diffs = (c[:, None, :] - c[None, :, :]).reshape(n * n, rank)
    want_sum = [find(v) for v in sums]
    assert [rs.add(i, j) for i in range(n) for j in range(n)] == want_sum
    assert [rs.add(i, rs.neg(j)) for i in range(n) for j in range(n)] == [find(v) for v in diffs]
    table = rs.sum_table.ravel().tolist()
    assert table == [-1 if w is None else w for w in want_sum]
    assert [rs.neg(i) for i in range(n)] == [find(-v) for v in c]
    assert rs.is_positive(rs.positive_roots[-1]) and not rs.is_positive(rs.neg(rs.positive_roots[-1]))


@pytest.mark.parametrize("series,rank", [("D", 20), ("A", 30)])
def test_root_codes_past_int64(series, rank):
    """Codes that outgrow 64-bit integers are kept as Python integers."""
    rs = build_root_system(series, rank)
    find = _coefficient_lookup(rs)
    rng = np.random.default_rng(0)
    for i, j in rng.integers(0, rs.n_roots, size=(3000, 2)):
        assert rs.add(i, j) == find(rs.coeffs[i] + rs.coeffs[j])
        assert rs.add(i, rs.neg(j)) == find(rs.coeffs[i] - rs.coeffs[j])
    assert [rs.neg(i) for i in range(rs.n_roots)] == [find(-c) for c in rs.coeffs]
    s0, s1 = rs.simple_roots[:2]
    assert rs.add(s0, s1) is not None
    row = [find(rs.coeffs[s0] + c) for c in rs.coeffs]
    assert rs.sum_table[s0].tolist() == [-1 if w is None else w for w in row]


@pytest.mark.parametrize("series,rank", _ALL_TYPES)
def test_chevalley_constants_are_integers_of_size_p_plus_one(series, rank):
    """Carter's magnitude rule: on every root sum a + b, N(a, b) is an
    integer +-(p + 1), p the largest k with b - k a a root.  Only the sign
    comes from the extraspecial recursion."""
    rs = build_root_system(series, rank)
    find = _coefficient_lookup(rs)
    chev = lie_core._ChevalleyConstants(rs)
    for a, b in np.argwhere(rs.sum_table >= 0).tolist():
        p = 0
        while find(rs.coeffs[b] - (p + 1) * rs.coeffs[a]) is not None:
            p += 1
        n = chev.N(a, b)
        assert type(n) is int and abs(n) == p + 1


def test_inexact_length_ratio_is_refused():
    """A root three times too long leaves a rotation rule N(x,y)(x,x)/(w,w)
    that is not an integer."""
    rs = build_root_system("A", 2)
    rs._len_sq = (3 * rs._len_sq[0],) + rs._len_sq[1:]
    with pytest.raises(ConstructionFailure, match="inexact division in a structure constant"):
        build_simple_lie_algebra(rs, cache_dir="")


# sha256 prefixes of the exact root-to-root constants (in assembly order) and
# of the JSON of two default specs.  They pin root order, simple roots, the
# extraspecial sign convention and the spec document across changes to the
# root arithmetic; the float Cartan legs are left out, their last bits may
# follow the LAPACK build.
_DIGESTS = {
    "A1": ("4f53cda18c2baa0c", "d471ddcc475dc9cc"),
    "A2": ("11d3ad6eb2d15f2c", "a4eb897ccaa8b18f"),
    "A3": ("6a4a4c071f930e0b", "085e5e7b206588e6"),
    "A4": ("6ac90f1ba3044809", "4325a5edbf0fcc9e"),
    "B2": ("d1c9158ec3a26985", "4679410488a3a63a"),
    "B3": ("397639d7a38df4c4", "ed48f26d303b73ef"),
    "B4": ("0159ca01f2193e8f", "1c556428d3b28f6c"),
    "C2": ("9e99918b752c0f3c", "cd797b61b4584f50"),
    "C3": ("0be034c153a4eaa4", "ee3ee7db3ef9b670"),
    "C4": ("7288fc0e71e3ec84", "08538eee1830d407"),
    "D3": ("ceb991f3b6e16ed4", "e38d060024ee5cc9"),
    "D4": ("699d7bb8b9a37022", "d2757e4a99e92b0b"),
    "G2": ("8a3bf395daede642", "04cc90acfd2e2e40"),
    "F4": ("4bc0b78e0bf43cb6", "ffde56b62b03ce88"),
    "E6": ("fd8ca33dec8e05c8", "a57f63ece5025cbf"),
    "E7": ("24b1dec8ec6400bd", "101923b2a6e5c782"),
    "E8": ("5c138c2ed273d0c2", "a2a1c0cb3b2175ba"),
}


@pytest.mark.parametrize("series,rank", _ALL_TYPES)
def test_structure_constants_and_spec_digests_fixed(series, rank):
    g = build_simple_lie_algebra(build_root_system(series, rank), cache_dir="")
    rs = g.root_system
    # the root-to-root constants, exact rationals before they were stored as floats
    exact = [(int(i), int(j), ((int(k), Fraction(float(v)).limit_denominator(100)),))
             for i, j, k, v in zip(*g.structure_constants) if min(i, j, k) >= rank]
    docs = [
        spec_to_json(RMatrixSpec(algebra=g, family="TrigCotanh", eps=2.0)),
        spec_to_json(RMatrixSpec(algebra=g, family="TrigDegenerate", eps=2.0, X=(rs.simple_roots[-1],))),
    ]
    got = (
        hashlib.sha256(repr(exact).encode()).hexdigest()[:16],
        hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()[:16],
    )
    assert got == _DIGESTS[f"{series}{rank}"]


def test_dimensions():
    assert _algebra("A", 1).dim == 3
    assert _algebra("A", 2).dim == 8
    assert _algebra("B", 2).dim == 10
    assert _algebra("G", 2).dim == 14


@pytest.mark.parametrize("series,rank", [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 3)])
def test_bracket_antisymmetry_and_jacobi(series, rank):
    g = _algebra(series, rank)
    f = bracket_table(g)
    assert np.max(np.abs(f + f.transpose(1, 0, 2))) < 1e-13
    # [[a,b],c] + [[b,c],a] + [[c,a],b] = 0, contracted over the table
    jac = (
        np.einsum("abx,xcy->abcy", f, f)
        + np.einsum("bcx,xay->bcay", f, f).transpose(2, 0, 1, 3)
        + np.einsum("cax,xby->caby", f, f).transpose(1, 2, 0, 3)
    )
    assert np.max(np.abs(jac)) < 1e-13


def _with_constants(g, edit):
    """Copy of g whose entry arrays are edit(i, j, k, v) of writable copies."""
    return dataclasses.replace(g, structure_constants=edit(*(np.array(c) for c in g.structure_constants)))


def _simple_pair(g):
    """Basis indices of the first two simple roots whose sum is a root."""
    rs = g.root_system
    s0, s1 = next((s, t) for s in rs.simple_roots for t in rs.simple_roots if rs.add(s, t) is not None)
    return basis_index(g, s0), basis_index(g, s1)


def _scaled(pairs, c):
    """An edit that scales the rows of each bracket [b_a, b_b], (a, b) in pairs, by c."""
    def edit(i, j, k, v):
        for a, b in pairs:
            v[(i == a) & (j == b)] *= c
        return i, j, k, v
    return edit


def _appended(row):
    """An edit that appends one (i, j, k, v) row; a complex v makes v complex."""
    return lambda *cols: tuple(np.append(c, x) for c, x in zip(cols, row))


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2), ("E", 7)])
def test_verify_algebra_rejects_broken_jacobi(series, rank):
    """E7 was built without a Jacobi check while the dense check was limited
    to dim <= 80."""
    g = _algebra(series, rank)
    _verify_algebra(g)
    i, j = _simple_pair(g)
    fi, fj, _, _ = g.structure_constants
    assert np.any((fi == i) & (fj == j))
    # antisymmetry survives, the Jacobi identity does not
    double = _scaled([(i, j), (j, i)], 2)
    with pytest.raises(ConstructionFailure, match="Jacobi identity violated"):
        _verify_algebra(_with_constants(g, double))


def test_verify_algebra_rejects_imaginary_constant():
    g = _algebra("A", 2)
    e0 = basis_index(g, 0)
    with pytest.raises(ConstructionFailure, match="not real"):
        _verify_algebra(_with_constants(g, _appended((0, e0, e0, 1e-3j))))


def test_verify_algebra_rejects_nan_constant():
    g = _algebra("A", 2)
    i, j = _simple_pair(g)
    nan = _scaled([(i, j), (j, i)], float("nan"))
    with pytest.raises(ConstructionFailure, match="antisymmetry violated"):
        _verify_algebra(_with_constants(g, nan))


def test_verify_algebra_rejects_broken_antisymmetry():
    g = _algebra("B", 3)
    i, j = _simple_pair(g)
    with pytest.raises(ConstructionFailure, match="antisymmetry violated"):
        _verify_algebra(_with_constants(g, _scaled([(j, i)], 2)))


def test_verify_algebra_rejects_broken_invariance():
    g = _algebra("G", 2)
    rs = g.root_system
    a = rs.simple_roots[0]
    i, j = basis_index(g, a), basis_index(g, rs.neg(a))
    b = g.bilinear_form.copy()
    b[i, j] = b[j, i] = 2.0
    with pytest.raises(ConstructionFailure, match="invariance of the form violated"):
        _verify_algebra(dataclasses.replace(g, bilinear_form=b))


def _dropped(rows):
    """An edit that deletes the rows where rows(i, j, k) is true."""
    return lambda i, j, k, v: tuple(c[~rows(i, j, k)] for c in (i, j, k, v))


def _both_orders(x, y):
    """The rows of [b_x, b_y] and of [b_y, b_x], as a predicate on (i, j, k)."""
    return lambda i, j, _: ((i == x) & (j == y)) | ((i == y) & (j == x))


def _zeroed(rows):
    """An edit that sets v to 0 on the rows where rows(i, j, k) is true."""
    def edit(i, j, k, v):
        v[rows(i, j, k)] = 0.0
        return i, j, k, v
    return edit


def test_verify_algebra_rejects_an_empty_table():
    """No bracket at all passes antisymmetry, Jacobi and invariance."""
    g = _algebra("A", 2)
    empty = _with_constants(g, _dropped(lambda i, j, k: np.ones(len(i), bool)))
    with pytest.raises(ConstructionFailure, match="Chevalley relations violated"):
        _verify_algebra(empty)


@pytest.mark.parametrize("series,rank", [("A", 1), ("A", 2), ("B", 3), ("G", 2), ("E", 6)])
def test_chevalley_check_reads_every_relation(series, rank):
    """Dropping the [e_a, e_{-a}] rows of one root pair, zeroing the
    [x_k, e_a] rows of one root, or dropping or zeroing the [e_a, e_b] rows
    of one root sum a + b, both orders so antisymmetry holds, is a Chevalley
    defect of at least the size of the lost entry."""
    g = _algebra(series, rank)
    assert lie_core._chevalley_defect(g, *g.structure_constants) == 0.0
    rs = g.root_system
    a = rs.simple_roots[-1]
    ea, eb = basis_index(g, a), basis_index(g, rs.neg(a))
    k = int(np.flatnonzero(rs.roots[a])[0])
    edits = [(_dropped(_both_orders(ea, eb)), abs(rs.roots[a, k])), (_zeroed(_both_orders(k, ea)), abs(rs.roots[a, k]))]
    if rank > 1:  # A1 has no root sum
        x, y = _simple_pair(g)
        fi, fj, _, fv = g.structure_constants
        lost = np.max(np.abs(fv[(fi == x) & (fj == y)]))
        edits += [(_dropped(_both_orders(x, y)), lost), (_zeroed(_both_orders(x, y)), lost)]
    for edit, lost in edits:
        broken = _with_constants(g, edit)
        assert lie_core._chevalley_defect(broken, *broken.structure_constants) >= lost
        with pytest.raises(ConstructionFailure):
            _verify_algebra(broken)


def _dense_defects(g):
    """(antisymmetry, Jacobi, invariance) maxima from the dense bracket table.

    The Jacobi sum [a,[b,c]] + [c,[a,b]] + [b,[c,a]] is formed one index a
    at a time as three GEMMs into (b, c, k) slices.
    """
    f = bracket_table(g).real
    n = g.dim
    anti = np.max(np.abs(f + np.swapaxes(f, 0, 1)))
    rows = f.reshape(n * n, n)  # [(b, c), m]
    cols = f.transpose(1, 0, 2).reshape(n, n * n)  # [m, (c, k)]
    jac = 0.0
    for a in range(n):
        total = (
            (rows @ f[a]).reshape(n, n, n)
            + (f[a] @ cols).reshape(n, n, n)
            + (f[:, a, :] @ cols).reshape(n, n, n).transpose(1, 0, 2)
        )
        jac = max(jac, np.max(np.abs(total)))
    b = g.bilinear_form
    inv = np.max(np.abs(np.tensordot(f, b, ([2], [0])) - np.tensordot(b, f, ([1], [2]))))
    return anti, jac, inv


def _sparse_defects(g):
    """(antisymmetry, Jacobi, invariance) maxima from the entry arrays, the
    Jacobi one from the oracle's join over every term."""
    i, j, k, v = g.structure_constants
    return (
        lie_core._antisymmetry_defect(g.dim, i, j, k, v),
        jacobi_defect(g.dim, i, j, k, v),
        lie_core._invariance_defect(g.bilinear_form, i, j, k, v),
    )


@pytest.mark.parametrize(
    "series,rank",
    [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("B", 3), ("C", 3), ("A", 4), ("D", 4), ("F", 4)],
)
def test_sparse_algebra_check_matches_dense_oracle(series, rank):
    """The sparse defects equal the dense table's.  The library's Jacobi
    check reads the generators only, so it can read another number (3.5
    against 3.0 on A2's diagonal row); it is held to the same verdict."""
    g = _algebra(series, rank)
    rs = g.root_system
    i, j = _simple_pair(g) if rank > 1 else (basis_index(g, 0), basis_index(g, 1))
    a = rs.simple_roots[0]
    b = g.bilinear_form.copy()
    b[basis_index(g, a), basis_index(g, rs.neg(a))] *= 3.0
    double = _scaled([(i, j), (j, i)], 2)
    one_sided = _scaled([(j, i)], -0.5)
    diagonal = _appended((i, i, j, 1.0))
    off = g.bilinear_form.copy()
    off[0, -1] += 0.25
    variants = [g, _with_constants(g, double), _with_constants(g, one_sided), _with_constants(g, diagonal),
                dataclasses.replace(g, bilinear_form=b), dataclasses.replace(g, bilinear_form=off)]
    for n, h in enumerate(variants):
        dense, sparse = _dense_defects(h), _sparse_defects(h)
        for d, s in zip(dense, sparse):
            assert abs(d - s) <= 1e-14 + 1e-12 * d
        generators = (sparse[0], lie_core._jacobi_defect(h, *h.structure_constants), sparse[2])
        if n == 0:
            assert max(sparse) <= 1e-13 and max(generators) <= 1e-13
        else:
            assert max(sparse) > 0.1 and max(generators) > 0.1  # every corruption is seen


def _outer_pair(g):
    """Basis indices of the first two roots, neither +-simple, whose sum is
    a root; None when there is no such pair."""
    rs = g.root_system
    outer = sorted(set(range(rs.n_roots)) - set(rs.simple_roots) - {rs.neg(s) for s in rs.simple_roots})
    pair = next(((a, b) for a in outer for b in outer if rs.add(a, b) is not None), None)
    return pair and (basis_index(g, pair[0]), basis_index(g, pair[1]))


@pytest.mark.parametrize(
    "series,rank",
    [("A", 1), ("A", 3), ("B", 3), ("C", 4), ("D", 5), ("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)],
)
def test_generator_jacobi_defect_has_the_one_join_verdict(series, rank):
    """The Jacobi check on the generators reads round-off exactly when the
    oracle's join over every (a, b, c) does: on the clean table, a doubled
    simple pair, and a sign-flipped or dropped pair of roots that are not
    generators, each in both orders."""
    g = _algebra(series, rank)
    # on A1 a doubled [e, f] is still a Lie algebra, a doubled [h, e] is not
    i, j = _simple_pair(g) if rank > 1 else (0, basis_index(g, 0))
    variants = [g, _with_constants(g, _scaled([(i, j), (j, i)], 2))]
    outer = _outer_pair(g)
    if outer:  # A1 has none
        a, b = outer
        variants += [_with_constants(g, _scaled([(a, b), (b, a)], -1)), _with_constants(g, _dropped(_both_orders(a, b)))]
    for n, h in enumerate(variants):
        args = h.structure_constants
        oracle = jacobi_defect(h.dim, *args)
        assert (lie_core._jacobi_defect(h, *args) <= 1e-13) == (oracle <= 1e-13)
        assert (oracle <= 1e-13) == (n == 0)


def test_generator_jacobi_defect_reads_both_halves_of_the_generators():
    """On A2, with t the highest root, a row [e_{-t}, e_{-a_1}] on e_t breaks
    ad_x as a derivation only for x among the e_{-a_s}, and a row
    [e_{a_1}, e_t] on e_{-t} only for x among the e_{a_s}."""
    g = _algebra("A", 2)
    rs = g.root_system
    top, a = max(rs.positive_roots, key=rs.height), rs.simple_roots[0]
    for roots in ((rs.neg(top), rs.neg(a), top), (a, top, rs.neg(top))):
        x, y, out = (basis_index(g, r) for r in roots)
        h = _with_constants(_with_constants(g, _appended((x, y, out, 1.0))), _appended((y, x, out, -1.0)))
        assert jacobi_defect(h.dim, *h.structure_constants) > 0.1
        assert lie_core._jacobi_defect(h, *h.structure_constants) > 0.1


@pytest.mark.parametrize("series,rank", [("E", 7), ("E", 8)])
def test_algebra_check_memory_is_bounded(series, rank):
    """One join over E7's terms peaked at about 22 MiB; the check joins one
    generator's rows at a time, so it stays near the entry lists."""
    g = _algebra(series, rank)
    tracemalloc.start()
    try:
        _verify_algebra(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("series,rank", [("A", 1), ("A", 2), ("B", 2), ("G", 2)])
def test_bilinear_form_invariance(series, rank):
    g = _algebra(series, rank)
    f = bracket_table(g)
    b = g.bilinear_form
    # B([a,b],c) = B(a,[b,c])
    lhs = np.einsum("abx,xc->abc", f, b)
    rhs = np.einsum("ax,bcx->abc", b, f)
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    assert np.max(np.abs(b - b.T)) == 0


def test_bilinear_form_blocks():
    g = _algebra("B", 2)
    rs = g.root_system
    r = rs.rank
    b = g.bilinear_form
    assert np.allclose(b[:r, :r], np.eye(r))
    for i in range(rs.n_roots):
        for j in range(rs.n_roots):
            want = 1.0 if j == rs.neg(i) else 0.0
            assert b[basis_index(g, i), basis_index(g, j)] == pytest.approx(want)
    v = np.zeros(g.dim)
    v[basis_index(g, 0)] = 1.0
    assert np.allclose(b[: g.rank, g.rank :], 0)


@pytest.mark.parametrize("series,rank", [("A", 1), ("A", 2), ("B", 2), ("G", 2)])
def test_cartan_bracket_of_opposite_roots(series, rank):
    """[e_a, e_{-a}] lands in the Cartan and represents (a, .)."""
    g = _algebra(series, rank)
    rs = g.root_system
    f = bracket_table(g)
    for i in range(rs.n_roots):
        h = f[basis_index(g, i), basis_index(g, rs.neg(i))]
        assert np.max(np.abs(h[rs.rank :])) < 1e-13
        assert np.allclose(h[: rs.rank], rs.roots[i], atol=1e-13)


def test_root_vector_weights():
    """[x, e_a] = (a, x) e_a for Cartan elements x."""
    g = _algebra("B", 2)
    rs = g.root_system
    f = bracket_table(g)
    for k in range(rs.rank):
        for i in range(rs.n_roots):
            col = f[k, basis_index(g, i)]
            want = np.zeros(g.dim, dtype=complex)
            want[basis_index(g, i)] = rs.roots[i][k]
            assert np.max(np.abs(col - want)) < 1e-13


def test_pairing_values():
    rs = build_root_system("A", 1)
    lam = CartanVector.of([math.sqrt(2.0)])
    assert pairing(rs, lam, rs.positive_roots[0]) == pytest.approx(2.0)
    # linear in lam and sign-flips with the root
    assert pairing(rs, lam.scale(3.0), rs.positive_roots[0]) == pytest.approx(6.0)
    neg = rs.neg(rs.positive_roots[0])
    assert pairing(rs, lam, neg) == pytest.approx(-2.0)
    # shift subtracts before pairing
    assert pairing(rs, lam, rs.positive_roots[0], shift=lam) == pytest.approx(0.0)


def test_pairing_complex_point():
    rs = build_root_system("A", 2)
    lam = CartanVector.of([0.3 + 0.2j, -1.1 + 0.05j])
    a = rs.simple_roots[0]
    want = complex(np.dot(rs.roots[a], lam.as_array()))
    assert pairing(rs, lam, a) == pytest.approx(want)


def test_fundamental_weights_duality():
    for series, rank in [("A", 2), ("B", 2), ("G", 2)]:
        rs = build_root_system(series, rank)
        w = fundamental_weights(rs)
        for i in range(rank):
            for j, sj in enumerate(rs.simple_roots):
                a = rs.roots[sj]
                val = 2.0 * np.dot(w[i], a) / np.dot(a, a)
                assert val == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)


def test_casimir_symmetric_and_invariant():
    for series, rank in [("A", 1), ("B", 2)]:
        g = _algebra(series, rank)
        om = casimir(g)
        assert np.max(np.abs(om.data - om.data.T)) < 1e-13
        # ad-invariance: [x (x) 1 + 1 (x) x, omega] = 0 for every basis x
        f = bracket_table(g)
        for a in range(g.dim):
            comm = np.einsum("ij,ik->kj", om.data, f[a]) + np.einsum(
                "ij,jk->ik", om.data, f[a]
            )
            assert np.max(np.abs(comm)) < 1e-13


def test_cartan_vector_arithmetic():
    u = CartanVector.of([1.0, 2.0])
    v = CartanVector.of([0.5, -1.0])
    assert np.allclose((u + v).as_array(), [1.5, 1.0])
    assert np.allclose((u - v).as_array(), [0.5, 3.0])
    assert np.allclose(u.scale(2j).as_array(), [2j, 4j])
    assert np.allclose(CartanVector.zero(3).as_array(), [0, 0, 0])


def _assert_same_entries(g1, g2):
    """The entry arrays of g1 and g2 agree in dtype and bytes, row for row."""
    for c1, c2 in zip(g1.structure_constants, g2.structure_constants, strict=True):
        assert c1.dtype == c2.dtype and c1.tobytes() == c2.tobytes()


def test_cache_round_trip(tmp_path):
    rs = build_root_system("B", 2)
    g1 = build_simple_lie_algebra(rs, cache_dir=str(tmp_path))
    g2 = build_simple_lie_algebra(rs, cache_dir=str(tmp_path))
    assert g1.dim == g2.dim
    # second build loads the cached constants bit for bit
    _assert_same_entries(g1, g2)
    assert np.array_equal(bracket_table(g1), bracket_table(g2))


@pytest.mark.parametrize("series,rank", [("A", 1), ("A", 2), ("B", 3), ("G", 2), ("F", 4), ("E", 6)])
def test_cached_entry_arrays_equal_a_fresh_build_in_order(tmp_path, monkeypatch, series, rank):
    """A cache-loaded algebra lists the same rows as a fresh build, in the
    same order, so every check and the residual plan see the same terms."""
    rs = build_root_system(series, rank)
    fresh = build_simple_lie_algebra(rs, cache_dir=str(tmp_path))
    monkeypatch.setattr(lie_core, "_assemble_constants", None)  # the second build must load
    loaded = build_simple_lie_algebra(rs, cache_dir=str(tmp_path))
    _assert_same_entries(fresh, loaded)
    assert [c.dtype for c in loaded.structure_constants] == [np.int64] * 3 + [np.float64]
    assert not any(c.flags.writeable for c in fresh.structure_constants + loaded.structure_constants)


def test_cache_document_carries_entry_checksum(tmp_path):
    rs = build_root_system("A", 2)
    g = build_simple_lie_algebra(rs, cache_dir=str(tmp_path))
    (path,) = tmp_path.iterdir()
    assert path.name == "structure_A2_v3.json"
    doc = json.loads(path.read_text())
    assert doc["version"] == 3
    assert doc["entries"] == [c.tolist() for c in g.structure_constants]  # four lists, in row order
    canonical = json.dumps(doc["entries"], separators=(",", ":")).encode()
    assert doc["sha256"] == hashlib.sha256(canonical).hexdigest()


def test_digests_equal_hashlib_sha256(tmp_path):
    """spec_digest and the cache checksum, taken with CPython's builtin
    sha256 module, equal hashlib.sha256 of the same bytes."""
    g = build_simple_lie_algebra(build_root_system("F", 4), cache_dir=str(tmp_path))
    doc = json.loads((tmp_path / "structure_F4_v3.json").read_text())
    canonical = json.dumps(doc["entries"], separators=(",", ":")).encode()
    assert lie_core._entries_digest(doc["entries"]) == doc["sha256"] == hashlib.sha256(canonical).hexdigest()
    rs = g.root_system
    specs = [
        RMatrixSpec(algebra=g, family="TrigCotanh", eps=2.0),
        RMatrixSpec(algebra=g, family="TrigDegenerate", eps=1.5, X=rs.simple_roots[:2]),
        RMatrixSpec(algebra=g, family="EllipticSpectral", tau=0.3 + 1.1j),
        RMatrixSpec(algebra=g, family="RationalConstant", X=tuple(range(rs.n_roots)), debug_flip_root=3),
    ]
    for spec in specs:
        text = json.dumps(spec_to_json(spec), sort_keys=True).encode()
        assert spec_digest(spec) == f"{spec.family}:{hashlib.sha256(text).hexdigest()[:12]}"


def _rewrite_entries(doc, edit, resign=True):
    """The cache document after edit(entries), with its checksum updated or not."""
    edit(doc["entries"])
    if resign:
        canonical = json.dumps(doc["entries"], separators=(",", ":")).encode()
        doc["sha256"] = hashlib.sha256(canonical).hexdigest()
    return json.dumps(doc)


def _double_root_constants(entries):
    """Double every root-to-root constant of A2: the rows whose i, j and k are all root vectors."""
    v = entries[3]
    v[:] = [2 * x if min(row) >= 2 else x for *row, x in zip(*entries)]


@pytest.mark.parametrize("damage", [
    lambda text, doc: text[: len(text) // 2],  # truncated
    lambda text, doc: "",
    lambda text, doc: "[1, 2, 3]",
    lambda text, doc: _rewrite_entries(doc, _double_root_constants, resign=False),
    lambda text, doc: _rewrite_entries(doc, lambda e: e[3].pop()),  # lists of unequal length
    lambda text, doc: _rewrite_entries(doc, lambda e: e.pop()),  # three lists
    lambda text, doc: _rewrite_entries(doc, lambda e: e[0].__setitem__(0, 999)),  # index out of range
    lambda text, doc: _rewrite_entries(doc, lambda e: e[1].__setitem__(0, -1)),
    lambda text, doc: _rewrite_entries(doc, lambda e: e[3].__setitem__(0, "z")),  # value not a number
    lambda text, doc: _rewrite_entries(doc, lambda e: e[3].__setitem__(0, [1.0])),
    lambda text, doc: _rewrite_entries(doc, lambda e: e[2].__setitem__(0, 1.0)),  # float index
    lambda text, doc: _rewrite_entries(doc, lambda e: e[1].__setitem__(0, True)),  # bool index
    lambda text, doc: _rewrite_entries(doc, lambda e: e[0].__setitem__(0, 2**70)),
    lambda text, doc: _rewrite_entries(doc, lambda e: e[3].__setitem__(0, float("nan"))),
    lambda text, doc: _rewrite_entries(doc, lambda e: e[3].__setitem__(0, 10**400)),
])
def test_unusable_cache_is_rebuilt(tmp_path, damage):
    rs = build_root_system("A", 2)
    g1 = build_simple_lie_algebra(rs, cache_dir=str(tmp_path))
    path = tmp_path / "structure_A2_v3.json"
    good = path.read_text()
    path.write_text(damage(good, json.loads(good)))
    g2 = build_simple_lie_algebra(rs, cache_dir=str(tmp_path))
    _assert_same_entries(g1, g2)
    assert path.read_text() == good
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_cache_with_valid_checksum_is_still_checked(tmp_path):
    rs = build_root_system("A", 2)
    build_simple_lie_algebra(rs, cache_dir=str(tmp_path))
    path = tmp_path / "structure_A2_v3.json"
    doc = json.loads(path.read_text())
    path.write_text(_rewrite_entries(doc, _double_root_constants))
    with pytest.raises(ConstructionFailure, match="Jacobi identity violated"):
        build_simple_lie_algebra(rs, cache_dir=str(tmp_path))


def test_signed_cache_with_no_entries_is_refused(tmp_path):
    """Four empty lists, re-signed, describe an algebra with no brackets."""
    rs = build_root_system("A", 2)
    build_simple_lie_algebra(rs, cache_dir=str(tmp_path))
    path = tmp_path / "structure_A2_v3.json"
    path.write_text(_rewrite_entries(json.loads(path.read_text()), lambda e: [c.clear() for c in e]))
    with pytest.raises(ConstructionFailure, match="Chevalley relations violated"):
        build_simple_lie_algebra(rs, cache_dir=str(tmp_path))


def test_unsupported_types():
    with pytest.raises(UnsupportedType):
        build_root_system("Z", 9)
    with pytest.raises(UnsupportedType):
        build_root_system("A", 0)
    with pytest.raises(UnsupportedType):
        build_root_system("G", 3)
    with pytest.raises(UnsupportedType):
        build_root_system("B", 1)
