"""Root systems, structure constants, and the invariant form."""

import dataclasses
import math

import numpy as np
import pytest

from dynr import (
    CartanVector,
    ConstructionFailure,
    UnsupportedType,
    build_root_system,
    build_simple_lie_algebra,
    casimir,
    fundamental_weights,
    pairing,
)
from dynr.lie_core import _verify_algebra


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
        assert rs.index_of(rs.coeffs[i]) == i
    # alpha1 + alpha2 is a root, alpha1 + alpha1 is not
    s0, s1 = rs.simple_roots
    assert rs.add(s0, s1) is not None
    assert rs.add(s0, s0) is None
    assert rs.is_positive(rs.add(s0, s1))


def test_dimensions():
    assert _algebra("A", 1).dim == 3
    assert _algebra("A", 2).dim == 8
    assert _algebra("B", 2).dim == 10
    assert _algebra("G", 2).dim == 14


@pytest.mark.parametrize("series,rank", [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 3)])
def test_bracket_antisymmetry_and_jacobi(series, rank):
    g = _algebra(series, rank)
    f = g.bracket_table()
    assert np.max(np.abs(f + f.transpose(1, 0, 2))) < 1e-13
    # [[a,b],c] + [[b,c],a] + [[c,a],b] = 0, contracted over the table
    jac = (
        np.einsum("abx,xcy->abcy", f, f)
        + np.einsum("bcx,xay->bcay", f, f).transpose(2, 0, 1, 3)
        + np.einsum("cax,xby->caby", f, f).transpose(1, 2, 0, 3)
    )
    assert np.max(np.abs(jac)) < 1e-13


def _with_table(g, f):
    """Copy of g whose dense bracket table is f."""
    h = dataclasses.replace(g)
    h._dense = f
    return h


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2)])
def test_verify_algebra_rejects_broken_jacobi(series, rank):
    g = _algebra(series, rank)
    _verify_algebra(g)
    rs = g.root_system
    s0, s1 = rs.simple_roots[:2]
    i, j = g.root_basis_index(s0), g.root_basis_index(s1)
    f = g.bracket_table().copy()
    assert np.any(f[i, j])
    # antisymmetry survives, the Jacobi identity does not
    f[i, j] *= 2
    f[j, i] *= 2
    with pytest.raises(ConstructionFailure, match="Jacobi identity violated"):
        _verify_algebra(_with_table(g, f))


def test_verify_algebra_rejects_imaginary_constant():
    g = _algebra("A", 2)
    f = g.bracket_table().copy()
    f[0, g.root_basis_index(0), g.root_basis_index(0)] += 1e-3j
    with pytest.raises(ConstructionFailure, match="not real"):
        _verify_algebra(_with_table(g, f))


@pytest.mark.parametrize("series,rank", [("A", 1), ("A", 2), ("B", 2), ("G", 2)])
def test_bilinear_form_invariance(series, rank):
    g = _algebra(series, rank)
    f = g.bracket_table()
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
            assert b[g.root_basis_index(i), g.root_basis_index(j)] == pytest.approx(want)
    v = np.zeros(g.dim)
    v[g.root_basis_index(0)] = 1.0
    assert np.allclose(b[: g.rank, g.rank :], 0)


@pytest.mark.parametrize("series,rank", [("A", 1), ("A", 2), ("B", 2), ("G", 2)])
def test_cartan_bracket_of_opposite_roots(series, rank):
    """[e_a, e_{-a}] lands in the Cartan and represents (a, .)."""
    g = _algebra(series, rank)
    rs = g.root_system
    f = g.bracket_table()
    for i in range(rs.n_roots):
        h = f[g.root_basis_index(i), g.root_basis_index(rs.neg(i))]
        assert np.max(np.abs(h[rs.rank :])) < 1e-13
        assert np.allclose(h[: rs.rank], rs.roots[i], atol=1e-13)


def test_root_vector_weights():
    """[x, e_a] = (a, x) e_a for Cartan elements x."""
    g = _algebra("B", 2)
    rs = g.root_system
    f = g.bracket_table()
    for k in range(rs.rank):
        for i in range(rs.n_roots):
            col = f[k, g.root_basis_index(i)]
            want = np.zeros(g.dim, dtype=complex)
            want[g.root_basis_index(i)] = rs.roots[i][k]
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
        f = g.bracket_table()
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


def test_cache_round_trip(tmp_path):
    rs = build_root_system("B", 2)
    g1 = build_simple_lie_algebra(rs, cache_dir=str(tmp_path))
    g2 = build_simple_lie_algebra(rs, cache_dir=str(tmp_path))
    assert g1.dim == g2.dim
    # second build loads the cached constants bit for bit
    k1 = sorted(g1.structure_constants)
    k2 = sorted(g2.structure_constants)
    assert k1 == k2
    for key in k1:
        assert g1.structure_constants[key] == g2.structure_constants[key]
    assert np.array_equal(g1.bracket_table(), g2.bracket_table())


def test_unsupported_types():
    with pytest.raises(UnsupportedType):
        build_root_system("Z", 9)
    with pytest.raises(UnsupportedType):
        build_root_system("A", 0)
    with pytest.raises(UnsupportedType):
        build_root_system("G", 3)
    with pytest.raises(UnsupportedType):
        build_root_system("B", 1)
