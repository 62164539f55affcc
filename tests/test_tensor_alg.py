"""The dense oracle calculus: leg brackets, cyclic sums, and the diagonal action."""

import numpy as np
import pytest

from _oracle import (
    act_diag,
    alt3,
    basis_index,
    bracket_legs,
    bracket_table,
    casimir,
    tensor_product,
    transpose_legs,
)
from dynr import (
    AlgebraMismatch,
    Tensor2,
    Tensor3,
    UnsupportedType,
    build_root_system,
    build_simple_lie_algebra,
)


def _algebra(series, rank):
    return build_simple_lie_algebra(build_root_system(series, rank))


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


_EINSUM_BRACKET = {
    "12-13": "ack,ab,cd->kbd",
    "12-23": "bck,ab,cd->akd",
    "13-23": "bdk,ab,cd->ack",
}


def _einsum_bracket(g, a, b, placement):
    """Dense oracle for bracket_legs: one three-operand einsum, O(dim^5)."""
    return np.einsum(_EINSUM_BRACKET[placement], bracket_table(g), a, b)


def _einsum_act_diag(g, x, d):
    """Dense oracle for act_diag, one einsum per leg."""
    f = bracket_table(g)
    m = f[x] if isinstance(x, int) else np.einsum("a,ack->ck", x, f)
    if d.ndim == 2:
        return np.einsum("ak,ab->kb", m, d) + np.einsum("bk,ab->ak", m, d)
    return (
        np.einsum("ak,abc->kbc", m, d)
        + np.einsum("bk,abc->akc", m, d)
        + np.einsum("ck,abc->abk", m, d)
    )


def _assert_rel_close(got, want, rel=1e-14):
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


def _brute_bracket(g, a, b, placement):
    """Triple loop oracle for bracket_legs."""
    f = bracket_table(g)
    n = g.dim
    out = np.zeros((n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            if a[i, j] == 0:
                continue
            for k in range(n):
                for l in range(n):
                    c = a[i, j] * b[k, l]
                    if c == 0:
                        continue
                    if placement == "12-13":
                        # shared leg 1: [b_i, b_k] (x) b_j (x) b_l
                        out[:, j, l] += c * f[i, k]
                    elif placement == "12-23":
                        out[i, :, l] += c * f[j, k]
                    else:
                        out[i, k, :] += c * f[j, l]
    return out


@pytest.mark.parametrize("placement", ["12-13", "12-23", "13-23"])
def test_bracket_legs_against_brute_force(placement):
    g = _algebra("A", 2)
    rng = np.random.default_rng(7)
    a = rng.standard_normal((g.dim, g.dim)) + 1j * rng.standard_normal((g.dim, g.dim))
    b = rng.standard_normal((g.dim, g.dim)) + 1j * rng.standard_normal((g.dim, g.dim))
    got = bracket_legs(Tensor2(g, a), Tensor2(g, b), placement).data
    want = _brute_bracket(g, a, b, placement)
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("series,rank", [("B", 3), ("D", 4), ("F", 4)])
def test_bracket_legs_against_einsum_oracle(series, rank):
    g = _algebra(series, rank)
    rng = np.random.default_rng(11)
    a = _random_complex(rng, (g.dim, g.dim))
    b = _random_complex(rng, (g.dim, g.dim))
    for placement in _EINSUM_BRACKET:
        got = bracket_legs(Tensor2(g, a), Tensor2(g, b), placement).data
        _assert_rel_close(got, _einsum_bracket(g, a, b, placement))


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 3), ("D", 4)])
def test_act_diag_against_einsum_oracle(series, rank):
    g = _algebra(series, rank)
    rng = np.random.default_rng(5)
    d2 = _random_complex(rng, (g.dim,) * 2)
    d3 = _random_complex(rng, (g.dim,) * 3)
    for x in (0, basis_index(g, 0), _random_complex(rng, g.dim)):
        _assert_rel_close(act_diag(x, Tensor2(g, d2)).data, _einsum_act_diag(g, x, d2))
        _assert_rel_close(act_diag(x, Tensor3(g, d3)).data, _einsum_act_diag(g, x, d3))


def test_bracket_legs_rejects_bad_placement():
    g = _algebra("A", 1)
    t = casimir(g)
    with pytest.raises(UnsupportedType):
        bracket_legs(t, t, "23-13")


def test_algebra_mismatch():
    g1 = _algebra("A", 1)
    g2 = _algebra("A", 2)
    with pytest.raises(AlgebraMismatch):
        bracket_legs(casimir(g1), casimir(g2), "12-13")


def _basis_vec(g, i):
    v = np.zeros(g.dim, dtype=complex)
    v[i] = 1.0
    return v


def test_transpose_legs_on_pure_tensor():
    """Leg relabeling conventions, pinned on a monomial."""
    g = _algebra("A", 1)
    a, b, c = (_basis_vec(g, i) for i in (0, 1, 2))
    abc = np.einsum("i,j,k->ijk", a, b, c)
    t = Tensor3(g, abc)
    bca = np.einsum("i,j,k->ijk", b, c, a)
    cab = np.einsum("i,j,k->ijk", c, a, b)
    assert np.array_equal(transpose_legs(t, (1, 2, 0)).data, bca)
    assert np.array_equal(transpose_legs(t, (2, 0, 1)).data, cab)
    assert np.array_equal(transpose_legs(t, (0, 1, 2)).data, abc)
    # the two cycles are inverse to each other
    back = transpose_legs(transpose_legs(t, (1, 2, 0)), (2, 0, 1))
    assert np.array_equal(back.data, abc)


def test_alt3_on_pure_tensor():
    g = _algebra("A", 1)
    a, b, c = (_basis_vec(g, i) for i in (0, 1, 2))
    t = Tensor3(g, np.einsum("i,j,k->ijk", a, b, c))
    want = (
        np.einsum("i,j,k->ijk", a, b, c)
        + np.einsum("i,j,k->ijk", c, a, b)
        + np.einsum("i,j,k->ijk", b, c, a)
    )
    assert np.max(np.abs(alt3(t).data - want)) == 0


def test_alt3_idempotent_up_to_factor():
    g = _algebra("A", 2)
    rng = np.random.default_rng(3)
    d = rng.standard_normal((g.dim,) * 3) + 1j * rng.standard_normal((g.dim,) * 3)
    t = Tensor3(g, d)
    once = alt3(t)
    twice = alt3(once)
    assert np.max(np.abs(twice.data - 3.0 * once.data)) < 1e-12


@pytest.mark.parametrize("series,rank", [("A", 1), ("A", 2), ("B", 2)])
def test_casimir_adjacent_brackets_cancel(series, rank):
    """Invariance makes adjacent leg brackets of the Casimir cancel pairwise."""
    g = _algebra(series, rank)
    om = casimir(g)
    b12_13 = bracket_legs(om, om, "12-13").data
    b12_23 = bracket_legs(om, om, "12-23").data
    b13_23 = bracket_legs(om, om, "13-23").data
    assert np.max(np.abs(b12_13 + b12_23)) < 1e-12
    assert np.max(np.abs(b12_23 + b13_23)) < 1e-12
    # the full sum is the invariant alternating 3-tensor, not zero
    total = Tensor3(g, b12_13 + b12_23 + b13_23)
    assert total.norm() > 0.5
    for a in range(g.dim):
        assert act_diag(a, total).norm() < 1e-12


def test_act_diag_kills_casimir():
    g = _algebra("B", 2)
    om = casimir(g)
    for a in range(g.dim):
        assert act_diag(a, om).norm() < 1e-13


def test_act_diag_weight_pair():
    """Opposite-root monomials have weight zero, equal-root ones do not."""
    g = _algebra("A", 2)
    rs = g.root_system
    i = rs.positive_roots[0]
    e = _basis_vec(g, basis_index(g, i))
    f = _basis_vec(g, basis_index(g, rs.neg(i)))
    for k in range(rs.rank):
        assert act_diag(k, tensor_product(g, e, f)).norm() < 1e-13
        out = act_diag(k, tensor_product(g, e, e))
        want = 2.0 * rs.roots[i][k] * np.outer(e, e)
        assert np.max(np.abs(out.data - want)) < 1e-13


def test_act_diag_tensor3():
    g = _algebra("A", 1)
    rs = g.root_system
    i = rs.positive_roots[0]
    e = _basis_vec(g, basis_index(g, i))
    t = Tensor3(g, np.einsum("i,j,k->ijk", e, e, e))
    out = act_diag(0, t)
    want = 3.0 * rs.roots[i][0] * t.data
    assert np.max(np.abs(out.data - want)) < 1e-13


def test_norm_and_scale():
    g = _algebra("A", 1)
    om = casimir(g)
    assert om.norm() == pytest.approx(1.0)
    assert om.scale(-2.5j).norm() == pytest.approx(2.5)
    three = Tensor3(g, np.zeros((g.dim,) * 3))
    assert three.norm() == 0.0


def test_tensor_product_shape_gate():
    g = _algebra("A", 1)
    with pytest.raises(UnsupportedType):
        tensor_product(g, np.zeros(2), np.zeros(g.dim))
