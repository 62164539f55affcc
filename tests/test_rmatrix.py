"""Family evaluation, gauges, and spec serialization."""

import cmath
import math
import random
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from _oracle import basis_index, casimir, fd_record, trig_constant_fixture
from dynr import (
    CartanVector,
    GaugeRecord,
    PoleProximity,
    RMatrixSpec,
    SpecInvalid,
    ThetaParams,
    build_root_system,
    build_simple_lie_algebra,
    check_axioms,
    effective_coupling,
    eval_dlambda,
    eval_rmatrix,
    family_phi,
    gauge_apply,
    pole_margin,
    rho_fn,
    sigma_w,
    spec_from_json,
    spec_to_json,
)
from dynr import rmatrix
from dynr.combinatorics import additive_closure
from dynr.verifier import _BLOCK_ROWS, SamplePlan, _campaign_points, _draw_vector, spec_digest

A1 = build_simple_lie_algebra(build_root_system("A", 1))
A2 = build_simple_lie_algebra(build_root_system("A", 2))
B2 = build_simple_lie_algebra(build_root_system("B", 2))


def _full_X(g):
    return tuple(range(g.root_system.n_roots))


def _lam_with_pairing(g, value):
    """A Cartan point with (alpha, lam) = value for the first simple root."""
    rs = g.root_system
    a = rs.roots[rs.simple_roots[0]]
    return CartanVector.of(a * (value / (a @ a)))


def _by_mode(mode, spec, lam, z):
    """The record of a derivative mode: None none, "analytic" the library's,
    "finite-difference" fd_record's."""
    if mode == "finite-difference":
        return fd_record(spec, lam, z)
    return rmatrix._record(spec, lam, z, mode == "analytic")


def _dense_d(algebra, d):
    """The dense sum_k x_k (x) d[k] of a derivative record d."""
    data = np.zeros((algebra.dim,) * 3, dtype=complex)
    data[(slice(algebra.rank),) + tuple(leg[algebra.rank**2 :] for leg in rmatrix._legs(algebra))] = d
    return data


def _root_entry(g, r, root_idx):
    rs = g.root_system
    return r.data[basis_index(g, root_idx), basis_index(g, rs.neg(root_idx))]


# ---------------------------------------------------------------- validation

def test_rational_constant_requires_closed_X():
    rs = A1.root_system
    with pytest.raises(SpecInvalid):
        RMatrixSpec(algebra=A1, family="RationalConstant", X=[rs.positive_roots[0]])


def test_coupling_gates():
    with pytest.raises(SpecInvalid):
        RMatrixSpec(algebra=A1, family="RationalConstant", X=_full_X(A1), eps=2.0)
    with pytest.raises(SpecInvalid):
        RMatrixSpec(algebra=A1, family="TrigCotanh", eps=0.0)
    with pytest.raises(SpecInvalid):
        RMatrixSpec(algebra=A1, family="TrigSpectral", eps=2.0)


def test_tau_gates():
    with pytest.raises(SpecInvalid):
        RMatrixSpec(algebra=A1, family="EllipticSpectral")
    with pytest.raises(SpecInvalid):
        RMatrixSpec(algebra=A1, family="EllipticSpectral", tau=0.7)
    with pytest.raises(SpecInvalid):
        RMatrixSpec(algebra=A1, family="TrigCotanh", eps=1.0, tau=2j)


def test_X_family_gates():
    with pytest.raises(SpecInvalid):
        RMatrixSpec(algebra=A1, family="TrigCotanh", eps=1.0, X=[0])
    # degenerate family X must sit inside the simple roots of the polarization
    rs = A2.root_system
    nonsimple = [i for i in rs.positive_roots if i not in rs.simple_roots]
    with pytest.raises(SpecInvalid):
        RMatrixSpec(algebra=A2, family="TrigDegenerate", eps=1.0, X=nonsimple[:1])


def test_structural_gates():
    with pytest.raises(SpecInvalid):
        RMatrixSpec(algebra=A1, family="NoSuchFamily")
    with pytest.raises(SpecInvalid):
        RMatrixSpec(algebra=A2, family="TrigCotanh", eps=1.0, C=np.eye(2))
    rs = A2.root_system
    pol = list(rs.positive_roots)
    with pytest.raises(SpecInvalid):
        RMatrixSpec(algebra=A2, family="TrigCotanh", eps=1.0, polarization=pol[:1])
    bad = pol[:-1] + [rs.neg(pol[0])]
    with pytest.raises(SpecInvalid):
        RMatrixSpec(algebra=A2, family="TrigCotanh", eps=1.0, polarization=bad)
    with pytest.raises(SpecInvalid):
        RMatrixSpec(algebra=A1, family="TrigCotanh", eps=1.0, nu=CartanVector.of([1.0, 2.0]))


def test_gauge_family_gates():
    const = RMatrixSpec(algebra=A1, family="RationalConstant", X=_full_X(A1))
    with pytest.raises(SpecInvalid):
        gauge_apply(const, GaugeRecord(kind=2, psi=(np.zeros((1, 1)), np.array([1.0]))))
    with pytest.raises(SpecInvalid):
        gauge_apply(const, GaugeRecord(kind=4, scale=(1.0, 2.0)))
    # b = 1 passes on a constant family
    gauge_apply(const, GaugeRecord(kind=4, scale=(3.0, 1.0)))


def test_non_finite_parameters_rejected():
    nan = float("nan")
    for kw in (
        dict(family="TrigCotanh", eps=complex(nan, 0)),
        dict(family="TrigCotanh", eps=1.0, nu=CartanVector.of([float("inf")])),
        dict(family="TrigCotanh", eps=1.0, C=np.array([[nan]])),
        dict(family="EllipticSpectral", tau=complex(nan, 1.0)),
    ):
        with pytest.raises(SpecInvalid, match="must be finite"):
            RMatrixSpec(algebra=A1, **kw)
    const = RMatrixSpec(algebra=A1, family="TrigCotanh", eps=1.0)
    spectral = RMatrixSpec(algebra=A1, family="RationalSpectral", X=())
    for spec, rec in (
        (const, GaugeRecord(kind=1, c_matrix=np.array([[0.0]]) * nan)),
        (spectral, GaugeRecord(kind=2, psi=(np.eye(1), np.array([nan])))),
        (const, GaugeRecord(kind=3, shift=CartanVector.of([nan]))),
        (const, GaugeRecord(kind=4, scale=(float("inf"), 1.0))),
    ):
        with pytest.raises(SpecInvalid, match="payload must be finite"):
            gauge_apply(spec, rec)


def test_eval_dispatch_gates():
    const = RMatrixSpec(algebra=A1, family="RationalConstant", X=_full_X(A1))
    spectral = RMatrixSpec(algebra=A1, family="RationalSpectral", X=())
    lam = _lam_with_pairing(A1, 2.0)
    with pytest.raises(SpecInvalid):
        eval_rmatrix(const, lam, 0.3)
    with pytest.raises(SpecInvalid):
        eval_rmatrix(spectral, lam)
    with pytest.raises(SpecInvalid):
        eval_dlambda(spectral, lam)  # missing z
    with pytest.raises(SpecInvalid):
        eval_dlambda(const, lam, z=0.3)


# ---------------------------------------------------------------- hand values

def test_rational_constant_hand_value():
    spec = RMatrixSpec(algebra=A1, family="RationalConstant", X=_full_X(A1))
    lam = _lam_with_pairing(A1, 2.0)
    r = eval_rmatrix(spec, lam)
    rs = A1.root_system
    pos = rs.positive_roots[0]
    assert _root_entry(A1, r, pos) == pytest.approx(0.5)
    assert _root_entry(A1, r, rs.neg(pos)) == pytest.approx(-0.5)
    assert np.allclose(r.data[:1, :1], 0.0)


def test_cotanh_hand_value():
    spec = RMatrixSpec(algebra=A1, family="TrigCotanh", eps=2.0)
    lam = _lam_with_pairing(A1, math.log(3.0))
    r = eval_rmatrix(spec, lam)
    rs = A1.root_system
    pos = rs.positive_roots[0]
    # 1 + coth(ln 3) = 9/4, 1 - coth(ln 3) = -1/4, Cartan block eps/2 = 1
    assert _root_entry(A1, r, pos) == pytest.approx(9.0 / 4.0, abs=1e-13)
    assert _root_entry(A1, r, rs.neg(pos)) == pytest.approx(-1.0 / 4.0, abs=1e-13)
    assert r.data[0, 0] == pytest.approx(1.0)


def test_degenerate_with_empty_X_is_half_casimir_plus_positives():
    spec = RMatrixSpec(algebra=A2, family="TrigDegenerate", eps=1.0, X=())
    lam = CartanVector.of([0.37, -0.81])
    r = eval_rmatrix(spec, lam)
    rs = A2.root_system
    want = np.zeros((A2.dim, A2.dim), dtype=complex)
    want[: rs.rank, : rs.rank] = 0.5 * np.eye(rs.rank)
    for p in rs.positive_roots:
        want[basis_index(A2, p), basis_index(A2, rs.neg(p))] = 1.0
    assert np.max(np.abs(r.data - want)) < 1e-14
    # no lam dependence when the span is empty
    r2 = eval_rmatrix(spec, CartanVector.of([1.9, 0.4]))
    assert np.max(np.abs(r.data - r2.data)) == 0


def test_trig_spectral_empty_X_matches_fixture():
    spec = RMatrixSpec(algebra=A2, family="TrigSpectral", X=())
    lam = CartanVector.of([0.21, 0.53])
    for z in (0.4, 0.37 - 0.22j, -0.8 + 0.13j):
        got = eval_rmatrix(spec, lam, z)
        want = trig_constant_fixture(A2, z)
        assert np.max(np.abs(got.data - want.data)) < 1e-12


def test_rational_spectral_empty_X_is_casimir_over_z():
    spec = RMatrixSpec(algebra=B2, family="RationalSpectral", X=())
    lam = CartanVector.of([0.7, -0.2])
    for z in (0.5, 0.31 + 0.4j):
        got = eval_rmatrix(spec, lam, z)
        want = casimir(B2).scale(1.0 / z)
        assert np.max(np.abs(got.data - want.data)) < 1e-15


def test_elliptic_entries_are_theta_ratios():
    tau = 1j
    spec = RMatrixSpec(algebra=A1, family="EllipticSpectral", tau=tau)
    a = 0.43
    lam = _lam_with_pairing(A1, a)
    z = 0.27 - 0.31j
    r = eval_rmatrix(spec, lam, z)
    p = ThetaParams(tau=tau)
    rs = A1.root_system
    pos = rs.positive_roots[0]
    assert r.data[0, 0] == pytest.approx(rho_fn(z, p), rel=1e-13)
    assert _root_entry(A1, r, pos) == pytest.approx(sigma_w(-a, z, p), rel=1e-13)
    assert _root_entry(A1, r, rs.neg(pos)) == pytest.approx(sigma_w(a, z, p), rel=1e-13)


def test_trig_spectral_full_span_entries():
    spec = RMatrixSpec(algebra=A1, family="TrigSpectral", X=A1.root_system.simple_roots)
    a = 0.62
    lam = _lam_with_pairing(A1, a)
    z = 0.33 - 0.18j
    r = eval_rmatrix(spec, lam, z)
    rs = A1.root_system
    pos = rs.positive_roots[0]
    sz = cmath.sin(z)
    assert r.data[0, 0] == pytest.approx(cmath.cos(z) / sz, rel=1e-13)
    assert _root_entry(A1, r, pos) == pytest.approx(
        cmath.sin(a + z) / (cmath.sin(a) * sz), rel=1e-13
    )
    assert _root_entry(A1, r, rs.neg(pos)) == pytest.approx(
        cmath.sin(-a + z) / (cmath.sin(-a) * sz), rel=1e-13
    )


@pytest.mark.parametrize("family,kw", [
    ("RationalSpectral", {"X": ()}),
    ("TrigSpectral", {"X": ()}),
    ("EllipticSpectral", {"tau": 1j}),
])
def test_spectral_short_distance_limit(family, kw):
    """z r(lam, z) approaches the invariant tensor as z -> 0."""
    spec = RMatrixSpec(algebra=A2, family=family, **kw)
    # root pairings stay well clear of the coefficient pole lattice here
    lam = CartanVector.of([0.27, -0.38])
    z = 1e-3
    r = eval_rmatrix(spec, lam, z)
    om = casimir(A2)
    assert np.max(np.abs(z * r.data - om.data)) < 1e-2 * np.max(np.abs(om.data))


# ---------------------------------------------------------------- gauges

def _rand_lam(rank, seed):
    rng = np.random.default_rng(seed)
    return CartanVector.of(rng.uniform(-1.5, 1.5, rank) + 0.1j * rng.uniform(-1, 1, rank))


def test_gauge_kind1_adds_cartan_matrix():
    c = np.array([[0.0, 0.7], [-0.7, 0.0]])
    base = RMatrixSpec(algebra=A2, family="TrigCotanh", eps=1.0)
    gauged = gauge_apply(base, GaugeRecord(kind=1, c_matrix=c))
    lam = _rand_lam(2, 5)
    r0 = eval_rmatrix(base, lam)
    r1 = eval_rmatrix(gauged, lam)
    diff = r1.data - r0.data
    assert np.max(np.abs(diff[:2, :2] - c)) < 1e-14
    diff[:2, :2] = 0
    assert np.max(np.abs(diff)) == 0


def test_gauge_kind2_zero_Q_scales_root_lines():
    base = RMatrixSpec(algebra=A2, family="RationalSpectral", X=())
    v = np.array([0.4, -0.9])
    gauged = gauge_apply(base, GaugeRecord(kind=2, psi=(np.zeros((2, 2)), v)))
    lam = _rand_lam(2, 6)
    z = 0.37 - 0.2j
    r0 = eval_rmatrix(base, lam, z)
    r1 = eval_rmatrix(gauged, lam, z)
    rs = A2.root_system
    assert np.max(np.abs(r1.data[:2, :2] - r0.data[:2, :2])) == 0
    for p in range(rs.n_roots):
        want = _root_entry(A2, r0, p) * cmath.exp(z * (rs.roots[p] @ v))
        assert _root_entry(A2, r1, p) == pytest.approx(want, rel=1e-12)


def test_gauge_kind2_general_pointwise():
    base = RMatrixSpec(algebra=A1, family="EllipticSpectral", tau=2j)
    q = np.array([[0.31]])
    v = np.array([0.12 - 0.05j])
    gauged = gauge_apply(base, GaugeRecord(kind=2, psi=(q, v)))
    lam = _rand_lam(1, 7)
    z = 0.29 - 0.41j
    r0 = eval_rmatrix(base, lam, z)
    r1 = eval_rmatrix(gauged, lam, z)
    rs = A1.root_system
    grad = q @ lam.as_array() + v
    assert np.max(np.abs(r1.data[:1, :1] - (r0.data[:1, :1] + z * q))) < 1e-13
    for p in range(rs.n_roots):
        want = _root_entry(A1, r0, p) * cmath.exp(z * (rs.roots[p] @ grad))
        assert _root_entry(A1, r1, p) == pytest.approx(want, rel=1e-12)


def test_gauge_kind3_shifts_argument():
    shift = CartanVector.of([0.4, -0.25])
    base = RMatrixSpec(algebra=A2, family="TrigCotanh", eps=2.0)
    gauged = gauge_apply(base, GaugeRecord(kind=3, shift=shift))
    lam = _rand_lam(2, 8)
    got = eval_rmatrix(gauged, lam)
    want = eval_rmatrix(base, lam - shift)
    assert np.max(np.abs(got.data - want.data)) == 0
    # zero shift is the identity
    same = gauge_apply(base, GaugeRecord(kind=3, shift=CartanVector.zero(2)))
    assert np.max(np.abs(eval_rmatrix(same, lam).data - eval_rmatrix(base, lam).data)) == 0


def test_gauge_kind4_rescales_both_arguments():
    base = RMatrixSpec(algebra=A1, family="TrigSpectral", X=A1.root_system.simple_roots)
    a, b = 0.8, 1.7
    gauged = gauge_apply(base, GaugeRecord(kind=4, scale=(a, b)))
    lam = _rand_lam(1, 9)
    z = 0.23 - 0.11j
    got = eval_rmatrix(gauged, lam, z)
    want = eval_rmatrix(base, lam.scale(a), b * z).scale(a)
    assert np.max(np.abs(got.data - want.data)) < 1e-14


def test_gauge_kind4_halves_rational_spectral():
    base = RMatrixSpec(algebra=A1, family="RationalSpectral", X=())
    gauged = gauge_apply(base, GaugeRecord(kind=4, scale=(1.0, 2.0)))
    lam = _rand_lam(1, 10)
    z = 0.42
    got = eval_rmatrix(gauged, lam, z)
    want = casimir(A1).scale(1.0 / (2 * z))
    assert np.max(np.abs(got.data - want.data)) < 1e-15
    assert effective_coupling(gauged) == pytest.approx(0.5)


def test_effective_coupling_folding():
    const = RMatrixSpec(algebra=A1, family="RationalConstant", X=_full_X(A1))
    assert effective_coupling(const) == 0.0
    cot = RMatrixSpec(algebra=A1, family="TrigCotanh", eps=2.0)
    assert effective_coupling(cot) == 2.0
    cot4 = gauge_apply(cot, GaugeRecord(kind=4, scale=(2.0, 1.0)))
    assert effective_coupling(cot4) == 4.0
    spec = RMatrixSpec(algebra=A1, family="EllipticSpectral", tau=1j)
    assert effective_coupling(spec) == 1.0
    stacked = gauge_apply(
        gauge_apply(spec, GaugeRecord(kind=4, scale=(1.0, 2.0))),
        GaugeRecord(kind=4, scale=(3.0, 1.0)),
    )
    assert effective_coupling(stacked) == pytest.approx(1.5)


# ---------------------------------------------------------------- derivatives

def _spec_zoo(algebra):
    rs = algebra.root_system
    full = tuple(range(rs.n_roots))
    zoo = [
        (RMatrixSpec(algebra=algebra, family="RationalConstant", X=full), None),
        (RMatrixSpec(algebra=algebra, family="TrigCotanh", eps=2.0), None),
        (RMatrixSpec(algebra=algebra, family="TrigDegenerate", eps=1.0,
                     X=rs.simple_roots[:1]), None),
        (RMatrixSpec(algebra=algebra, family="EllipticSpectral", tau=1j), 0.31 - 0.27j),
        (RMatrixSpec(algebra=algebra, family="TrigSpectral", X=rs.simple_roots), 0.41 - 0.15j),
        (RMatrixSpec(algebra=algebra, family="RationalSpectral", X=full), 0.52 + 0.2j),
    ]
    return zoo


@pytest.mark.parametrize("idx", range(6))
def test_dlambda_analytic_matches_finite_difference(idx):
    spec, z = _spec_zoo(A2)[idx]
    lam = CartanVector.of([0.83, -0.54])
    an = eval_dlambda(spec, lam, z)
    fd = _dense_d(A2, fd_record(spec, lam.as_array(), z, fd_step=1e-5).d)
    scale = max(1.0, an.norm())
    assert np.max(np.abs(an.data - fd)) < 1e-6 * scale


def test_dlambda_constant_in_lam_is_zero():
    spec = RMatrixSpec(algebra=A2, family="TrigDegenerate", eps=1.0, X=())
    d = eval_dlambda(spec, CartanVector.of([0.3, 0.9]))
    assert d.norm() == 0.0


def test_dlambda_rational_hand_value():
    spec = RMatrixSpec(algebra=A1, family="RationalConstant", X=_full_X(A1))
    lam = _lam_with_pairing(A1, 2.0)
    d = eval_dlambda(spec, lam)
    rs = A1.root_system
    pos = rs.positive_roots[0]
    # d/dlam of 1/(a, lam) = -a / (a, lam)^2 = -a/4
    a = rs.roots[pos][0]
    e, f = basis_index(A1, pos), basis_index(A1, rs.neg(pos))
    assert d.data[0, e, f] == pytest.approx(-a / 4.0, abs=1e-14)
    assert d.data[0, f, e] == pytest.approx(a / 4.0, abs=1e-14)


def _loop_assemble2(algebra, m, phi):
    """Per-root loop oracle for rmatrix._assemble2."""
    rs = algebra.root_system
    data = np.zeros((algebra.dim, algebra.dim), dtype=complex)
    data[: rs.rank, : rs.rank] = m
    for p in range(rs.n_roots):
        data[basis_index(algebra, p), basis_index(algebra, rs.neg(p))] = phi[p]
    return data


def _split(rank, v):
    """(M, phi) of a record vector v: M row-major, then one entry per root."""
    return v[..., : rank * rank].reshape(v.shape[:-1] + (rank, rank)), v[..., rank * rank :]


def _loop_dlambda(spec, lam, z, mode, fd_step=1e-5):
    """Per-root loop oracle for eval_dlambda (analytic) and fd_record."""
    algebra = spec.algebra
    rs = algebra.root_system
    data = np.zeros((algebra.dim,) * 3, dtype=complex)
    if mode == "analytic":
        _, dphi = rmatrix._evaluate(spec, lam.as_array(), z, True)
        for p in range(rs.n_roots):
            bi, bj = basis_index(algebra, p), basis_index(algebra, rs.neg(p))
            data[: rs.rank, bi, bj] = dphi[:, p]
        return data
    base = lam.as_array()
    for i in range(rs.rank):
        step = np.zeros(rs.rank, dtype=complex)
        step[i] = fd_step
        up = _split(rs.rank, rmatrix._evaluate(spec, base + step, z, False)[0])
        dn = _split(rs.rank, rmatrix._evaluate(spec, base - step, z, False)[0])
        assert np.array_equal(up[0], dn[0])  # M does not depend on lambda
        pdiff = (up[1] - dn[1]) / (2 * fd_step)
        for p in range(rs.n_roots):
            data[i, basis_index(algebra, p), basis_index(algebra, rs.neg(p))] = pdiff[p]
    return data


@pytest.mark.parametrize("algebra", [A2, B2, build_simple_lie_algebra(build_root_system("G", 2))])
def test_root_scatter_matches_loop_oracle(algebra):
    rank = algebra.rank
    q = 0.3 * np.eye(rank) + 0.1 * (np.ones((rank, rank)) - np.eye(rank))
    lam = CartanVector.of(np.linspace(0.83, -0.54, rank) + 0.1j)
    zoo = _spec_zoo(algebra)
    ell, z_ell = zoo[3]
    zoo.append((gauge_apply(ell, GaugeRecord(kind=2, psi=(q, 0.15 * np.ones(rank)))), z_ell))
    for spec, z in zoo:
        r = eval_rmatrix(spec, lam, z)
        m, phi = _split(rank, rmatrix._evaluate(spec, lam.as_array(), z, False)[0])
        assert np.array_equal(r.data, _loop_assemble2(algebra, m, phi))
        assert np.array_equal(eval_dlambda(spec, lam, z).data, _loop_dlambda(spec, lam, z, "analytic"))
        got = _dense_d(algebra, fd_record(spec, lam.as_array(), z).d)
        assert np.array_equal(got, _loop_dlambda(spec, lam, z, "finite-difference"))


def test_dlambda_threads_kind2_gauge():
    base = RMatrixSpec(algebra=A1, family="EllipticSpectral", tau=2j)
    q = np.array([[0.4]])
    v = np.array([0.2])
    gauged = gauge_apply(base, GaugeRecord(kind=2, psi=(q, v)))
    lam = CartanVector.of([0.67])
    z = 0.3 - 0.33j
    an = eval_dlambda(gauged, lam, z)
    fd = _dense_d(A1, fd_record(gauged, lam.as_array(), z).d)
    assert np.max(np.abs(an.data - fd)) < 1e-6 * max(1.0, an.norm())


# ---------------------------------------------------------------- poles

def test_pole_proximity_raises():
    spec = RMatrixSpec(algebra=A1, family="RationalConstant", X=_full_X(A1))
    with pytest.raises(PoleProximity):
        eval_rmatrix(spec, CartanVector.of([1e-12]))
    spectral = RMatrixSpec(algebra=A1, family="RationalSpectral", X=())
    with pytest.raises(PoleProximity):
        eval_rmatrix(spectral, CartanVector.of([0.5]), 1e-12)


def test_pole_margin_reports_distance():
    spec = RMatrixSpec(algebra=A1, family="RationalConstant", X=_full_X(A1))
    near = pole_margin(spec, CartanVector.of([0.01]))
    far = pole_margin(spec, CartanVector.of([1.0]))
    assert near < far
    assert near == pytest.approx(0.01 * math.sqrt(2.0), rel=1e-12)
    # spectral margin includes the z lattice
    sp = RMatrixSpec(algebra=A1, family="TrigSpectral", X=A1.root_system.simple_roots)
    assert pole_margin(sp, CartanVector.of([0.7]), 0.05) == pytest.approx(0.05, rel=1e-9)


def test_pole_margin_folds_gauge_arguments():
    base = RMatrixSpec(algebra=A1, family="RationalSpectral", X=())
    gauged = gauge_apply(base, GaugeRecord(kind=4, scale=(1.0, 10.0)))
    lam = CartanVector.of([0.5])
    assert pole_margin(gauged, lam, 0.03) == pytest.approx(0.3, rel=1e-12)


def _brute_lattice_distance(w, periods, window):
    """min |w - sum n_k p_k| over |n_k| <= window[k], by enumeration."""
    grids = np.meshgrid(*(np.arange(-n, n + 1) for n in window), indexing="ij")
    points = sum(g.ravel() * p for g, p in zip(grids, periods)) if periods else np.zeros(1)
    return np.array([np.min(np.abs(x - points)) for x in w])


@pytest.mark.parametrize(
    "periods, window",
    [((), ()), ((1j * math.pi,), (100,)), ((math.pi + 0j,), (100,))]
    + [((1 + 0j, tau), (40, 40)) for tau in (1j, 2j, 0.2 + 1.4j, 0.5 + 1j, -0.7 + 0.2j, 0.45 + 0.3j)]
    + [((1 + 0j, 3.3 + 0.05j), (400, 100))],
)
def test_lattice_distance_matches_brute_force(periods, window):
    rng = np.random.default_rng(7)
    w = rng.uniform(-3, 3, 200) + 1j * rng.uniform(-1.5, 1.5, 200)
    got = rmatrix._lattice_distance(w, periods)
    # the brute-force lattice points carry rounding of about |n| ulp
    np.testing.assert_allclose(got, _brute_lattice_distance(w, periods, window), rtol=0, atol=1e-13)


def test_pole_margin_is_the_distance_on_a_sheared_lattice():
    spec = RMatrixSpec(algebra=A1, family="EllipticSpectral", tau=-0.7 + 0.2j)
    lam, z = CartanVector.of([1.5794 + 0.2833j]), -1.0364 + 0.3723j
    periods = (1 + 0j, complex(spec.tau))
    w = np.append(-(A1.root_system.roots @ lam.as_array()), z)
    want = np.min(_brute_lattice_distance(w, periods, (40, 40)))
    assert pole_margin(spec, lam, z) == pytest.approx(want, rel=1e-13)
    assert want == pytest.approx(0.2113, abs=1e-4)


def test_pole_margins_of_a_candidate_block_stay_near_its_size():
    """Scoring one full E7 EllipticSpectral candidate block, as the sampler
    does, peaks under 8 times the bytes of the block's pairings: rows x
    (pole roots + 3 z differences) complex entries.  _lattice_distance
    with the cell's four corners stacked on a leading axis took 13 times,
    and a 200-sample E7 campaign grew 12 MiB over a 10-sample one."""
    g = build_simple_lie_algebra(build_root_system("E", 7))
    spec = RMatrixSpec(algebra=g, family="EllipticSpectral", tau=2j)
    plan = SamplePlan(seed=1, count=200)
    im_box = tuple(0.5 * b for b in plan.z_box)  # the sampler's box when a spec is elliptic
    lam, zs = _draw_vector(random.Random(1), _BLOCK_ROWS, plan.box, im_box, plan.z_box, 3, g.rank)
    w = zs[:, [0, 0, 1]] - zs[:, [1, 2, 2]]
    block_bytes = _BLOCK_ROWS * (len(spec._pole_roots) + 3) * 16
    rmatrix._pole_margins(spec, lam, w)
    tracemalloc.start()
    try:
        rmatrix._pole_margins(spec, lam, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * block_bytes, peak / block_bytes


def _scalar_lattice_distance(w, periods):
    """Per-argument lattice distance with a 2x2 solve, kept as an oracle."""
    if len(periods) == 1:
        p = periods[0]
        t = (w / p).real
        return min(abs(w - round(t + d) * p) for d in (-1, 0, 1))
    p1, p2 = periods
    mat = np.array([[p1.real, p2.real], [p1.imag, p2.imag]])
    xy = np.linalg.solve(mat, [w.real, w.imag])
    best = math.inf
    for dx in (math.floor(xy[0]), math.floor(xy[0]) + 1):
        for dy in (math.floor(xy[1]), math.floor(xy[1]) + 1):
            best = min(best, abs(w - (dx * p1 + dy * p2)))
    return best


def _scalar_pole_margin(spec, lam, z=None):
    """pole_margin with its own gauge fold and one branch per family, kept
    as an oracle; exact on rectangular period lattices."""
    lam_eff = lam.as_array()
    z_eff = complex(z) if z is not None else None
    for g in reversed(spec.gauge_stack):
        if g.kind == 3:
            lam_eff = lam_eff - g.shift.as_array()
        elif g.kind == 4:
            a, b = g.scale
            lam_eff = a * lam_eff
            if z_eff is not None:
                z_eff = b * z_eff
    rs = spec.algebra.root_system
    pairings = rs.roots @ (lam_eff - spec.nu.as_array())
    vals = [math.inf]
    fam = spec.family
    if fam == "RationalConstant":
        vals += [abs(pairings[p]) for p in spec.X]
    elif fam in ("TrigCotanh", "TrigDegenerate"):
        half = complex(spec.eps) / 2
        unit = min(1.0, abs(half))  # below |eps| = 2, distances in the pairing's own scale
        rel = range(rs.n_roots) if fam == "TrigCotanh" else np.flatnonzero(spec._span)
        vals += [_scalar_lattice_distance(half * pairings[p], [1j * math.pi]) / unit for p in rel]
    elif fam == "EllipticSpectral":
        periods = [1 + 0j, complex(spec.tau)]
        vals += [_scalar_lattice_distance(-pairings[p], periods) for p in range(rs.n_roots)]
        vals.append(_scalar_lattice_distance(z_eff, periods))
    elif fam == "TrigSpectral":
        vals += [_scalar_lattice_distance(pairings[p], [math.pi + 0j]) for p in np.flatnonzero(spec._span)]
        vals.append(_scalar_lattice_distance(z_eff, [math.pi + 0j]))
    else:
        vals += [abs(pairings[p]) for p in spec.X]
        vals.append(abs(z_eff))
    return float(min(vals))


def _margin_zoo(g):
    """The six families (rectangular tau), a kind-1+3+4 and a kind-2+3+4 stack."""
    rs, rank = g.root_system, g.rank
    c = np.zeros((rank, rank), dtype=complex)
    q = 0.3 * np.eye(rank)
    if rank > 1:
        c[0, 1], c[1, 0] = 0.4 + 0.1j, -0.4 - 0.1j
        q += 0.1 * (np.ones((rank, rank)) - np.eye(rank))
    shift = GaugeRecord(kind=3, shift=CartanVector.of(0.1 * np.arange(1, rank + 1)))
    zoo = [
        RMatrixSpec(algebra=g, family="RationalConstant", X=_full_X(g)),
        RMatrixSpec(algebra=g, family="TrigCotanh", eps=2.0),
        RMatrixSpec(algebra=g, family="TrigDegenerate", eps=1.0 + 0.5j, X=rs.simple_roots[:1]),
        RMatrixSpec(algebra=g, family="TrigSpectral", X=rs.simple_roots),
        RMatrixSpec(algebra=g, family="RationalSpectral", X=_full_X(g)),
    ] + [RMatrixSpec(algebra=g, family="EllipticSpectral", tau=tau) for tau in (1j, 0.5j, 2j)]
    gauged = []
    for spec in zoo:
        stack = (
            (GaugeRecord(kind=2, psi=(q, 0.15 * np.ones(rank))), shift, GaugeRecord(kind=4, scale=(0.8, 1.6)))
            if spec.is_spectral
            else (GaugeRecord(kind=1, c_matrix=c), shift, GaugeRecord(kind=4, scale=(0.8 - 0.3j, 1.0)))
        )
        for rec in stack:
            spec = gauge_apply(spec, rec)
        gauged.append(spec)
    return zoo + gauged


@pytest.mark.parametrize("series, rank", [("A", 1), ("A", 2), ("G", 2), ("B", 3)])
def test_pole_margin_matches_scalar_oracle(series, rank):
    g = build_simple_lie_algebra(build_root_system(series, rank))
    rng = np.random.default_rng(3)
    for spec in _margin_zoo(g):
        for _ in range(25):
            lam = CartanVector.of(rng.uniform(-2, 2, rank) + 1j * rng.uniform(-1, 1, rank))
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) if spec.is_spectral else None
            want = _scalar_pole_margin(spec, lam, z)
            assert pole_margin(spec, lam, z) == pytest.approx(want, rel=1e-15, abs=0)


def test_trig_pole_margin_is_taken_in_the_pairing_below_eps_two():
    """From |eps| = 2 up the margin is the coth argument's distance to i pi Z,
    bit for bit; below it, both are divided by |eps|/2, so at a small eps
    the margin is the smallest |(alpha, lambda)|, where the coefficient has
    residue 1."""
    rs = A2.root_system
    lam = CartanVector.of([0.37 + 0.11j, -0.52 + 0.08j])
    pairings = rs.roots @ lam.as_array()
    for eps in (2.0, 2.5, 2j, 1 + 2j, -3.0):
        spec = RMatrixSpec(algebra=A2, family="TrigCotanh", eps=eps)
        w = eps / 2 * pairings
        want = np.min(np.abs(w - 1j * math.pi * np.round((w / (1j * math.pi)).real)))
        assert pole_margin(spec, lam) == want
    for eps in (1e-3, 0.05, 0.5j):
        spec = RMatrixSpec(algebra=A2, family="TrigCotanh", eps=eps)
        assert pole_margin(spec, lam) == pytest.approx(np.min(np.abs(pairings)), rel=1e-12)


@pytest.mark.parametrize("series, rank", [("A", 2), ("G", 2), ("B", 3)])
def test_pole_margin_over_an_array_of_z_is_the_smallest(series, rank):
    g = build_simple_lie_algebra(build_root_system(series, rank))
    rng = np.random.default_rng(4)
    for spec in _margin_zoo(g):
        if not spec.is_spectral:
            continue
        for _ in range(10):
            lam = CartanVector.of(rng.uniform(-2, 2, rank) + 1j * rng.uniform(-1, 1, rank))
            zs = rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6)
            got = rmatrix._pole_margins(spec, lam.as_array()[None], zs[None])  # the sampler's margins
            assert got[0] == min(pole_margin(spec, lam, z) for z in zs)


# ---------------------------------------------------------------- scalar oracle
# The per-root family formulas and scalar special functions that the array
# path replaced, kept as an oracle for records and pole messages.

_THRESHOLD = 1e-8


def _o_coth(eps, w):
    x = eps * complex(w) / 2
    if abs(cmath.sinh(x) if abs(x.real) < 300 else 1.0) < _THRESHOLD:
        raise PoleProximity(f"coth argument {x} too close to i*pi*Z")
    if x.real >= 0:
        em = cmath.exp(-2 * x)
        return (eps / 2) * (1 + em) / (1 - em)
    ep = cmath.exp(2 * x)
    return (eps / 2) * (ep + 1) / (ep - 1)


def _o_theta(z, tau, order):
    """The theta sum term by term, with the default tolerance 1e-14."""
    z = complex(z)
    im_z = abs(z.imag)
    j = (im_z + math.sqrt(im_z * im_z + tau.imag * math.log(10.0 / 1e-14) / math.pi)) / tau.imag
    j_max = max(int(math.ceil(j)) + 2, 8)
    total = 0j
    for j in range(-j_max - 1, j_max + 1):
        h = j + 0.5
        total += cmath.exp(1j * math.pi * h * h * tau + 2j * math.pi * h * (z + 0.5)) * (2j * math.pi * h) ** order
    return -total


def _o_theta_checked(z, tau, what):
    v = _o_theta(z, tau, 0)
    if abs(v) < _THRESHOLD:
        raise PoleProximity(f"theta1({what}={z}) = {v:.3e}, too close to a zero")
    return v


def _o_sigma(w, z, tau, want_d):
    tw, tz = _o_theta_checked(w, tau, "w"), _o_theta_checked(z, tau, "z")
    twz, d0 = _o_theta(w - z, tau, 0), _o_theta(0.0, tau, 1)
    if not want_d:
        return twz * d0 / (tw * tz)
    return d0 * (_o_theta(w - z, tau, 1) * tw - twz * _o_theta(w, tau, 1)) / (tw * tw * tz)


def _o_require(value, what):
    if abs(value) < _THRESHOLD:
        raise PoleProximity(f"{what} magnitude {abs(value):.3e} below pole threshold")


def _o_base_eval(spec, lam, z, want_d):
    """One family formula per root, with scalar special functions."""
    rs = spec.algebra.root_system
    rank, nr = rs.rank, rs.n_roots
    pairings = rs.roots @ (lam - spec.nu.as_array())
    omega, eps, fam = complex(spec.debug_scale_omega), complex(spec.eps), spec.family
    pol = set(spec.polarization)
    span = set()
    if fam in ("TrigDegenerate", "TrigSpectral"):
        span = additive_closure(rs, set(spec.X) | {rs.neg(i) for i in spec.X})
    m = spec.C.copy()
    phi = np.zeros(nr, dtype=complex)
    dphi = np.zeros((rank, nr), dtype=complex) if want_d else None
    if fam == "RationalConstant":
        for p in spec.X:
            h = pairings[p]
            _o_require(h, f"(root {p}, lam-nu)")
            phi[p] = 1.0 / h
            if want_d:
                dphi[:, p] = -rs.roots[p] / (h * h)
    elif fam in ("TrigCotanh", "TrigDegenerate"):
        half = eps / 2
        m += omega * half * np.eye(rank)
        phi += omega * half
        for p in range(nr) if fam == "TrigCotanh" else sorted(span):
            c = _o_coth(eps, pairings[p])
            phi[p] += c
            if want_d:
                dphi[:, p] = (half * half - c * c) * rs.roots[p]
        if fam == "TrigDegenerate":
            for p in range(nr):
                if p not in span:
                    phi[p] += half if p in pol else -half
    elif fam == "EllipticSpectral":
        tau = complex(spec.tau)
        m += omega * (_o_theta(z, tau, 1) / _o_theta_checked(z, tau, "z")) * np.eye(rank)
        for p in range(nr):
            w = -pairings[p]
            phi[p] = _o_sigma(w, z, tau, False)
            if want_d:
                dphi[:, p] = _o_sigma(w, z, tau, True) * (-rs.roots[p])
    elif fam == "TrigSpectral":
        sz = cmath.sin(z)
        _o_require(sz, "sin z")
        m += omega * (cmath.cos(z) / sz) * np.eye(rank)
        for p in range(nr):
            if p in span:
                sa = cmath.sin(pairings[p])
                _o_require(sa, f"sin(root {p}, lam-nu)")
                phi[p] = cmath.sin(pairings[p] + z) / (sa * sz)
                if want_d:
                    dphi[:, p] = -rs.roots[p] / (sa * sa)
            else:
                phi[p] = cmath.exp((-1j if p in pol else 1j) * z) / sz
    else:  # RationalSpectral
        _o_require(z, "z")
        m += omega * (1.0 / z) * np.eye(rank)
        phi += 1.0 / z
        for p in spec.X:
            h = pairings[p]
            _o_require(h, f"(root {p}, lam-nu)")
            phi[p] += 1.0 / h
            if want_d:
                dphi[:, p] = -rs.roots[p] / (h * h)
    return m, phi, dphi


def _o_evaluate(spec, lam, z, want_d):
    """_o_base_eval at the bottom argument, then the gauge stack per root."""
    rs = spec.algebra.root_system
    *levels, base = rmatrix._arguments(spec, lam, z)
    m, phi, dphi = _o_base_eval(spec, *base, want_d)
    for g, (lam_g, z_g) in zip(spec.gauge_stack, reversed(levels)):
        if g.kind == 1:
            m = m + g.c_matrix
        elif g.kind == 2:
            q, v = g.psi
            for p in range(rs.n_roots):
                factor = np.exp(z_g * (rs.roots[p] @ (q @ lam_g + v)))
                if want_d:
                    dphi[:, p] = (dphi[:, p] + phi[p] * (z_g * (rs.roots[p] @ q))) * factor
                phi[p] = phi[p] * factor
            m = m + z_g * q
        elif g.kind == 4:
            a = g.scale[0]
            m, phi = a * m, a * phi
            if want_d:
                dphi = a * a * dphi
    return m, phi, dphi


def _o_record(spec, lam, z, mode, fd_step=1e-5):
    """(v, d) as rmatrix._record gives them, from the oracle: M row-major,
    then phi per root, and dphi per Cartan coordinate for d."""
    rank = spec.algebra.rank
    if mode == "finite-difference":
        m, phi, _ = _o_evaluate(spec, lam, z, False)
        dphi = np.zeros((rank, len(phi)), dtype=complex)
        for i in range(rank):
            step = np.zeros(rank, dtype=complex)
            step[i] = fd_step
            up, dn = _o_evaluate(spec, lam + step, z, False), _o_evaluate(spec, lam - step, z, False)
            assert np.array_equal(up[0], dn[0])  # M does not depend on lambda
            dphi[i] = (up[1] - dn[1]) / (2 * fd_step)
    else:
        m, phi, dphi = _o_evaluate(spec, lam, z, mode == "analytic")
    p = spec.debug_flip_root
    if p is not None:
        phi[p] = -phi[p]
        if dphi is not None:
            dphi[:, p] = -dphi[:, p]
    v = np.concatenate((m.reshape(-1), phi))
    return v, dphi


def _record_zoo(g):
    """_margin_zoo, the three spectral families under a kind-2+4 stack, and
    two specs flipped at a root."""
    rs, rank = g.root_system, g.rank
    q = 0.3 * np.eye(rank) + 0.1 * (np.ones((rank, rank)) - np.eye(rank))
    zoo = _margin_zoo(g)
    for spec in zoo[3:6]:
        for rec in (GaugeRecord(kind=2, psi=(q, 0.15 * np.ones(rank))), GaugeRecord(kind=4, scale=(0.8, 1.6))):
            spec = gauge_apply(spec, rec)
        zoo.append(spec)
    zoo.append(replace(zoo[1], debug_flip_root=int(rs.positive_roots[0]), validate=False))
    zoo.append(replace(zoo[-2], debug_flip_root=rs.n_roots - 1, validate=False))
    return zoo


def _zoo_point(spec):
    lam, zs = _campaign_points((spec,), SamplePlan(seed=0, count=1), 3 if spec.is_spectral else 0)
    return lam[0], None if zs is None else zs[0, 0] - zs[0, 1]


@pytest.mark.parametrize("series, rank", [("A", 1), ("A", 2), ("G", 2), ("B", 3), ("F", 4)])
def test_records_match_scalar_oracle(series, rank):
    g = build_simple_lie_algebra(build_root_system(series, rank))
    for spec in _record_zoo(g):
        lam, z = _zoo_point(spec)
        for mode in (None, "analytic", "finite-difference"):
            got = _by_mode(mode, spec, lam, z)
            want = _o_record(spec, lam, z, mode)
            sup = max(np.max(np.abs(w)) for w in want if w is not None)
            for field, (a, b) in enumerate(zip(got, want)):
                assert (a is None) == (b is None), (spec.family, mode, field)
                if a is not None:
                    tol = 1e-10 if mode == "finite-difference" and field == 1 else 2e-15
                    assert np.max(np.abs(a - b)) <= tol * sup, (spec.family, mode, field)


@pytest.mark.parametrize("algebra", [A2, build_simple_lie_algebra(build_root_system("B", 3))])
def test_argument_batch_equals_single_calls(algebra):
    """A batch of arguments equals single calls bit for bit: five spectral
    arguments at one lambda, five lambdas (constant specs), and a 3 x 5
    grid of three lambdas against the five spectral arguments."""
    zs = np.array([0.21 - 0.13j, -0.33 + 0.2j, 0.4 + 0.05j, -0.21 + 0.13j, 0.05j])
    shifts = np.array([0.0, 0.013 - 0.02j, -0.031 + 0.007j, 0.02j, 0.017])
    for spec in _record_zoo(algebra):
        lam, _ = _zoo_point(spec)
        lams = lam + np.multiply.outer(shifts, np.ones(algebra.rank))
        for mode in (None, "analytic", "finite-difference"):
            if spec.is_spectral:
                batch = _by_mode(mode, spec, lam, zs)
                cases = [(i, lam, z) for i, z in enumerate(zs)]
                grid = _by_mode(mode, spec, lams[:3, None], zs)
                cases += [((i, j), lams[i], z) for i in range(3) for j, z in enumerate(zs)]
                fields = [batch] * len(zs) + [grid] * 15
            else:
                batch = _by_mode(mode, spec, lams, None)
                cases, fields = [(i, x, None) for i, x in enumerate(lams)], [batch] * len(lams)
            for got, (i, x, z) in zip(fields, cases):
                for a, b in zip(got, _by_mode(mode, spec, x, z)):
                    assert (a is None and b is None) or np.array_equal(a[i], b), (spec.family, mode, i)


def test_duplicate_X_entries_count_once():
    """X is a set of roots: a repeated entry adds its 1/(alpha, lam) term
    once, and the spec has the document and the id of the spec without it."""
    lam = np.array([0.41 + 0.1j, -0.23 + 0.05j])
    for family, z in (("RationalSpectral", 0.3 - 0.1j), ("RationalConstant", None)):
        full = RMatrixSpec(algebra=A2, family=family, X=_full_X(A2))
        repeated = RMatrixSpec(algebra=A2, family=family, X=(0,) + _full_X(A2))
        assert repeated.X == full.X
        assert spec_to_json(repeated) == spec_to_json(full)
        assert spec_digest(repeated) == spec_digest(full)
        for mode in (None, "analytic"):
            for a, b in zip(_by_mode(mode, repeated, lam, z), _by_mode(mode, full, lam, z)):
                assert (a is None and b is None) or np.array_equal(a, b), family


def _index_tuples(field, validate):
    """(algebra, family, index tuples of length 0, 1 and 2) for an X or
    polarization case; the validated X cases are simple roots, the others
    start at root 0."""
    if field == "X":
        simple = A2.root_system.simple_roots
        return A2, "TrigDegenerate", [(), simple[:1], simple] if validate else [(), (0,), (0, 5)]
    return (A1 if validate else A2), "TrigCotanh", [(), (0,), (0, 1)]


@pytest.mark.parametrize("validate", [True, False])
@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("field", ["X", "polarization"])
def test_spec_reads_an_index_array_like_its_tuple(field, n, validate):
    """X or polarization given as a numpy array builds the spec that the
    tuple of its entries builds: the same id, or the same SpecInvalid.  An
    empty array means no X or the standard polarization, as () does."""
    g, family, tuples = _index_tuples(field, validate)

    def build(value):
        return RMatrixSpec(algebra=g, family=family, eps=2.0, validate=validate, **{field: value})

    given = np.array(tuples[n], dtype=np.int64)
    try:
        want = build(tuple(tuples[n]))
    except SpecInvalid as exc:
        with pytest.raises(SpecInvalid, match=re.escape(str(exc))):
            build(given)
        return
    got = build(given)
    assert getattr(got, field) == getattr(want, field)
    assert spec_digest(got) == spec_digest(want)
    if n == 0:
        assert spec_digest(got) == spec_digest(build(None))


def test_spec_arrays_are_read_only_copies():
    """A spec and its gauge records keep read-only copies of the caller's
    arrays: changing the caller's C, c_matrix or psi afterwards changes
    neither the digest nor the report, and writing through the spec raises."""
    c = np.array([[0, 0.3], [-0.3, 0]], dtype=complex)
    cm = np.array([[0, 0.2j], [-0.2j, 0]])
    q, v = 0.3 * np.eye(2, dtype=complex), np.array([0.1, 0.2], dtype=complex)
    constant = RMatrixSpec(algebra=A2, family="TrigCotanh", eps=2.0, C=c)
    spectral = RMatrixSpec(algebra=A2, family="EllipticSpectral", tau=2j)
    spectral = gauge_apply(gauge_apply(spectral, GaugeRecord(kind=1, c_matrix=cm)), GaugeRecord(kind=2, psi=(q, v)))
    plan = SamplePlan(seed=1, count=2)
    before = [(spec_digest(s), check_axioms(s, plan).to_json(include_timing=False)) for s in (constant, spectral)]
    for a in (c, cm, q, v):
        a *= 5  # antisymmetric and symmetric payloads stay valid
    for spec, (digest, report) in zip((constant, spectral), before):
        assert spec_digest(replace(spec)) == digest  # taken afresh from the spec's own arrays
        assert check_axioms(spec, plan).to_json(include_timing=False) == report
    g1, g2 = spectral.gauge_stack
    for frozen in (constant.C, g1.c_matrix, *g2.psi):
        assert not frozen.flags.writeable
        with pytest.raises(ValueError):
            frozen[0] = 1


def _pole_cases(g, spec):
    """(lam, z) pairs that put a denominator of spec within 1e-12 of a pole."""
    rs = g.root_system
    a = rs.roots[rs.simple_roots[0]]
    lam_at = lambda value: (a * (value / (a @ a))).astype(complex)
    tiny, fam = 1e-12, spec.family
    z_ok = 0.31 - 0.12j if spec.is_spectral else None
    if fam in ("TrigCotanh", "TrigDegenerate"):
        period = 2j * math.pi / complex(spec.eps)
        return [(lam_at(tiny), None), (lam_at(period + tiny), None)]
    if fam == "RationalConstant":
        return [(lam_at(tiny), None)]
    periods = {"EllipticSpectral": (1.0, spec.tau), "TrigSpectral": (math.pi,)}.get(fam, ())
    lam_ok = lam_at(0.37 + 0.11j)
    cases = [(lam_at(tiny), z_ok), (lam_ok, tiny), (lam_ok, -tiny * 1j)]
    cases += [(lam_at(p + tiny), z_ok) for p in periods] + [(lam_ok, p + tiny) for p in periods]
    return [(lam, complex(z)) for lam, z in cases]


@pytest.mark.parametrize("algebra", [A2, B2])
def test_pole_adjacent_arguments_raise_the_scalar_error(algebra):
    for spec in _margin_zoo(algebra)[:8]:
        lam_ok, z_ok = _zoo_point(spec)  # a sampled point, clear of every pole
        for lam, z in _pole_cases(algebra, spec):
            for mode in (None, "analytic", "finite-difference"):
                with pytest.raises(PoleProximity) as want:
                    _o_record(spec, lam, z, mode)
                with pytest.raises(PoleProximity) as got:
                    _by_mode(mode, spec, lam, z)
                assert str(got.value) == str(want.value), (spec.family, lam, z)
                # in a batch of lambdas the error names the first argument that meets a pole
                with pytest.raises(PoleProximity) as batch:
                    _by_mode(mode, spec, np.stack([lam_ok, lam]), None if z is None else np.array([z_ok, z]))
                assert str(batch.value) == str(got.value), (spec.family, lam, z)
            if z is not None:
                # in a batch of spectral arguments, the first argument that meets a
                # pole raises its own error, as a serial loop over them would
                args = [0.31 - 0.12j, z, 1e-12]  # 1e-12 is a z pole of every spectral family
                with pytest.raises(PoleProximity) as batch:
                    rmatrix._record(spec, lam, np.array(args), True)
                assert str(batch.value) == _first_oracle_error(spec, lam, args), (spec.family, lam, z)


def _first_oracle_error(spec, lam, zs):
    """The message of the first PoleProximity the oracle raises at lam, over zs in order."""
    for z in zs:
        try:
            _o_record(spec, lam, z, "analytic")
        except PoleProximity as exc:
            return str(exc)


# ---------------------------------------------------------------- serialization

def _fancy_spec():
    c = np.array([[0.0, 0.3 + 0.1j], [-0.3 - 0.1j, 0.0]])
    spec = RMatrixSpec(
        algebra=A2,
        family="EllipticSpectral",
        tau=0.2 + 1.4j,
        nu=CartanVector.of([0.11, -0.07 + 0.02j]),
        C=c,
    )
    spec = gauge_apply(spec, GaugeRecord(kind=1, c_matrix=np.array([[0, 1j], [-1j, 0]])))
    spec = gauge_apply(spec, GaugeRecord(kind=2, psi=(np.eye(2) * 0.2, np.array([0.5, 0.1]))))
    spec = gauge_apply(spec, GaugeRecord(kind=3, shift=CartanVector.of([0.03, -0.2])))
    spec = gauge_apply(spec, GaugeRecord(kind=4, scale=(0.7, 1.3)))
    return spec


def test_serialization_round_trip():
    spec = _fancy_spec()
    doc = spec_to_json(spec)
    back = spec_from_json(doc, A2)
    assert spec_to_json(back) == doc
    lam = CartanVector.of([0.51, -0.38])
    z = 0.22 - 0.35j
    r0 = eval_rmatrix(spec, lam, z)
    r1 = eval_rmatrix(back, lam, z)
    assert np.max(np.abs(r0.data - r1.data)) == 0


def test_serialization_keeps_debug_fields():
    spec = RMatrixSpec(
        algebra=A1, family="RationalConstant", X=_full_X(A1),
        debug_flip_root=0, debug_scale_omega=2.0,
    )
    back = spec_from_json(spec_to_json(spec), A1)
    assert back.debug_flip_root == 0
    assert back.debug_scale_omega == 2.0 + 0j
    lam = _lam_with_pairing(A1, 2.0)
    assert np.array_equal(eval_rmatrix(spec, lam).data, eval_rmatrix(back, lam).data)


@pytest.mark.parametrize("validate", [True, False])
@pytest.mark.parametrize("flip", [6, -1, 1.5, "1", True])
def test_debug_flip_root_must_be_a_root_index(flip, validate):
    with pytest.raises(SpecInvalid, match="debug_flip_root must be a root index"):
        RMatrixSpec(algebra=A2, family="TrigCotanh", eps=2.0, debug_flip_root=flip, validate=validate)


@pytest.mark.parametrize("validate", [True, False])
@pytest.mark.parametrize(
    "fields, message",
    [
        ({"family": "RationalConstant", "X": (0.9, 5.2)}, "X entries must be integers, got 0.9"),
        ({"family": "RationalConstant", "X": (True, 4)}, "X entries must be integers, got True"),
        ({"family": "RationalConstant", "X": (0, np.float64(5.0))},
         f"X entries must be integers, got {np.float64(5.0)!r}"),
        ({"family": "TrigCotanh", "eps": 2.0, "polarization": (3.7, 4, 5)},
         "polarization entries must be integers, got 3.7"),
        ({"family": "TrigCotanh", "eps": 2.0, "polarization": (3, 4, False)},
         "polarization entries must be integers, got False"),
    ],
    ids=("X-float", "X-bool", "X-numpy-float", "polarization-float", "polarization-bool"),
)
def test_constructor_refuses_root_index_that_is_not_an_integer(fields, message, validate):
    """The constructor used to truncate: X = (0.9, 5.2) built (0, 5)."""
    with pytest.raises(SpecInvalid, match=re.escape(message)):
        RMatrixSpec(algebra=A2, validate=validate, **fields)


def test_constructor_keeps_integer_root_indices():
    for X in (np.array([5, 0]), (5, 0, 5), [np.int64(0), 5]):
        spec = RMatrixSpec(algebra=A2, family="RationalConstant", X=X)
        assert spec.X == (0, 5) and all(type(i) is int for i in spec.X)
    spec = RMatrixSpec(algebra=A2, family="TrigCotanh", eps=2.0, polarization=(np.int64(5), 4, 3))
    assert spec.polarization == (3, 4, 5) and all(type(i) is int for i in spec.polarization)


def test_spec_from_json_rejects_unknown_gauge_kind():
    doc = spec_to_json(RMatrixSpec(algebra=A2, family="TrigCotanh", eps=2.0))
    doc["gauge_stack"] = [{"kind": 7, "scale": [[1.0, 0.0], [1.0, 0.0]]}]
    with pytest.raises(SpecInvalid, match="gauge kind must be 1..4, got 7"):
        spec_from_json(doc, A2)


_SCALE_ONE = {"scale": [[1.0, 0.0], [1.0, 0.0]]}
_ZERO_C = {"c_matrix": [[[0.0, 0.0]] * 2] * 2}
_RATIONAL = {"family": "RationalConstant", "eps": [0.0, 0.0]}


@pytest.mark.parametrize(
    "bad, good, message",
    [
        ({"gauge_stack": [{"kind": 4.7, **_SCALE_ONE}]}, {"gauge_stack": [{"kind": 4, **_SCALE_ONE}]},
         "gauge kind must be 1..4, got 4.7"),
        ({"gauge_stack": [{"kind": "4", **_SCALE_ONE}]}, {"gauge_stack": [{"kind": 4, **_SCALE_ONE}]},
         "gauge kind must be 1..4, got '4'"),
        ({"gauge_stack": [{"kind": True, **_ZERO_C}]}, {"gauge_stack": [{"kind": 1, **_ZERO_C}]},
         "gauge kind must be 1..4, got True"),
        ({**_RATIONAL, "X": [0.9, 5.2]}, {**_RATIONAL, "X": [0, 5]}, "X entries must be integers, got 0.9"),
        ({**_RATIONAL, "X": [False, 5]}, {**_RATIONAL, "X": [0, 5]}, "X entries must be integers, got False"),
        ({"polarization": [3.1, 4, 5]}, {"polarization": [3, 4, 5]},
         "polarization entries must be integers, got 3.1"),
    ],
    ids=("kind-float", "kind-string", "kind-bool", "X-float", "X-bool", "polarization-float"),
)
def test_spec_from_json_reads_only_integer_indices(bad, good, message):
    """A float, string or bool where the document needs an integer is refused,
    not truncated; the same document with integers loads."""
    doc = spec_to_json(RMatrixSpec(algebra=A2, family="TrigCotanh", eps=2.0))
    spec_from_json({**doc, **good}, A2)
    with pytest.raises(SpecInvalid, match=re.escape(message)):
        spec_from_json({**doc, **bad}, A2)


@pytest.mark.parametrize("kind", [True, 1.0])
def test_gauge_kind_must_be_an_integer(kind):
    with pytest.raises(SpecInvalid, match="gauge kind must be 1..4"):
        GaugeRecord(kind=kind, c_matrix=np.zeros((2, 2)))


_ZERO_PSI = {"Q": [[[0.0, 0.0]] * 2] * 2, "v": [[0.0, 0.0]] * 2}
_ELLIPTIC = {"family": "EllipticSpectral", "eps": [1.0, 0.0], "tau": [0.0, 2.0]}
_SHIFT = {"kind": 3, "shift": [[0.5, 0.0], [0.0, 0.0]]}


@pytest.mark.parametrize(
    "bad, good, message",
    [
        ({"gauge_stak": [_SHIFT], "epsilon": [7.0, 0.0]}, {"gauge_stack": [_SHIFT], "eps": [7.0, 0.0]},
         "spec document has unknown keys 'gauge_stak', 'epsilon'"),
        ({"algebra": {"series": "A", "rank": 2, "type": "A2"}}, {"algebra": {"series": "A", "rank": 2}},
         "spec document has unknown key 'type' (in algebra)"),
        ({"gauge_stack": [{"kind": 4, **_SCALE_ONE}, {**_SHIFT, "shfit": 1}]},
         {"gauge_stack": [{"kind": 4, **_SCALE_ONE}, _SHIFT]},
         "spec document has unknown key 'shfit' (in gauge_stack[1])"),
        ({"gauge_stack": [{"kind": 1, **_ZERO_C, **_SCALE_ONE}]}, {"gauge_stack": [{"kind": 1, **_ZERO_C}]},
         "spec document has unknown key 'scale' (in gauge_stack[0])"),
        ({**_ELLIPTIC, "gauge_stack": [{"kind": 2, "psi": {**_ZERO_PSI, "W": [0.0, 0.0]}}]},
         {**_ELLIPTIC, "gauge_stack": [{"kind": 2, "psi": _ZERO_PSI}]},
         "spec document has unknown key 'W' (in gauge_stack[0].psi)"),
    ],
    ids=("top-level", "algebra", "gauge-record", "other-kind-payload", "psi"),
)
def test_spec_from_json_refuses_unknown_keys(bad, good, message):
    """A key that spec_to_json does not write is refused and named, at any
    depth: a misspelled optional key would otherwise load another spec.
    The document with the key spelled right loads."""
    doc = spec_to_json(RMatrixSpec(algebra=A2, family="TrigCotanh", eps=2.0))
    spec_from_json({**doc, **good}, A2)
    with pytest.raises(SpecInvalid, match=re.escape(message) + "$"):
        spec_from_json({**doc, **bad}, A2)


def test_spec_documents_round_trip_and_optional_keys_may_be_left_out():
    """spec_to_json documents of every family, gauged or not, load back to
    themselves; a document without its optional keys (version, tau,
    gauge_stack and the debug fields) loads the same spec."""
    specs = [
        RMatrixSpec(algebra=A2, family="RationalConstant", X=_full_X(A2)),
        RMatrixSpec(algebra=A2, family="TrigCotanh", eps=2.0, nu=CartanVector.of([0.1, 0.2j])),
        RMatrixSpec(algebra=A2, family="TrigDegenerate", eps=1.5, X=(A2.root_system.simple_roots[0],)),
        RMatrixSpec(algebra=A2, family="TrigSpectral", X=(A2.root_system.simple_roots[1],)),
        RMatrixSpec(algebra=A2, family="RationalSpectral", X=_full_X(A2)),
        _fancy_spec(),
    ]
    for spec in specs:
        doc = spec_to_json(spec)
        assert spec_to_json(spec_from_json(doc, A2)) == doc
        if not spec.gauge_stack and spec.tau is None:
            bare = {k: v for k, v in doc.items()
                    if k not in ("version", "tau", "gauge_stack", "debug_flip_root", "debug_scale_omega")}
            assert spec_to_json(spec_from_json(bare, A2)) == doc


def test_serialization_algebra_mismatch():
    spec = RMatrixSpec(algebra=A1, family="RationalConstant", X=_full_X(A1))
    with pytest.raises(SpecInvalid):
        spec_from_json(spec_to_json(spec), A2)


def test_json_values_are_plain_types():
    import json

    doc = spec_to_json(_fancy_spec())
    json.dumps(doc)  # must not hit numpy scalars


# ---------------------------------------------------------------- family_phi

def test_family_phi_values():
    rs = A1.root_system
    pos = rs.positive_roots[0]
    rational = RMatrixSpec(algebra=A1, family="RationalConstant", X=_full_X(A1))
    lam = _lam_with_pairing(A1, 2.0)
    assert family_phi(rational, lam, pos) == pytest.approx(0.5)
    # identity-bearing part of the cotanh family drops the eps/2 shift
    cot = RMatrixSpec(algebra=A1, family="TrigCotanh", eps=2.0)
    lam2 = _lam_with_pairing(A1, math.log(2.0))
    assert family_phi(cot, lam2, pos) == pytest.approx(5.0 / 3.0, abs=1e-13)
    ell = RMatrixSpec(algebra=A1, family="EllipticSpectral", tau=1j)
    a = 0.37
    lam3 = _lam_with_pairing(A1, a)
    z = 0.21 - 0.4j
    want = sigma_w(-a, z, ThetaParams(tau=1j))
    assert family_phi(ell, lam3, pos, z=z) == pytest.approx(want, rel=1e-13)
