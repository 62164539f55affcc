"""Axiom checks, residual assembly, limits, reduction, and the series bridge."""

import gc
import itertools
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from _oracle import (
    RootSumNonzero,
    _serial_points,
    act_diag,
    addition_identity_residual,
    basis_index,
    bracket_legs,
    casimir,
    check_phi_triangle,
    fd_record,
    phi_ode_residual,
    record_axiom_tables,
    sample_lambda,
    sample_spectral_point,
    transpose_legs,
)
from dynr import (
    CartanVector,
    ConvergenceFailure,
    GaugeRecord,
    LimitSchedule,
    NonFiniteValue,
    RMatrixSpec,
    SamplePlan,
    SamplingExhausted,
    SpecInvalid,
    SubalgebraInvalid,
    Tensor2,
    Tensor3,
    ThetaParams,
    affine_hat_spec,
    affine_series_check,
    build_root_system,
    build_simple_lie_algebra,
    cdybe_residual,
    check_axioms,
    effective_coupling,
    enumerate_closed_subsets,
    eval_dlambda,
    eval_rmatrix,
    extract_residue,
    family_phi,
    fundamental_weights,
    gauge_apply,
    limit_compare,
    reduce_pair_check,
)
from dynr import rmatrix, verifier
from dynr.combinatorics import additive_closure, is_closed_subset

A1 = build_simple_lie_algebra(build_root_system("A", 1))
A2 = build_simple_lie_algebra(build_root_system("A", 2))
B2 = build_simple_lie_algebra(build_root_system("B", 2))

PLAN = SamplePlan(seed=42, count=4)


def _full_X(g):
    return tuple(range(g.root_system.n_roots))


def _family_zoo(algebra):
    rs = algebra.root_system
    return [
        RMatrixSpec(algebra=algebra, family="RationalConstant", X=_full_X(algebra)),
        RMatrixSpec(algebra=algebra, family="TrigCotanh", eps=2.0),
        RMatrixSpec(algebra=algebra, family="TrigDegenerate", eps=1.0, X=rs.simple_roots[:1]),
        RMatrixSpec(algebra=algebra, family="EllipticSpectral", tau=1j),
        RMatrixSpec(algebra=algebra, family="TrigSpectral", X=rs.simple_roots),
        RMatrixSpec(algebra=algebra, family="RationalSpectral", X=_full_X(algebra)),
    ]


def _fd_residual(spec, lam, zs=None):
    """verifier._residual's vectors on w3 with every derivative taken by
    fd_record, at the arguments verifier._point_records uses."""
    lam = np.asarray(lam)
    if zs is None:
        rec, roles = fd_record(spec, lam[..., None, :], None), (0,) * 6
    else:
        zs = np.asarray(zs, dtype=complex)
        rec, roles = fd_record(spec, lam[..., None, :], zs[..., [0, 0, 1, 2]] - zs[..., [1, 2, 2, 0]]), (0, 1, 2, 2, 3, 0)
    return verifier._cdybe_from(spec.algebra, rec, roles)


def _lam_with_pairings(g, values):
    rs = g.root_system
    simple = rs.roots[list(rs.simple_roots)]
    return CartanVector.of(np.linalg.solve(simple, np.asarray(values, dtype=complex)))


# ---------------------------------------------------------------- residuals

@pytest.mark.parametrize("idx", range(6))
def test_residual_vanishes_for_every_family(idx):
    spec = _family_zoo(A2)[idx]
    rng = np.random.default_rng(11)
    for _ in range(3):
        if spec.is_spectral:
            lam, zs = sample_spectral_point(spec, PLAN, rng)
            res = cdybe_residual(spec, lam, zs)
        else:
            lam = sample_lambda(spec, PLAN, rng)
            res = cdybe_residual(spec, lam)
        assert res.norm() < 1e-10


def test_residual_dispatcher():
    spec = RMatrixSpec(algebra=A1, family="RationalConstant", X=_full_X(A1))
    lam = CartanVector.of([0.8])
    assert cdybe_residual(spec, lam).norm() < 1e-12
    sp = RMatrixSpec(algebra=A1, family="RationalSpectral", X=())
    zs = (0.21 - 0.3j, -0.14 - 0.1j, 0.33 + 0.05j)
    assert cdybe_residual(sp, lam, zs=zs).norm() < 1e-12


def test_residual_finite_difference_agrees():
    for spec in (_family_zoo(A2)[0], _family_zoo(A2)[3]):
        rng = np.random.default_rng(5)
        if spec.is_spectral:
            lam, zs = sample_spectral_point(spec, PLAN, rng)
        else:
            lam, zs = sample_lambda(spec, PLAN, rng), None
        an = cdybe_residual(spec, lam, zs).values
        fd = _fd_residual(spec, lam.as_array(), zs)
        assert np.max(np.abs(an - fd)) < 1e-6
        assert verifier._sup(fd) < 1e-6


def test_nonsolution_has_loud_residual():
    # the invariant tensor alone is not a solution: no Cartan derivative
    # keeps the root brackets from canceling
    spec = RMatrixSpec(
        algebra=A2, family="TrigCotanh", eps=2.0, debug_scale_omega=0.0, validate=False
    )
    lam = CartanVector.of([0.83, -0.41])
    assert cdybe_residual(spec, lam).norm() > 1e-2


# ---------------------------------------------------------------- check_axioms

@pytest.mark.parametrize("idx", range(6))
def test_check_axioms_passes_for_every_family(idx):
    spec = _family_zoo(A2)[idx]
    report = check_axioms(spec, PLAN)
    assert report.passed, [(c.name, c.max_residual) for c in report.checks]
    names = [c.name for c in report.checks]
    assert "zero-weight" in names
    assert "unitarity" in names
    assert "cdybe-residual" in names
    assert "residual-weight-zero" in names
    assert "negative-control-margin" in names
    if spec.is_spectral:
        assert "residue" in names
        assert "residual-skew" not in names
    else:
        assert "residual-skew" in names
        assert "residue" not in names


def test_check_axioms_report_fields():
    spec = RMatrixSpec(algebra=A1, family="TrigCotanh", eps=2.0)
    report = check_axioms(spec, PLAN)
    assert report.algebra_id == "A1"
    assert report.seed == 42
    assert report.samples_used == PLAN.count
    assert report.spec_id.startswith("TrigCotanh:")
    doc = report.to_json()
    assert set(doc) == {
        "version", "spec", "algebra", "seed", "samples_used", "passed", "checks", "wall_time",
    }
    for entry in doc["checks"]:
        assert set(entry) == {"name", "tolerance", "max_residual", "n_samples", "pass"}
    assert "wall_time" not in report.to_json(include_timing=False)


def test_check_axioms_deterministic():
    spec = RMatrixSpec(algebra=A2, family="EllipticSpectral", tau=2j)
    a = check_axioms(spec, PLAN).to_json(include_timing=False)
    b = check_axioms(spec, PLAN).to_json(include_timing=False)
    assert a == b


def test_negative_control_flip():
    rs = A2.root_system
    spec = RMatrixSpec(
        algebra=A2, family="RationalConstant", X=_full_X(A2),
        debug_flip_root=rs.positive_roots[0], validate=False,
    )
    report = check_axioms(spec, PLAN)
    assert not report.passed
    resid = {c.name: c.max_residual for c in report.checks}
    assert resid["cdybe-residual"] > 1e-3


def test_negative_control_broken_closure():
    rs = A2.root_system
    s0, s1 = rs.simple_roots
    # {a1, -a1, a2, -a2} misses a1+a2: not closed, not a solution
    bad_x = (s0, rs.neg(s0), s1, rs.neg(s1))
    spec = RMatrixSpec(
        algebra=A2, family="RationalConstant", X=bad_x, validate=False
    )
    report = check_axioms(spec, PLAN)
    assert not report.passed
    resid = {c.name: c.max_residual for c in report.checks}
    assert resid["cdybe-residual"] > 1e-3


def test_negative_control_wrong_coupling():
    spec = RMatrixSpec(
        algebra=A1, family="TrigCotanh", eps=2.0, debug_scale_omega=2.0, validate=False
    )
    report = check_axioms(spec, PLAN)
    assert not report.passed
    resid = {c.name: c.max_residual for c in report.checks}
    assert max(resid["cdybe-residual"], resid["unitarity"]) > 1e-3


# ---------------------------------------------------------------- residue

def test_extract_residue_exact_pole():
    spec = RMatrixSpec(algebra=A1, family="RationalSpectral", X=())
    lam = CartanVector.of([0.9])
    res, eps_est, dev = extract_residue(spec, lam)
    assert dev <= 1e-13
    assert abs(eps_est - 1.0) <= 1e-13
    assert np.max(np.abs(res.data - casimir(A1).data)) < 1e-13


def test_extract_residue_elliptic():
    spec = RMatrixSpec(algebra=A2, family="EllipticSpectral", tau=1j)
    lam = CartanVector.of([0.27, -0.38])
    _, eps_est, dev = extract_residue(spec, lam)
    assert abs(eps_est - 1.0) <= 1e-8
    assert dev <= 1e-8


def test_extract_residue_after_rescale():
    base = RMatrixSpec(algebra=A1, family="RationalSpectral", X=())
    gauged = gauge_apply(base, GaugeRecord(kind=4, scale=(1.0, 2.0)))
    _, eps_est, dev = extract_residue(gauged, CartanVector.of([0.7]))
    assert abs(eps_est - 0.5) <= 1e-8
    assert dev <= 1e-8


# ---------------------------------------------------------------- identities

def test_phi_triangle_cotanh_hand_value():
    spec = RMatrixSpec(algebra=A2, family="TrigCotanh", eps=2.0)
    lam = _lam_with_pairings(A2, [math.log(2.0), math.log(2.0)])
    rs = A2.root_system
    s0, s1 = rs.simple_roots
    gamma = rs.neg(rs.add(s0, s1))
    # 5/3 * 5/3 + (5/3)(-17/15) + (-17/15)(5/3) + 1 = 25/9 - 34/9 + 1 = 0
    assert family_phi(spec, lam, s0) == pytest.approx(5.0 / 3.0, abs=1e-13)
    assert family_phi(spec, lam, s1) == pytest.approx(5.0 / 3.0, abs=1e-13)
    assert family_phi(spec, lam, gamma) == pytest.approx(-17.0 / 15.0, abs=1e-13)
    assert abs(check_phi_triangle(spec, s0, s1, gamma, lam)) < 1e-13


def test_phi_triangle_across_families():
    rs = A2.root_system
    s0, s1 = rs.simple_roots
    gamma = rs.neg(rs.add(s0, s1))
    lam = CartanVector.of([0.61 + 0.07j, -0.43 + 0.11j])
    zoo = _family_zoo(A2)
    for spec in zoo:
        if spec.family == "TrigDegenerate":
            continue  # off-span phis satisfy a degenerate case checked below
        val = check_phi_triangle(spec, s0, s1, gamma, lam)
        assert abs(val) < 1e-11, spec.family


def test_phi_triangle_degenerate_cases():
    # X = () puts every root off span: phi = +-eps/2 by polarization sign
    spec = RMatrixSpec(algebra=A2, family="TrigDegenerate", eps=2.0, X=())
    rs = A2.root_system
    s0, s1 = rs.simple_roots
    gamma = rs.neg(rs.add(s0, s1))
    lam = CartanVector.of([0.3, 0.4])
    assert abs(check_phi_triangle(spec, s0, s1, gamma, lam)) < 1e-14


def test_phi_triangle_gates():
    spec = RMatrixSpec(algebra=A2, family="TrigCotanh", eps=1.0)
    rs = A2.root_system
    s0, s1 = rs.simple_roots
    lam = CartanVector.of([0.3, 0.4])
    with pytest.raises(RootSumNonzero):
        check_phi_triangle(spec, s0, s1, rs.neg(s0), lam)
    with pytest.raises(SpecInvalid):
        check_phi_triangle(spec, s0, s1, rs.neg(rs.add(s0, s1)), lam, z_args=(0.1, 0.2, 0.3))


def test_phi_ode_residuals():
    rs = A2.root_system
    lam = CartanVector.of([0.87, -0.33])
    rational = RMatrixSpec(algebra=A2, family="RationalConstant", X=_full_X(A2))
    cot = RMatrixSpec(algebra=A2, family="TrigCotanh", eps=2.0)
    degen = RMatrixSpec(algebra=A2, family="TrigDegenerate", eps=2.0, X=rs.simple_roots[:1])
    for spec in (rational, cot, degen):
        for p in rs.positive_roots:
            assert phi_ode_residual(spec, p, lam) < 1e-8, (spec.family, p)


def test_phi_ode_gates():
    sp = RMatrixSpec(algebra=A1, family="RationalSpectral", X=())
    with pytest.raises(SpecInvalid):
        phi_ode_residual(sp, 0, CartanVector.of([0.5]))
    base = RMatrixSpec(algebra=A1, family="TrigCotanh", eps=1.0)
    gauged = gauge_apply(base, GaugeRecord(kind=3, shift=CartanVector.of([0.1])))
    with pytest.raises(SpecInvalid):
        phi_ode_residual(gauged, 0, CartanVector.of([0.5]))


def test_addition_identity():
    params = ThetaParams(tau=1j)
    for (w, u, v) in [
        (0.41, 0.23 - 0.31j, 0.18 + 0.12j),
        (0.3 + 0.22j, -0.27 - 0.09j, 0.33 - 0.17j),
    ]:
        assert abs(addition_identity_residual(w, u, v, params)) < 1e-12


# ---------------------------------------------------------------- gauges

def _gauges_for(spec):
    rank = spec.algebra.rank
    c = np.zeros((rank, rank), dtype=complex)
    if rank > 1:
        c[0, 1], c[1, 0] = 0.4 + 0.1j, -0.4 - 0.1j
    out = [
        GaugeRecord(kind=1, c_matrix=c),
        GaugeRecord(kind=3, shift=CartanVector.of([0.21] * rank)),
    ]
    if spec.is_spectral:
        q = 0.3 * np.eye(rank)
        out.append(GaugeRecord(kind=2, psi=(q, 0.15 * np.ones(rank))))
        out.append(GaugeRecord(kind=4, scale=(0.8, 1.6)))
    else:
        out.append(GaugeRecord(kind=4, scale=(0.8, 1.0)))
    return out


@pytest.mark.parametrize("idx", range(6))
def test_gauge_covariance_of_residual(idx):
    spec = _family_zoo(A2)[idx]
    for g in _gauges_for(spec):
        gauged = gauge_apply(spec, g)
        rng = np.random.default_rng(31)
        if gauged.is_spectral:
            lam, zs = sample_spectral_point(gauged, PLAN, rng)
            res = cdybe_residual(gauged, lam, zs)
        else:
            lam = sample_lambda(gauged, PLAN, rng)
            res = cdybe_residual(gauged, lam)
        assert res.norm() < 2e-8, (spec.family, g.kind)


def test_gauge_stack_composition_stays_solution():
    spec = _family_zoo(A2)[3]
    for g in _gauges_for(spec):
        spec = gauge_apply(spec, g)
    rng = np.random.default_rng(13)
    lam, zs = sample_spectral_point(spec, PLAN, rng)
    assert cdybe_residual(spec, lam, zs).norm() < 2e-8


# ---------------------------------------------------------------- limits

def test_limit_tau_schedule_cauchy():
    spec = RMatrixSpec(algebra=A1, family="EllipticSpectral", tau=4j)
    schedule = LimitSchedule(parameter="tau", values=(4j, 6j, 8j))
    cmp = limit_compare(spec, schedule, None, SamplePlan(seed=42, count=6))
    assert cmp.n_samples == 6
    assert cmp.cauchy[0] > cmp.cauchy[1]
    assert cmp.cauchy[-1] < 1e-5
    assert cmp.max_deviation == cmp.cauchy[-1]


def test_limit_nu_ray_reaches_degenerate_profile():
    from dynr.lie_core import fundamental_weights

    rs = A2.root_system
    x_simple = rs.simple_roots[:1]
    weights = fundamental_weights(rs)
    outside = [i for i in range(rs.rank) if rs.simple_roots[i] not in x_simple]
    ray = CartanVector.of(-weights[outside].sum(axis=0))
    base = CartanVector.of([0.37 + 0.11j, 0.37 + 0.11j])
    spec = RMatrixSpec(algebra=A2, family="TrigCotanh", eps=2.0)
    # the ray is orthogonal to span(X), so the target keeps the base offset
    target = RMatrixSpec(algebra=A2, family="TrigDegenerate", eps=2.0, X=x_simple, nu=base)
    schedule = LimitSchedule(parameter="nu-ray", values=(20.0, 40.0), base=base, ray=ray)
    cmp = limit_compare(spec, schedule, target, SamplePlan(seed=42, count=6))
    assert cmp.cauchy[-1] < 1e-5
    assert cmp.final_deviation <= 1e-5


def test_limit_schedule_gates():
    with pytest.raises(SpecInvalid):
        LimitSchedule(parameter="eps", values=(1, 2))
    with pytest.raises(SpecInvalid):
        LimitSchedule(parameter="tau", values=(4j,))
    with pytest.raises(SpecInvalid):
        LimitSchedule(parameter="nu-ray", values=(1.0, 2.0))
    # a value equal to the one before it has a Cauchy gap of exactly 0, which would read as converged
    for values in ((4j, 4j), (6j, 6j, 6j), (4j, 6j, 6j)):
        with pytest.raises(SpecInvalid, match="schedule repeats a value"):
            LimitSchedule(parameter="tau", values=values)
    with pytest.raises(SpecInvalid, match="schedule repeats a value"):
        LimitSchedule(parameter="nu-ray", values=(20.0, 20.0), base=CartanVector.zero(2), ray=CartanVector.of([1.0, 0.0]))
    LimitSchedule(parameter="tau", values=(4j, 6j, 4j))  # only neighbours must differ


def test_limit_rejects_mixed_kinds():
    spec = RMatrixSpec(algebra=A1, family="TrigCotanh", eps=2.0)
    target = RMatrixSpec(algebra=A1, family="RationalSpectral", X=())
    schedule = LimitSchedule(
        parameter="nu-ray", values=(1.0, 2.0),
        base=CartanVector.zero(1), ray=CartanVector.of([1.0]),
    )
    with pytest.raises(SpecInvalid):
        limit_compare(spec, schedule, target, PLAN)


# ---------------------------------------------------------------- reduction

def test_reduce_pair_on_a2_line():
    spec = RMatrixSpec(algebra=A2, family="RationalConstant", X=_full_X(A2))
    rs = A2.root_system
    report = reduce_pair_check(spec, rs.simple_roots[:1], PLAN)
    assert report.passed
    resid = {c.name: c.max_residual for c in report.checks}
    assert resid["projector-cdybe"] <= 1e-9
    assert resid["pair-sum-cdybe"] <= 1e-8


def test_reduce_pair_on_b2_long_line():
    spec = RMatrixSpec(algebra=B2, family="RationalConstant", X=_full_X(B2))
    rs = B2.root_system
    long_pos = [i for i in rs.positive_roots if rs.length_sq(i) == 2][:1]
    report = reduce_pair_check(spec, long_pos, PLAN)
    assert report.passed


def test_reduce_pair_gates():
    spec = RMatrixSpec(algebra=A2, family="RationalConstant", X=_full_X(A2))
    rs = A2.root_system
    s0, s1 = rs.simple_roots
    with pytest.raises(SubalgebraInvalid):
        reduce_pair_check(spec, [s0, s1], PLAN)  # misses s0+s1
    with pytest.raises(SubalgebraInvalid):
        reduce_pair_check(spec, [rs.neg(s0)], PLAN)
    sp = RMatrixSpec(algebra=A2, family="RationalSpectral", X=())
    with pytest.raises(SpecInvalid):
        reduce_pair_check(sp, [s0], PLAN)


# ---------------------------------------------------------------- series

def test_affine_series_matches_closed_form():
    lam = CartanVector.of([0.41])
    dev = affine_series_check(lam, tau=2j, z=0.3 - 0.5j, n_terms=50)
    assert dev <= 1e-9


def test_affine_series_on_rank_two():
    lam = CartanVector.of([0.41, -0.29])
    dev = affine_series_check(lam, tau=2j, z=0.3 - 0.5j, n_terms=50, algebra=A2)
    assert dev <= 1e-9


def test_affine_series_truncation_monotone():
    lam = CartanVector.of([0.41])
    devs = [
        affine_series_check(lam, tau=2j, z=0.3 - 0.5j, n_terms=n) for n in (2, 5, 10)
    ]
    assert devs[0] > devs[1] > devs[2]


def test_affine_series_annulus_gate():
    lam = CartanVector.of([0.41])
    with pytest.raises(ConvergenceFailure):
        affine_series_check(lam, tau=2j, z=0.3, n_terms=20)


def test_affine_series_rank_gate():
    with pytest.raises(SpecInvalid):
        affine_series_check(CartanVector.of([0.4, 0.1]), tau=2j, z=0.3 - 0.5j, n_terms=5)


def test_affine_hat_spec_properties():
    hat = affine_hat_spec(A1, 2j)
    assert abs(effective_coupling(hat) - 1.0 / (1j * math.pi)) < 1e-15
    rng = np.random.default_rng(3)
    lam, zs = sample_spectral_point(hat, PLAN, rng)
    assert cdybe_residual(hat, lam, zs).norm() < 1e-10


# ---------------------------------------------------------------- point validation

_COT = RMatrixSpec(algebra=A2, family="TrigCotanh", eps=2.0)
_ELL = RMatrixSpec(algebra=A2, family="EllipticSpectral", tau=2j)
_LAM = CartanVector.of([0.31 + 0.1j, -0.27])
_SHORT, _LONG = CartanVector.of([0.3 + 0.1j]), CartanVector.of([0.3, 0.2, 0.1])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: rmatrix.eval_rmatrix(_COT, _SHORT), "lambda must have 2 coordinates, got 1"),
        (lambda: rmatrix.eval_rmatrix(_COT, _LONG), "lambda must have 2 coordinates, got 3"),
        (lambda: rmatrix.pole_margin(_COT, _SHORT), "lambda must have 2 coordinates, got 1"),
        (lambda: family_phi(_COT, _LONG, 0), "lambda must have 2 coordinates, got 3"),
        (lambda: eval_dlambda(_COT, _SHORT), "lambda must have 2 coordinates, got 1"),
        (lambda: cdybe_residual(_COT, _SHORT), "lambda must have 2 coordinates, got 1"),
        (lambda: cdybe_residual(_ELL, _LONG, (0.1, 0.2j, 0.3)), "lambda must have 2 coordinates, got 3"),
        (lambda: extract_residue(_ELL, _SHORT), "lambda must have 2 coordinates, got 1"),
        (lambda: rmatrix.eval_rmatrix(_ELL, _LAM), "EllipticSpectral needs a spectral argument z"),
        (lambda: family_phi(_ELL, _LAM, 0), "EllipticSpectral needs a spectral argument z"),
        (lambda: rmatrix.pole_margin(_ELL, _LAM), "EllipticSpectral needs a spectral argument z"),
        (lambda: eval_dlambda(_ELL, _LAM), "EllipticSpectral needs a spectral argument z"),
        (lambda: cdybe_residual(_ELL, _LAM), r"EllipticSpectral residual needs a \(z1, z2, z3\) triple"),
        (lambda: rmatrix.eval_rmatrix(_COT, _LAM, 0.3), "TrigCotanh takes no z"),
        (lambda: family_phi(_COT, _LAM, 0, 0.3), "TrigCotanh takes no z"),
        (lambda: rmatrix.pole_margin(_COT, _LAM, 0.3), "TrigCotanh takes no z"),
        (lambda: eval_dlambda(_COT, _LAM, 0.3), "TrigCotanh takes no z"),
        (lambda: cdybe_residual(_COT, _LAM, (0.1, 0.2j, 0.3)), "TrigCotanh takes no z"),
        (lambda: family_phi(_COT, _LAM, 6), r"alpha must be a root index in \[0, 6\), got 6"),
        (lambda: family_phi(_COT, _LAM, -1), r"alpha must be a root index in \[0, 6\), got -1"),
        (lambda: check_phi_triangle(_COT, 0, 1, 9, _LAM), r"gamma must be a root index in \[0, 6\), got 9"),
        (lambda: check_phi_triangle(_ELL, 7, 1, 2, _LAM), r"alpha must be a root index in \[0, 6\), got 7"),
        (lambda: phi_ode_residual(_COT, 6, _LAM), r"alpha must be a root index in \[0, 6\), got 6"),
        (lambda: rmatrix.eval_rmatrix(_ELL, _LAM, [0.1, 0.2]), r"z must be one complex number, got shape \(2,\)"),
        (lambda: eval_dlambda(_ELL, _LAM, [0.1, 0.2]), r"z must be one complex number, got shape \(2,\)"),
        (lambda: family_phi(_ELL, _LAM, 0, [0.1, 0.2]), r"z must be one complex number, got shape \(2,\)"),
        (lambda: rmatrix.pole_margin(_ELL, _LAM, [0.1, 0.2]), r"z must be one complex number, got shape \(2,\)"),
        (lambda: cdybe_residual(_ELL, _LAM, (0.1, 0.2)), r"EllipticSpectral residual needs a \(z1, z2, z3\) triple"),
    ],
)
def test_public_entry_points_validate_the_point(call, message):
    """A point of the wrong rank, a missing or extra spectral argument and a
    root index out of range raise SpecInvalid, not a numpy error or a value
    at a broadcast point."""
    with pytest.raises(SpecInvalid, match=message):
        call()


# ---------------------------------------------------------------- sampling

def test_sample_plan_gates():
    with pytest.raises(SpecInvalid):
        SamplePlan(count=0)
    with pytest.raises(SpecInvalid):
        SamplePlan(pole_margin=0.0)
    with pytest.raises(SpecInvalid):
        SamplePlan(box=(1.0, -1.0))
    with pytest.raises(SpecInvalid):
        SamplePlan(z_box=(0.5, 0.5))
    with pytest.raises(SpecInvalid, match="seed must be a non-negative integer"):
        SamplePlan(seed=-1)
    for margin in (math.inf, math.nan):  # an infinite margin would reject every draw
        with pytest.raises(SpecInvalid, match="pole_margin must be finite and positive"):
            SamplePlan(pole_margin=margin)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"seed": True},
        {"count": 2.5},
        {"count": True},
        {"count": "3"},
        {"max_resamples": 2.5},
        {"max_resamples": False},
        {"max_resamples": 0},
        {"max_resamples": -3},
        {"box": (-math.inf, 2.0)},
        {"box": (-2.0, math.inf)},
        {"box": (-1e308, 1e308)},
        {"z_box": (-0.6, math.nan)},
        {"z_box": (-0.6,)},
    ],
)
def test_sample_plan_rejects_what_the_sampler_cannot_draw(kwargs):
    """The seed and the counts are integers that are not bools, and each box is a
    finite increasing pair whose span is finite, since a coordinate is drawn
    as lo + (hi - lo) * u."""
    with pytest.raises(SpecInvalid):
        SamplePlan(**kwargs)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"box": (0, 1j)}, "box must be a finite increasing"),
        ({"box": ("a", "b")}, "box must be a finite increasing"),
        ({"z_box": (None, 1)}, "z_box must be a finite increasing"),
        ({"box": 0}, "box must be a finite increasing"),
        ({"box": {"lo": -1.0, "hi": 1.0}}, "box must be a finite increasing"),
        ({"z_box": (np.zeros(2), np.ones(2))}, "z_box must be a finite increasing"),
        ({"box": (np.complex128(-1), np.complex128(1 + 1j))}, "box must be a finite increasing"),
        ({"pole_margin": "x"}, "pole_margin must be finite and positive"),
        ({"pole_margin": 1j}, "pole_margin must be finite and positive"),
        ({"pole_margin": np.complex128(0.1 + 1j)}, "pole_margin must be finite and positive"),
    ],
)
def test_sample_plan_names_a_value_of_the_wrong_type(kwargs, message):
    """A box or margin that is not real numbers is SpecInvalid with its check's
    message: not a TypeError from the comparison, nor accepted where numpy
    orders complex values."""
    with pytest.raises(SpecInvalid, match=message):
        SamplePlan(**kwargs)


def test_sample_plan_accepts_numpy_integers():
    """A plan of numpy integers gives the report of the same ints: the campaign
    seeds random.Random, which takes no numpy integer on Python 3.11, with
    int(seed)."""
    spec = RMatrixSpec(algebra=A2, family="EllipticSpectral", tau=2j)
    for seed in (3, 2**40 + 7):
        plan = SamplePlan(seed=np.int64(seed), count=np.int64(2), max_resamples=np.int32(50))
        report = check_axioms(spec, plan).to_json(include_timing=False)
        assert report["samples_used"] == 2
        assert report == check_axioms(spec, SamplePlan(seed=seed, count=2, max_resamples=50)).to_json(include_timing=False)


def test_sampling_exhausted():
    spec = RMatrixSpec(algebra=A1, family="RationalConstant", X=_full_X(A1))
    plan = SamplePlan(box=(-0.001, 0.001), pole_margin=0.5, max_resamples=10)
    rng = np.random.default_rng(0)
    with pytest.raises(SamplingExhausted):
        sample_lambda(spec, plan, rng)


def test_limit_and_pair_sampling_exhausted():
    spec = RMatrixSpec(algebra=A2, family="RationalConstant", X=_full_X(A2))
    plan = SamplePlan(box=(-0.001, 0.001), pole_margin=0.5, max_resamples=10)
    zero = CartanVector.zero(2)
    schedule = LimitSchedule(parameter="nu-ray", values=(1.0, 2.0), base=zero, ray=zero)
    with pytest.raises(SamplingExhausted):
        limit_compare(spec, schedule, None, plan)
    with pytest.raises(SamplingExhausted):
        reduce_pair_check(spec, A2.root_system.simple_roots[:1], plan)


def test_samples_respect_margin():
    spec = RMatrixSpec(algebra=A2, family="RationalConstant", X=_full_X(A2))
    from dynr import pole_margin

    rng = np.random.default_rng(42)
    for _ in range(10):
        lam = sample_lambda(spec, PLAN, rng)
        assert pole_margin(spec, lam) >= PLAN.pole_margin


def _sampler_cases():
    """(specs, n_z) for every family shape the sampler meets, on B3."""
    g = build_simple_lie_algebra(build_root_system("B", 3))
    rs = g.root_system
    shift = GaugeRecord(kind=3, shift=CartanVector.of([0.2 - 0.1j, -0.3, 0.05j]))
    trig = RMatrixSpec(algebra=g, family="TrigCotanh", eps=2.0)
    rational = RMatrixSpec(algebra=g, family="RationalConstant", X=_full_X(g))
    elliptic = RMatrixSpec(algebra=g, family="EllipticSpectral", tau=2j)
    trig_spectral = RMatrixSpec(algebra=g, family="TrigSpectral", X=rs.simple_roots[:1])
    gauged_constant = gauge_apply(gauge_apply(trig, shift), GaugeRecord(kind=4, scale=(0.8, 1.0)))
    gauged_spectral = gauge_apply(gauge_apply(elliptic, shift), GaugeRecord(kind=4, scale=(0.8, 1.3)))
    rho = RMatrixSpec(algebra=g, family="RationalConstant", X=(rs.simple_roots[0], rs.neg(rs.simple_roots[0])))
    staged = tuple(replace(elliptic, tau=t) for t in (4j, 6j, 8j))
    cases = [((s,), 0) for s in (trig, rational, gauged_constant)]
    cases += [((s,), n_z) for s in (elliptic, trig_spectral, gauged_spectral) for n_z in (1, 3)]
    cases += [((rational, rho), 0), (staged, 1), ((trig_spectral, gauged_spectral), 1)]
    return cases


def test_block_sampler_draws_the_serial_loop_points():
    """The campaign's points equal the one-candidate loop's for seeds 0-19
    over constant, spectral, elliptic (half imaginary box), gauged and
    multi-spec plans, also when most candidates are rejected.  The loop
    scores all six of +-z12, +-z13, +-z23, the sampler three: the pole
    lattices are symmetric under w -> -w."""
    for specs, n_z in _sampler_cases():
        for margin in (0.1, 0.2 if n_z else 0.6):  # the larger rejects half or more on most plans
            for seed in range(20):
                plan = SamplePlan(seed=seed, count=3, pole_margin=margin, max_resamples=10**4)
                lam, zs = verifier._campaign_points(specs, plan, n_z)
                want_lam, want_zs = _serial_points(specs, plan, random.Random(seed), n_z, plan.count)
                assert np.array_equal(lam, want_lam) and lam.dtype == want_lam.dtype
                assert (zs is None and want_zs is None) or np.array_equal(zs, want_zs)


def test_block_sampler_exhausts_at_the_serial_loop_budget():
    """Whatever max_resamples, the block walk accepts the same points or
    raises the same SamplingExhausted as the one-candidate loop."""
    specs, n_z = _sampler_cases()[0]
    outcomes = set()
    for budget in range(1, 41):
        for seed in range(3):
            plan = SamplePlan(seed=seed, count=4, pole_margin=0.9, max_resamples=budget)

            def run(draw):
                try:
                    return draw()[0].tolist()
                except SamplingExhausted as exc:
                    return str(exc)

            got = run(lambda: verifier._campaign_points(specs, plan, n_z))
            want = run(lambda: _serial_points(specs, plan, random.Random(seed), n_z, plan.count))
            assert got == want, (budget, seed)
            outcomes.add(isinstance(got, str))
    assert outcomes == {True, False}  # both outcomes occur over these budgets


# ---------------------------------------------------------------- residual kernel

def _dense_cdybe(r12, r13, r23, d23, d31, d12):
    """Dense oracle for verifier._cdybe_from: three O(dim^4) leg brackets."""
    # (dr)^{31} carries r's legs at positions (3, 1) and the Cartan leg at
    # position 2, so output leg k reads input leg (2,0,1)[k]; (dr)^{12}
    # needs (1,2,0).  The two cycles are NOT interchangeable here.
    alt = (
        d23
        + transpose_legs(d31, (2, 0, 1))
        + transpose_legs(d12, (1, 2, 0))
    )
    out = alt + bracket_legs(r12, r13, "12-13")
    out = out + bracket_legs(r12, r23, "12-23")
    out = out + bracket_legs(r13, r23, "13-23")
    return out


def _kernel_inputs(monkeypatch, run):
    """Every (algebra, record batch, roles, residual vector) run() passes
    through verifier._cdybe_from."""
    seen = []
    kernel = verifier._cdybe_from

    def spy(g, rec, roles):
        w = kernel(g, rec, roles)
        seen.append((g, rec, roles, w))
        return w

    monkeypatch.setattr(verifier, "_cdybe_from", spy)
    run()
    monkeypatch.undo()
    return seen


def _dense_r(g, v):
    """The dense r of a record vector v: M row-major, then phi per root."""
    rank, rs = g.rank, g.root_system
    data = np.zeros((g.dim,) * 2, dtype=complex)
    data[:rank, :rank] = v[: rank * rank].reshape(rank, rank)
    for p in range(rs.n_roots):
        data[basis_index(g, p), basis_index(g, rs.neg(p))] = v[rank * rank + p]
    return Tensor2(g, data)


def _dense_d(g, d):
    """The dense sum_k x_k (x) d[k] of a derivative record d."""
    cartan = np.zeros(g.rank**2)  # M does not depend on lambda
    dense = [_dense_r(g, np.concatenate((cartan, dk))).data for dk in d]
    return Tensor3(g, np.stack(dense + [np.zeros((g.dim,) * 2)] * (g.dim - g.rank)))


def _kernel_zoo(g):
    """All six families, gauge kinds 1-4 and two flipped-root specs."""
    rank, rs = g.rank, g.root_system
    c = np.zeros((rank, rank), dtype=complex)
    q = 0.3 * np.eye(rank)
    if rank > 1:
        c[0, 1], c[1, 0] = 0.4 + 0.1j, -0.4 - 0.1j
        q += 0.1 * (np.ones((rank, rank)) - np.eye(rank))
    zoo = _family_zoo(g)
    gauged_constant = zoo[1]  # TrigCotanh
    for rec in (
        GaugeRecord(kind=1, c_matrix=c),
        GaugeRecord(kind=3, shift=CartanVector.of(0.1 * np.arange(1, rank + 1))),
        GaugeRecord(kind=4, scale=(0.8, 1.0)),
    ):
        gauged_constant = gauge_apply(gauged_constant, rec)
    gauged_elliptic = zoo[3]  # EllipticSpectral
    for rec in (
        GaugeRecord(kind=2, psi=(q, 0.15 * np.ones(rank))),
        GaugeRecord(kind=4, scale=(0.8, 1.6)),
    ):
        gauged_elliptic = gauge_apply(gauged_elliptic, rec)
    flip = int(rs.positive_roots[0])
    return zoo + [
        gauged_constant,
        gauged_elliptic,
        replace(zoo[0], debug_flip_root=flip, validate=False),  # RationalConstant
        replace(zoo[4], debug_flip_root=flip, validate=False),  # TrigSpectral
    ]


@pytest.mark.parametrize(
    "series, rank",
    [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("B", 3), ("A", 4), ("D", 4), ("F", 4)],
)
def test_residual_kernel_matches_dense_oracle(monkeypatch, series, rank):
    g = build_simple_lie_algebra(build_root_system(series, rank))
    plan = SamplePlan(seed=3, count=1)

    def run():
        rng = np.random.default_rng(rank)
        for spec in _kernel_zoo(g):
            for residual in (verifier._residual, _fd_residual):
                if spec.is_spectral:
                    lam, zs = sample_spectral_point(spec, plan, rng)
                    residual(spec, lam.as_array(), zs)
                else:
                    residual(spec, sample_lambda(spec, plan, rng).as_array())
        pair = RMatrixSpec(algebra=g, family="RationalConstant", X=_full_X(g))
        reduce_pair_check(pair, g.root_system.simple_roots[:1], plan)

    inputs = _kernel_inputs(monkeypatch, run)
    # reduce_pair_check is one call: its projector row, then its sum row
    assert len(inputs) == 2 * len(_kernel_zoo(g)) + 1
    for g_seen, rec, roles, rows in inputs:
        assert g_seen is g
        for i in np.ndindex(rows.shape[:-1]):
            v, d = rec.v[i], rec.d[i]  # the point's distinct arguments
            r12, r13, r23 = (_dense_r(g, v[k]) for k in roles[:3])
            d23, d31, d12 = (_dense_d(g, d[k]) for k in roles[3:])
            scale = max(
                bracket_legs(r12, r13, "12-13").norm(),
                bracket_legs(r12, r23, "12-23").norm(),
                bracket_legs(r13, r23, "13-23").norm(),
            )
            want = _dense_cdybe(r12, r13, r23, d23, d31, d12).data.reshape(-1)
            got = np.zeros(g.dim**3, dtype=complex)
            got[verifier._residual_plan(g).w3] = rows[i]
            assert np.max(np.abs(got - want)) <= 1e-14 * scale

    # every entry the plan can reach has weight zero
    rs = g.root_system
    coeffs = np.vstack([np.zeros((rank, rank), dtype=int), rs.coeffs])
    legs = np.unravel_index(verifier._residual_plan(g).w3, (g.dim,) * 3)
    assert not np.any(sum(coeffs[leg] for leg in legs))


def test_record_values_round_trip_through_dense():
    """A record's v and d are r's and dr's dense tensors read in _legs'
    order, Cartan block row-major then (e_a, e_{-a}) per root, d on the
    root entries alone, since v's Cartan block does not move with lambda;
    fd_record keeps v and differences it; and a residual vector densifies
    onto w3."""
    g = A2
    rank, rs = g.rank, g.root_system
    legs = rmatrix._legs(g)
    want = [(i, j) for i in range(rank) for j in range(rank)]
    want += [(basis_index(g, p), basis_index(g, rs.neg(p))) for p in range(rs.n_roots)]
    assert list(zip(*(leg.tolist() for leg in legs))) == want
    lam = CartanVector.of([0.83 - 0.2j, -0.41 + 0.1j])
    for spec in _kernel_zoo(g):
        z = 0.31 - 0.17j if spec.is_spectral else None
        dense_r = eval_rmatrix(spec, lam, z)
        rec = rmatrix._record(spec, lam.as_array(), z, True)
        assert np.array_equal(_dense_r(g, rec.v).data, dense_r.data)
        assert np.array_equal(_dense_d(g, rec.d).data, eval_dlambda(spec, lam, z).data)
        moved = rmatrix._record(spec, lam.as_array() + 0.1 - 0.05j, z).v
        assert np.array_equal(moved[: rank * rank], rec.v[: rank * rank])
        assert rec.d.shape == (rank, rs.n_roots)
        fd = fd_record(spec, lam.as_array(), z)
        assert np.array_equal(fd.v, rec.v)
        assert np.max(np.abs(fd.d - rec.d)) < 1e-6 * max(1.0, np.max(np.abs(rec.d)))

    w = verifier._residual(_kernel_zoo(g)[1], lam.as_array())
    dense = cdybe_residual(_kernel_zoo(g)[1], lam).data.reshape(-1)
    plan = verifier._residual_plan(g)
    assert np.array_equal(dense[plan.w3], w)
    assert np.count_nonzero(np.delete(dense, plan.w3)) == 0


def test_residual_rows_equal_single_point_residuals():
    """A batch of points gives each point's residual bit for bit, also when
    the kernel splits the batch into passes (F4 takes eight points a pass)."""
    g = build_simple_lie_algebra(build_root_system("F", 4))
    assert verifier._KERNEL_TERMS // len(verifier._residual_plan(g).slot) < 10
    for spec in (_kernel_zoo(g)[1], _kernel_zoo(g)[5], _kernel_zoo(g)[7]):
        lam, zs = verifier._campaign_points((spec,), SamplePlan(seed=6, count=10), 3 if spec.is_spectral else 0)
        for residual in (verifier._residual, _fd_residual):
            rows = residual(spec, lam, zs)
            for i in range(len(lam)):
                assert np.array_equal(rows[i], residual(spec, lam[i], None if zs is None else zs[i]))


def test_residual_plan_cached_per_algebra_instance():
    first = build_simple_lie_algebra(build_root_system("B", 3))
    assert first._residual_plan is None  # built on the first residual only
    plan = verifier._residual_plan(first)
    assert first._residual_plan is plan
    assert verifier._residual_plan(first) is plan
    b3_terms = len(plan.slot)
    del first, plan
    gc.collect()
    # a new algebra (which may reuse the dropped one's id) gets its own plan
    second = build_simple_lie_algebra(build_root_system("D", 4))
    assert second._residual_plan is None
    plan = verifier._residual_plan(second)
    fresh = verifier._build_residual_plan(second)
    assert len(plan.slot) != b3_terms
    for name in ("w3", "src_x", "src_y", "coef", "slot", "weight", "swap", "hit"):
        assert np.array_equal(getattr(plan, name), getattr(fresh, name))


@pytest.mark.parametrize("series, rank", [("A", 2), ("B", 3), ("A", 4), ("D", 4)])
def test_residual_plan_reads_dphi_only(series, rank):
    """A derivative record holds dphi alone (M does not depend on lambda),
    so the plan has one Alt(dr) term per derivative entry and leg
    placement, 3 * rank * n_roots, and no residual entry with three Cartan
    legs, since a bracket of two Cartan legs is zero."""
    g = build_simple_lie_algebra(build_root_system(series, rank))
    plan = verifier._residual_plan(g)
    alt = plan.src_y == plan.src_y.max()  # the terms that multiply by the trailing 1
    assert np.count_nonzero(alt) == 3 * rank * g.root_system.n_roots
    legs = np.unravel_index(plan.w3, (g.dim,) * 3)
    assert not np.any((legs[0] < rank) & (legs[1] < rank) & (legs[2] < rank))


@pytest.mark.parametrize("series, rank", [("A", 2), ("B", 3), ("D", 4)])
def test_cartan_weight_norm_matches_act_diag(series, rank):
    """The plan's weight and skew norms match the dense diagonal Cartan
    action and the dense leg swap.  The residual's own support has weight
    zero, so the maps are built on a random support that mixes weights and
    holds some swapped pairs and some unpaired entries."""
    g = build_simple_lie_algebra(build_root_system(series, rank))
    rng = np.random.default_rng(rank)
    support = np.unique(rng.integers(0, g.dim**3, size=4 * g.dim**2))
    support = np.union1d(support, verifier._residual_plan(g).w3)
    plan = verifier._ResidualPlan(support, None, None, None, None, *verifier._support_maps(g, support))
    assert plan.hit.any() and not plan.hit.all()
    w = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
    data = np.zeros(g.dim**3, dtype=complex)
    data[support] = w
    t = Tensor3(g, data.reshape((g.dim,) * 3))
    want = max(act_diag(k, t).norm() for k in range(g.rank))
    assert abs(plan.weight_norm(w) - want) <= 1e-14 * want
    assert plan.skew_norm(w) == (t + transpose_legs(t, (1, 0, 2))).norm()
    # on the residual's own support every weight is exactly zero
    assert not verifier._residual_plan(g).weight.any()


@pytest.mark.parametrize("series, rank", [
    ("A", 1), ("A", 3), ("B", 3), ("C", 4), ("D", 5), ("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8),
])
def test_record_support_maps_match_dense_index_table(series, rank):
    """On a record's support, _support_maps with two legs gives the swap and
    weight of the dense (dim, dim) index construction, every swap inside the
    support; the axiom tables read them from it."""
    g = build_simple_lie_algebra(build_root_system(series, rank))
    rows, cols = rmatrix._legs(g)
    weight, swap, hit = verifier._support_maps(g, rows * g.dim + cols, 2)
    want_swap, want_weight = record_axiom_tables(g)
    assert hit.all()
    assert np.array_equal(swap, want_swap)
    assert np.array_equal(weight, want_weight)
    tables = verifier._axiom_tables(g)
    assert np.array_equal(tables[0], want_swap) and np.array_equal(tables[2], want_weight)


@pytest.mark.parametrize("series, rank", [("A", 2), ("B", 3)])
def test_axiom_checks_match_dense_oracle(series, rank):
    """Zero-weight, unitarity and residue read from records agree with the
    dense tensors: act_diag, r + r^T - eps * casimir and the dense contour."""
    g = build_simple_lie_algebra(build_root_system(series, rank))
    omega = casimir(g).data
    for spec in _kernel_zoo(g):
        lams, zss = verifier._campaign_points((spec,), SamplePlan(seed=5, count=2), 3 if spec.is_spectral else 0)
        got = {c.name: c.residuals for c in verifier._axiom_checks(spec, lams, zss)}
        eps = effective_coupling(spec)
        want = {"zero-weight": [], "unitarity": [], "residue": []}
        for lam, zs in zip(map(CartanVector.of, lams), [None] * len(lams) if zss is None else zss):
            if spec.is_spectral:
                z12 = zs[0] - zs[1]
                r = eval_rmatrix(spec, lam, z12)
                unit = r.data + eval_rmatrix(spec, lam, -z12).data.T
                acc = sum(
                    zj * eval_rmatrix(spec, lam, zj).data
                    for zj in 0.05 * np.exp(2j * np.pi * np.arange(16) / 16)
                ) / 16
                est = np.vdot(omega, acc) / np.vdot(omega, omega)
                want["residue"].append(max(np.max(np.abs(acc - est * omega)), abs(est - eps)))
            else:
                r = eval_rmatrix(spec, lam)
                unit = r.data + r.data.T - eps * omega
            want["zero-weight"].append(max(act_diag(k, r).norm() for k in range(g.rank)))
            want["unitarity"].append(np.max(np.abs(unit)))
        for name, values in got.items():
            scale = max(1.0, *(abs(v) for v in want[name]))
            assert np.max(np.abs(np.subtract(values, want[name]))) <= 1e-14 * scale, name


def test_check_axioms_builds_no_dense_tensor(monkeypatch):
    g = build_simple_lie_algebra(build_root_system("E", 7))
    rank = g.rank
    c = np.zeros((rank, rank), dtype=complex)
    c[0, 1], c[1, 0] = 0.4, -0.4
    gauged = gauge_apply(RMatrixSpec(algebra=g, family="TrigCotanh", eps=2.0), GaugeRecord(kind=1, c_matrix=c))
    gauged = gauge_apply(gauged, GaugeRecord(kind=3, shift=CartanVector.of(0.1 * np.ones(rank))))
    constant = RMatrixSpec(algebra=g, family="TrigCotanh", eps=2.0)
    spectral = RMatrixSpec(algebra=g, family="RationalSpectral", X=_full_X(g))

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} built on the verification path")

    def refuse_support(cls, *args, **kwargs):
        raise AssertionError(f"{cls.__name__} built on the verification path")

    for tensor in (Tensor2, Tensor3):
        monkeypatch.setattr(tensor, "__init__", refuse)
        monkeypatch.setattr(tensor, "_from_support", classmethod(refuse_support))
    plan = SamplePlan(seed=1, count=2)
    for spec in (constant, spectral, gauged):
        assert check_axioms(spec, plan).passed
    for spec in (constant, gauged):
        assert reduce_pair_check(spec, g.root_system.simple_roots[:1], plan).passed


def test_negative_control_equals_flipped_spec_residual():
    """The control flips the first positive root with a live coefficient in
    the first point's records; it equals the residual of the spec
    re-evaluated with its flip set to that root, bit for bit, whatever flip
    the spec already carries.  A RationalConstant spec whose first positive
    root lies outside X flips the first positive root inside X."""
    g = A2
    rs = g.root_system
    p0, other = int(rs.positive_roots[0]), int(rs.positive_roots[-1])
    rank = g.rank
    q = 0.3 * np.eye(rank) + 0.1 * (np.ones((rank, rank)) - np.eye(rank))
    gauged = RMatrixSpec(algebra=g, family="EllipticSpectral", tau=1j)
    for rec in (GaugeRecord(kind=2, psi=(q, 0.15 * np.ones(rank))), GaugeRecord(kind=4, scale=(0.8, 1.6))):
        gauged = gauge_apply(gauged, rec)
    x = (other, rs.neg(other))  # closed, without the first positive root
    rational = RMatrixSpec(algebra=g, family="RationalConstant", X=x)
    plan = SamplePlan(seed=2, count=2)
    for base, root in ((_family_zoo(g)[1], p0), (_family_zoo(g)[5], p0), (gauged, p0), (rational, other)):
        for flip in (None, p0, other):
            spec = replace(base, debug_flip_root=flip, validate=False)
            margins = {c.name: c.residuals for c in check_axioms(spec, plan).checks}
            lam, zs = verifier._campaign_points((spec,), plan, 3 if spec.is_spectral else 0)
            flipped = replace(spec, debug_flip_root=root, validate=False)
            control = verifier._sup(verifier._residual(flipped, lam[0], None if zs is None else zs[0]))
            assert margins["negative-control-margin"] == (verifier._CONTROL_THRESHOLD / control,)


def test_negative_control_skips_a_root_whose_record_entry_is_zero():
    """Where coth saturates at -1, a TrigCotanh entry phi = (eps/2)(1 + coth)
    is about 0 while phi - eps/2 is not, and flipping it changes nothing:
    the control flips the first positive root whose entry is nonzero, and
    is omitted when there is none (A2 at eps = 30, seed 4)."""
    b3, g2 = (build_simple_lie_algebra(build_root_system(*t)) for t in (("B", 3), ("G", 2)))
    for g, eps, seed in ((b3, 100.0, 2), (b3, 100.0, 3), (b3, 100.0, 4), (g2, 100.0, 0), (g2, 100.0, 2), (A2, 30.0, 4)):
        report = check_axioms(RMatrixSpec(algebra=g, family="TrigCotanh", eps=eps), SamplePlan(seed=seed, count=2))
        assert report.passed, (g.root_system.series, eps, seed)
        names = [c.name for c in report.checks]
        assert ("negative-control-margin" in names) == (g is not A2)


def test_trig_degenerate_finds_sample_points_at_a_small_coupling():
    """The pole margin is taken in the pairing below |eps| = 2, so B3 with
    X = {a1} at eps = 0.01 samples without SamplingExhausted and its
    residual checks pass."""
    b3 = build_simple_lie_algebra(build_root_system("B", 3))
    spec = RMatrixSpec(algebra=b3, family="TrigDegenerate", eps=0.01, X=b3.root_system.simple_roots[:1])
    report = check_axioms(spec, SamplePlan(seed=1, count=10))
    assert report.samples_used == 10
    assert all(c.passed for c in report.checks if c.name != "negative-control-margin")


@pytest.mark.parametrize("family", ["RationalConstant", "RationalSpectral"])
def test_rational_constant_control_is_loud_on_every_closed_subset(family):
    """The sufficiency half of the RationalConstant and RationalSpectral
    classes: every spec over every closed subset (625 from A1 to F4)
    passes check_axioms, its negative control included: the control flips
    a root whose coefficient is live, never one outside X."""
    plan = SamplePlan(seed=0, count=3)
    for series, rank in (("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3), ("D", 4), ("F", 4)):
        g = build_simple_lie_algebra(build_root_system(series, rank))
        for sub in enumerate_closed_subsets(g.root_system):
            report = check_axioms(RMatrixSpec(algebra=g, family=family, X=sub), plan)
            assert report.passed, (series, rank, sub, [c.name for c in report.checks if not c.passed])


@pytest.mark.parametrize("series,rank", [("E", 6), ("E", 7), ("E", 8)])
def test_rational_families_pass_on_random_closed_subsets_of_e_types(series, rank):
    """Sufficiency past the enumeration's rank limit: X the closure of a
    seeded random symmetric seed of 1 to 3 positive roots, twelve per type,
    passes check_axioms for RationalConstant and RationalSpectral."""
    g = build_simple_lie_algebra(build_root_system(series, rank))
    rs = g.root_system
    rng = np.random.default_rng(rank)
    plan = SamplePlan(seed=0, count=3)
    for n in range(12):
        seed = rng.choice(rs.positive_roots, size=1 + n % 3, replace=False).tolist()
        x = sorted(additive_closure(rs, seed + [rs.neg(i) for i in seed]))
        assert is_closed_subset(rs, x)
        for family in ("RationalConstant", "RationalSpectral"):
            report = check_axioms(RMatrixSpec(algebra=g, family=family, X=x), plan)
            assert report.passed, (family, x, [c.name for c in report.checks if not c.passed])


@pytest.mark.parametrize("family", ["RationalConstant", "RationalSpectral"])
def test_rational_constant_fails_on_every_symmetric_subset_that_is_not_closed(family):
    """The necessity half of the RationalConstant and RationalSpectral
    classes: on every symmetric X = S u -S that is not closed (594 from A2
    to B3), check_axioms reads FAIL for cdybe-residual."""
    plan = SamplePlan(seed=0, count=3)
    seen = 0
    for series, rank in (("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3)):
        g = build_simple_lie_algebra(build_root_system(series, rank))
        rs = g.root_system
        for k in range(len(rs.positive_roots) + 1):
            for s in itertools.combinations(rs.positive_roots, k):
                x = s + tuple(rs.neg(i) for i in s)
                if is_closed_subset(rs, x):
                    continue
                spec = RMatrixSpec(algebra=g, family=family, X=x, validate=False)
                checks = {c.name: c for c in check_axioms(spec, plan).checks}
                assert not checks["cdybe-residual"].passed, (series, rank, x)
                seen += 1
    assert seen == 594


def test_kernel_rows_equal_one_row_kernel_calls(monkeypatch):
    """check_axioms and reduce_pair_check each make one kernel call, and
    every row of it equals a separate one-row call bit for bit: the campaign
    points, the negative control (row n) and the pair check's projector and
    sum rows."""
    g = build_simple_lie_algebra(build_root_system("B", 3))
    flip = int(g.root_system.positive_roots[2])
    plan = SamplePlan(seed=3, count=3)
    specs = (
        RMatrixSpec(algebra=g, family="TrigCotanh", eps=2.0),
        RMatrixSpec(algebra=g, family="EllipticSpectral", tau=2j),
        RMatrixSpec(algebra=g, family="RationalSpectral", X=_full_X(g)),
        RMatrixSpec(algebra=g, family="RationalConstant", X=_full_X(g), debug_flip_root=flip, validate=False),
    )
    for spec in specs:
        inputs = _kernel_inputs(monkeypatch, lambda: check_axioms(spec, plan))
        assert len(inputs) == 1
        _, rec, roles, w = inputs[0]
        assert w.shape[0] == plan.count + 1
        assert roles == ((0, 1, 2, 2, 3, 0) if spec.is_spectral else (0,) * 6)
        for i in range(len(w)):
            assert np.array_equal(w[i], verifier._cdybe_from(g, rmatrix._Record(rec.v[i], rec.d[i]), roles))
        margins = {c.name: c.residuals for c in check_axioms(spec, plan).checks}
        assert margins["negative-control-margin"] == (verifier._CONTROL_THRESHOLD / verifier._sup(w[-1]),)
    p = int(g.root_system.simple_roots[0])
    rho_spec = RMatrixSpec(algebra=g, family="RationalConstant", X=(p, g.root_system.neg(p)))
    for tilde in (specs[0], specs[-1]):
        inputs = _kernel_inputs(monkeypatch, lambda: reduce_pair_check(tilde, [p], plan))
        assert len(inputs) == 1
        report = reduce_pair_check(tilde, [p], plan)
        lam, _ = verifier._campaign_points((tilde, rho_spec), plan, 0)
        rho = rmatrix._record(rho_spec, lam[:, None], None, True)
        r = rmatrix._record(tilde, lam[:, None], None, True)
        total = rmatrix._Record(*((t - p) + p for t, p in zip(r, rho)))  # rest = r - rho, then rest + rho
        got = {c.name: c.residuals for c in report.checks}
        for name, rec in (("projector-cdybe", rho), ("pair-sum-cdybe", total)):
            assert got[name] == tuple(np.abs(verifier._cdybe_from(g, rec, (0,) * 6)).max(axis=-1).tolist())


@pytest.mark.parametrize("series, rank", [("A", 2), ("G", 2), ("B", 3), ("F", 4)])
def test_residue_of_a_point_equals_its_campaign_row(series, rank):
    """extract_residue at one point equals that point's row of a campaign's
    contour batch bit for bit, and check_axioms' residue reads those rows:
    the contour sum runs in a fixed order, whatever the batch."""
    g = build_simple_lie_algebra(build_root_system(series, rank))
    zj = verifier._contour(0.05, 16)
    plan = SamplePlan(seed=rank, count=4)
    for spec in (
        RMatrixSpec(algebra=g, family="EllipticSpectral", tau=2j),
        RMatrixSpec(algebra=g, family="RationalSpectral", X=_full_X(g)),
    ):
        lam, _ = verifier._campaign_points((spec,), plan, 3)
        acc, est, dev = verifier._residue(g, zj, rmatrix._record(spec, lam[:, None], zj).v)
        for i, x in enumerate(lam):
            tensor, est_i, dev_i = extract_residue(spec, CartanVector.of(x))
            assert np.array_equal(tensor.data, _dense_r(g, acc[i]).data)
            assert (est_i, dev_i) == (complex(est[i]), float(dev[i]))
        rows = {c.name: c.residuals for c in check_axioms(spec, plan).checks}["residue"]
        assert rows == tuple(np.maximum(dev, np.abs(est - effective_coupling(spec))).tolist())


def test_extract_residue_radius_follows_the_pole_lattice():
    """extract_residue's default contour is the residue check's: at tau = 0.1i
    a circle of radius 0.05 aliases the lattice poles 0.1 away, the default
    (a tenth of the shortest period) does not.  Where the shortest period is
    at least 0.5 the default is the 0.05 circle, bit for bit."""
    lam = CartanVector.of([0.3 + 0.1j, -0.2 + 0.05j])
    narrow = RMatrixSpec(algebra=A2, family="EllipticSpectral", tau=0.1j)
    _, eps, deviation = extract_residue(narrow, lam)
    assert max(abs(eps - 1), deviation) < 1e-12
    _, eps, deviation = extract_residue(narrow, lam, radius=0.05)
    assert max(abs(eps - 1), deviation) > 1e-6  # what the default avoids
    for spec in (
        RMatrixSpec(algebra=A2, family="EllipticSpectral", tau=2j),
        RMatrixSpec(algebra=A2, family="RationalSpectral", X=_full_X(A2)),
        RMatrixSpec(algebra=A2, family="TrigSpectral", X=A2.root_system.simple_roots),
    ):
        got, want = extract_residue(spec, lam), extract_residue(spec, lam, radius=0.05)
        assert np.array_equal(got[0].data, want[0].data) and got[1:] == want[1:], spec.family


def test_spec_digest_is_taken_once_per_spec(monkeypatch):
    """A spec is immutable, so its digest is encoded and hashed on first use
    only; a spec made from it by replace() gets its own."""
    calls = []
    to_json = verifier.spec_to_json
    monkeypatch.setattr(verifier, "spec_to_json", lambda spec: calls.append(spec) or to_json(spec))
    spec = RMatrixSpec(algebra=A2, family="TrigCotanh", eps=2.0)
    plan = SamplePlan(seed=1, count=1)
    ids = {check_axioms(spec, plan).spec_id for _ in range(3)}
    assert len(ids) == 1 and calls == [spec]
    other = replace(spec, eps=3.0)
    assert check_axioms(other, plan).spec_id not in ids and calls == [spec, other]


def test_check_axioms_evaluates_each_sample_argument_once(monkeypatch):
    """A constant point is one evaluation; a spectral point is four residual
    arguments, the reflection r(-z12) and the 16-point residue contour.
    Each call counts the arguments it evaluates, the broadcast of lam's
    batch axes and z's shape.  A constant campaign is one _evaluate call
    and a spectral one two, whatever the sample count; the residual kernel
    runs once, for the campaign and its negative control together."""
    calls, kernels = [], []
    evaluate, kernel = rmatrix._evaluate, verifier._cdybe_from

    def count(spec, lam, z, want_d):
        calls.append(int(np.prod(np.broadcast_shapes(np.shape(lam)[:-1], np.shape(z)))))
        return evaluate(spec, lam, z, want_d)

    def count_kernel(g, rec, roles):
        kernels.append(roles)
        return kernel(g, rec, roles)

    monkeypatch.setattr(rmatrix, "_evaluate", count)
    monkeypatch.setattr(verifier, "_cdybe_from", count_kernel)
    for n in (1, 3):
        plan = SamplePlan(seed=4, count=n)
        for spec, per_point, n_calls in (
            (RMatrixSpec(algebra=A2, family="TrigCotanh", eps=2.0), 1, 1),
            (RMatrixSpec(algebra=A2, family="RationalConstant", X=_full_X(A2)), 1, 1),
            (RMatrixSpec(algebra=A2, family="RationalSpectral", X=_full_X(A2)), 21, 2),
            (RMatrixSpec(algebra=A2, family="EllipticSpectral", tau=1j), 21, 2),
        ):
            calls.clear()
            kernels.clear()
            report = check_axioms(spec, plan)
            assert report.passed
            assert sum(calls) == n * per_point, spec.family
            assert len(calls) == n_calls, spec.family
            assert len(kernels) == 1, spec.family


def test_negative_control_margin_verdict_reads_its_tolerance(monkeypatch):
    """The control's margin is threshold / control residual and passes at
    1 or below: at 1.5 times the measured control residual it reads 1.5 and
    fails, at 0.5 times it reads 0.5 and passes."""
    spec = RMatrixSpec(algebra=A2, family="TrigCotanh", eps=2.0)
    plan = SamplePlan(seed=3, count=3)

    def control():
        return {c.name: c for c in check_axioms(spec, plan).checks}["negative-control-margin"]

    measured = verifier._CONTROL_THRESHOLD / control().max_residual
    for factor, passed in ((1.5, False), (0.5, True)):
        monkeypatch.setattr(verifier, "_CONTROL_THRESHOLD", factor * measured)
        check = control()
        assert check.max_residual == pytest.approx(factor, rel=1e-12)
        assert check.passed is passed


def _campaign_outcomes():
    """Report, comparison or error of every campaign on a fixed zoo: B3
    trig-cotanh, G2 elliptic, F4 rational-constant (its kernel splits into
    passes), an A2 elliptic campaign that fails at tau = 0.1i and an A2 one
    that overflows."""
    B3, G2, F4 = (build_simple_lie_algebra(build_root_system(s, r)) for s, r in (("B", 3), ("G", 2), ("F", 4)))
    plan = SamplePlan(seed=2, count=10)  # one run of _CHUNK; F4 takes 8 kernel rows a pass
    calls = []
    for spec in (
        RMatrixSpec(algebra=B3, family="TrigCotanh", eps=2.0),
        RMatrixSpec(algebra=G2, family="EllipticSpectral", tau=2j),
        RMatrixSpec(algebra=F4, family="RationalConstant", X=_full_X(F4)),
        RMatrixSpec(algebra=A2, family="EllipticSpectral", tau=0.1j),
        RMatrixSpec(algebra=A2, family="TrigCotanh", eps=1e300),
    ):
        calls += [lambda s=spec, stage=stage: check_axioms(s, plan, stage) for stage in (None, "axioms", "residual")]
        if not spec.is_spectral:
            calls.append(lambda s=spec: reduce_pair_check(s, [s.algebra.root_system.simple_roots[0]], plan))
    base = CartanVector.of([0.37 + 0.11j] * 3)
    ray = CartanVector.of(-fundamental_weights(B3.root_system)[1:].sum(axis=0))
    calls += [
        lambda: limit_compare(
            RMatrixSpec(algebra=B3, family="TrigCotanh", eps=2.0),
            LimitSchedule("nu-ray", (20.0, 40.0), base=base, ray=ray),
            RMatrixSpec(algebra=B3, family="TrigDegenerate", eps=2.0, X=B3.root_system.simple_roots[:1], nu=base),
            plan,
        ),
        lambda: limit_compare(
            RMatrixSpec(algebra=G2, family="EllipticSpectral", tau=4j), LimitSchedule("tau", (4j, 6j, 8j)), None, plan
        ),
    ]
    outcomes = []
    for call in calls:
        try:
            got = call()
        except NonFiniteValue as exc:
            outcomes.append(str(exc))
        else:
            outcomes.append(repr(got.checks) + repr(got.to_json(include_timing=False)) if hasattr(got, "checks") else repr(got))
    return outcomes


def test_campaigns_do_not_depend_on_the_chunk(monkeypatch):
    """Every campaign gives the same report, comparison or error message
    whether _walk hands its 10 points out in runs of 1, of 3 or as one run."""
    want = _campaign_outcomes()
    assert sum(o.startswith("r-matrix record is not finite") for o in want) == 3  # both residual stages, the pair check
    assert sum("'passed': False" in o for o in want) == 3  # tau = 0.1i: both stages, each stage alone
    monkeypatch.setattr(verifier, "_RUN_ENTRIES", 0)
    for chunk in (1, 3):
        monkeypatch.setattr(verifier, "_CHUNK", chunk)
        assert _campaign_outcomes() == want, chunk


def test_check_axioms_stages_split_the_full_report():
    """The axiom stage's checks and then the residual stage's are the full
    report's, value for value; an unknown stage is SpecInvalid."""
    G2 = build_simple_lie_algebra(build_root_system("G", 2))
    plan = SamplePlan(seed=2, count=4)
    for spec in (RMatrixSpec(algebra=A2, family="TrigCotanh", eps=2.0), RMatrixSpec(algebra=G2, family="EllipticSpectral", tau=2j)):
        full = check_axioms(spec, plan).checks
        assert check_axioms(spec, plan, "axioms").checks + check_axioms(spec, plan, "residual").checks == full
    with pytest.raises(SpecInvalid, match="unknown check stage 'cdybe'"):
        check_axioms(spec, plan, "cdybe")


def test_walk_sizes_runs_by_record_entries():
    """A run holds _CHUNK points, or as many as _RUN_ENTRIES record entries
    (rank**2 + roots per point) allow if that is more: 204 on A2 (10
    entries), 32 on F4 (64), 10 on E8 (304)."""
    F4, E8 = (build_simple_lie_algebra(build_root_system(s, r)) for s, r in (("F", 4), ("E", 8)))
    for g, step in ((A2, 204), (F4, 32), (E8, 10)):
        spec = RMatrixSpec(algebra=g, family="TrigCotanh", eps=2.0)
        runs = [len(lam) for lam, _ in verifier._walk((spec,), SamplePlan(seed=1, count=250), 0)]
        assert runs == [step] * (250 // step) + [250 % step] * (250 % step > 0), g


# ---------------------------------------------------------------- sample stream

def _stream_seeds():
    """Edge seeds (one to seven 32-bit words, a numpy integer) and 200 seeded
    random seeds of 1 to 160 bits."""
    draw = random.Random(2024)
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 + 99, 2**200 + 1, np.int64(2**40 + 7)]
    return seeds + [draw.getrandbits(draw.randint(1, 160)) for _ in range(200)]


def test_sample_stream_is_the_standard_librarys_random_stream():
    """A campaign's doubles are random.Random(int(seed)).random()'s, in order:
    Re, Im lambda, then Re, Im z, point by point.  Boxes of (0, 1) draw each
    double as itself, and a margin no point misses accepts every candidate."""
    spec = RMatrixSpec(algebra=A2, family="RationalSpectral", X=())
    for seed in _stream_seeds():
        plan = SamplePlan(seed=seed, count=3, box=(0.0, 1.0), z_box=(0.0, 1.0), pole_margin=1e-300)
        lam, zs = verifier._campaign_points((spec,), plan, 3)
        got = np.hstack((lam.real, lam.imag, zs.real, zs.imag)).ravel().tolist()
        stream = random.Random(int(seed))
        assert got == [stream.random() for _ in got], seed


# ---------------------------------------------------------------- residue contour

@pytest.mark.parametrize("tau", [2j, 1j, 4j, 0.3 + 1.1j, 0.2 + 1.4j])
def test_residue_contour_keeps_its_radius_on_a_wide_lattice(tau):
    """A shortest period of 0.5 or more keeps the 0.05 circle, so reports there
    are unchanged; a kind-4 z scale b shrinks the lattice in z by b."""
    spec = RMatrixSpec(algebra=A2, family="EllipticSpectral", tau=tau)
    assert verifier._residue_radius(spec) == 0.05
    scaled = gauge_apply(spec, GaugeRecord(kind=4, scale=(1.0, 8.0)))
    shortest = min(abs(tau), 1.0) / 8  # (1, tau) is reduced for these tau
    assert verifier._residue_radius(scaled) == pytest.approx(0.1 * shortest, rel=1e-15)
    assert verifier._residue_radius(RMatrixSpec(algebra=A2, family="TrigSpectral", X=())) == 0.05


@pytest.mark.parametrize("tau", [0.25j, 0.1j])
def test_residue_stays_at_round_off_at_small_im_tau(tau):
    """The contour takes a tenth of the shortest period: at tau = 0.1i the
    fixed 0.05 circle read about 1e-4.  unitarity and cdybe-residual still
    read FAIL at these tau on some seeds, from the theta sums' precision."""
    spec = RMatrixSpec(algebra=A2, family="EllipticSpectral", tau=tau)
    for seed in range(8):
        checks = {c.name: c for c in check_axioms(spec, SamplePlan(seed=seed, count=3)).checks}
        assert checks["residue"].max_residual <= 1e-12, seed


# ---------------------------------------------------------------- classification

@pytest.mark.parametrize("family", ["TrigDegenerate", "TrigSpectral"])
def test_trig_degenerate_passes_exactly_on_a_simple_root_subsystem(family):
    """The paper's necessity rule for TrigDegenerate and TrigSpectral:
    check_axioms reads PASS if and only if the additive closure of X and -X
    is the root system of a set of simple roots.  Every X of 1-3 positive
    roots not all simple, on rank 2 and 3 (331 specs); every FAIL is the
    CDYBE residual's alone."""
    plan = SamplePlan(seed=0, count=2)
    n_specs, outcomes = 0, set()
    for series, rank in (("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3)):
        g = build_simple_lie_algebra(build_root_system(series, rank))
        rs = g.root_system
        simple = set(rs.simple_roots)
        levis = {additive_closure(rs, set(s) | {rs.neg(i) for i in s})
                 for n in range(rank + 1) for s in itertools.combinations(rs.simple_roots, n)}
        for n in (1, 2, 3):
            for xs in itertools.combinations(rs.positive_roots, n):
                if set(xs) <= simple:
                    continue
                spec = RMatrixSpec(algebra=g, family=family, eps=1.0, X=xs, validate=False)
                failed = [c.name for c in check_axioms(spec, plan).checks if not c.passed]
                levi = additive_closure(rs, set(xs) | {rs.neg(i) for i in xs}) in levis
                assert failed == ([] if levi else ["cdybe-residual"]), (series, rank, xs, failed)
                outcomes.add(levi)
                n_specs += 1
    assert n_specs == 331 and outcomes == {True, False}
