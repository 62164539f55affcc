"""End-to-end acceptance gate.

One test per acceptance criterion, in order.  Every test prints a single
PASS/FAIL line with the measured worst case against the agreed tolerance
(run pytest with -s to see the lines for passing tests); the assert
mirrors the printed verdict.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from _oracle import (
    addition_identity_residual,
    check_phi_triangle,
    phi_ode_residual,
    sample_lambda,
    sample_spectral_point,
)
from dynr import (
    CartanVector,
    GaugeRecord,
    LimitSchedule,
    PropertyViolated,
    RMatrixSpec,
    SamplePlan,
    ThetaParams,
    affine_hat_spec,
    affine_series_check,
    build_root_system,
    build_simple_lie_algebra,
    cdybe_residual,
    check_axioms,
    classical_series,
    coth_scaled,
    enumerate_closed_subsets,
    extract_residue,
    family_phi,
    find_polarization,
    fundamental_weights,
    gauge_apply,
    limit_compare,
    reduce_pair_check,
    rho_fn,
    sigma_w,
)

A1 = build_simple_lie_algebra(build_root_system("A", 1))
A2 = build_simple_lie_algebra(build_root_system("A", 2))
B2 = build_simple_lie_algebra(build_root_system("B", 2))
G2 = build_simple_lie_algebra(build_root_system("G", 2))
SMALL_RANK = (A1, A2, B2, G2)

N_POINTS = 10


def _line(ok: bool, name: str, detail: str) -> None:
    msg = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(msg)
    assert ok, msg


def _max_constant_residual(spec, seed=42, count=N_POINTS):
    plan = SamplePlan(seed=seed, count=count)
    rng = np.random.default_rng(seed)
    return max(
        cdybe_residual(spec, sample_lambda(spec, plan, rng)).norm()
        for _ in range(count)
    )


def _max_spectral_residual(spec, seed=42, count=N_POINTS):
    plan = SamplePlan(seed=seed, count=count)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        lam, zs = sample_spectral_point(spec, plan, rng)
        worst = max(worst, cdybe_residual(spec, lam, zs).norm())
    return worst


def _simple_subsets(rs):
    out = []
    for k in range(rs.rank + 1):
        out.extend(itertools.combinations(rs.simple_roots, k))
    return out


def _antisym(rng, rank):
    m = rng.normal(size=(rank, rank)) + 1j * rng.normal(size=(rank, rank))
    return m - m.T


def _lam_with_pairings(g, values):
    rs = g.root_system
    simple = rs.roots[list(rs.simple_roots)]
    return CartanVector.of(np.linalg.solve(simple, np.asarray(values, dtype=complex)))


# -------------------------------------------------------------- criterion 1

def test_a01_constant_families_solve_the_dynamical_equation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst, n_specs = 0.0, 0
    for g in SMALL_RANK:
        rs = g.root_system
        subsets = enumerate_closed_subsets(rs)
        # the full root set must be among the enumerated closed subsets
        assert any(len(s) == rs.n_roots for s in subsets)
        for sub in subsets:
            spec = RMatrixSpec(algebra=g, family="RationalConstant", X=sub)
            worst = max(worst, _max_constant_residual(spec))
            n_specs += 1
        nu = CartanVector.of(rng.normal(size=rs.rank) + 1j * rng.normal(size=rs.rank))
        c = _antisym(rng, rs.rank)
        for eps in (1.0, 2.0, 1.0 + 1.0j):
            spec = RMatrixSpec(algebra=g, family="TrigCotanh", eps=eps, nu=nu, C=c)
            worst = max(worst, _max_constant_residual(spec))
            n_specs += 1
        for xs in _simple_subsets(rs):
            spec = RMatrixSpec(algebra=g, family="TrigDegenerate", eps=1.0, X=xs)
            worst = max(worst, _max_constant_residual(spec))
            n_specs += 1
    dt = time.perf_counter() - t0
    ok = worst <= 1e-8 and dt <= 60.0
    _line(
        ok,
        "constant-families",
        f"max residual {worst:.3e} (tol 1e-08) over {n_specs} specs"
        f" x {N_POINTS} points, {dt:.1f}s (limit 60s)",
    )


# -------------------------------------------------------------- criterion 2

def test_a02_spectral_families_solve_the_dynamical_equation():
    t0 = time.perf_counter()
    worst, n_specs = 0.0, 0
    for g in (A1, A2):
        rs = g.root_system
        specs = [
            RMatrixSpec(algebra=g, family="EllipticSpectral", tau=1j),
            RMatrixSpec(algebra=g, family="EllipticSpectral", tau=2j),
            RMatrixSpec(algebra=g, family="RationalSpectral", X=()),
            RMatrixSpec(algebra=g, family="RationalSpectral", X=tuple(range(rs.n_roots))),
        ]
        specs += [
            RMatrixSpec(algebra=g, family="TrigSpectral", X=xs)
            for xs in _simple_subsets(rs)
        ]
        for spec in specs:
            worst = max(worst, _max_spectral_residual(spec))
            n_specs += 1
    dt = time.perf_counter() - t0
    ok = worst <= 1e-8 and dt <= 60.0
    _line(
        ok,
        "spectral-families",
        f"max residual {worst:.3e} (tol 1e-08) over {n_specs} specs"
        f" x {N_POINTS} points, {dt:.1f}s (limit 60s)",
    )


# -------------------------------------------------------------- criterion 3

def test_a03_axioms_zero_weight_unitarity_residue():
    zoo = [
        RMatrixSpec(algebra=A2, family="RationalConstant", X=tuple(range(6))),
        RMatrixSpec(algebra=A2, family="TrigCotanh", eps=2.0),
        RMatrixSpec(algebra=A2, family="TrigDegenerate", eps=1.0, X=A2.root_system.simple_roots[:1]),
        RMatrixSpec(algebra=A2, family="EllipticSpectral", tau=1j),
        RMatrixSpec(algebra=A2, family="TrigSpectral", X=A2.root_system.simple_roots),
        RMatrixSpec(algebra=A2, family="RationalSpectral", X=tuple(range(6))),
    ]
    plan = SamplePlan(seed=42, count=N_POINTS)
    worst_zero = worst_unit = 0.0
    for spec in zoo:
        named = {c.name: c.max_residual for c in check_axioms(spec, plan).checks}
        worst_zero = max(worst_zero, named["zero-weight"])
        worst_unit = max(worst_unit, named["unitarity"])

    worst_eps = 0.0
    rng = np.random.default_rng(5)
    for spec in zoo[3:]:
        lam, _ = sample_spectral_point(spec, plan, rng)
        _, eps_est, dev = extract_residue(spec, lam)
        worst_eps = max(worst_eps, abs(eps_est - 1.0), dev)
        scaled = gauge_apply(spec, GaugeRecord(kind=4, scale=(3.0, 2.0)))
        lam2, _ = sample_spectral_point(scaled, plan, rng)
        _, eps_est2, dev2 = extract_residue(scaled, lam2)
        worst_eps = max(worst_eps, abs(eps_est2 - 1.5), dev2)

    ok = worst_zero <= 1e-12 and worst_unit <= 1e-11 and worst_eps <= 1e-8
    _line(
        ok,
        "axioms",
        f"zero-weight {worst_zero:.3e} (tol 1e-12), unitarity {worst_unit:.3e}"
        f" (tol 1e-11), coupling recovery {worst_eps:.3e} (tol 1e-08)",
    )


# -------------------------------------------------------------- criterion 4

def test_a04_gauge_covariance_every_kind():
    rank = A2.rank
    c = np.zeros((rank, rank), dtype=complex)
    c[0, 1], c[1, 0] = 0.4 + 0.1j, -0.4 - 0.1j
    q = 0.3 * np.eye(rank) + 0.1 * (np.ones((rank, rank)) - np.eye(rank))
    gauges = [
        GaugeRecord(kind=1, c_matrix=c),
        GaugeRecord(kind=2, psi=(q, 0.15 * np.ones(rank))),
        GaugeRecord(kind=3, shift=CartanVector.of([0.21, -0.13])),
        GaugeRecord(kind=4, scale=(0.8, 1.6)),
    ]
    zoo = [
        RMatrixSpec(algebra=A2, family="EllipticSpectral", tau=1j),
        RMatrixSpec(algebra=A2, family="TrigSpectral", X=A2.root_system.simple_roots),
        RMatrixSpec(algebra=A2, family="RationalSpectral", X=tuple(range(6))),
    ]
    worst, n_cases = 0.0, 0
    for spec in zoo:
        for g in gauges:
            worst = max(worst, _max_spectral_residual(gauge_apply(spec, g), seed=31))
            n_cases += 1
    ok = worst <= 2e-8
    _line(
        ok,
        "gauge-covariance",
        f"max residual {worst:.3e} (tol 2e-08) over {n_cases} family/kind"
        f" cases x {N_POINTS} points",
    )


# -------------------------------------------------------------- criterion 5

def _triple(g):
    rs = g.root_system
    a, b = rs.simple_roots[:2]
    return a, b, rs.neg(rs.add(a, b))


def test_a05_scalar_coefficient_identities():
    n_pts = 50
    plan = SamplePlan(seed=42, count=n_pts)
    a, b, c = _triple(A2)
    rational = RMatrixSpec(algebra=A2, family="RationalConstant", X=tuple(range(6)))
    cotanh = RMatrixSpec(algebra=A2, family="TrigCotanh", eps=2.0)
    worst = {}

    # the identity-bearing coefficient is odd: phi(a) + phi(-a) = 0
    for tag, spec in (("parity-rational", rational), ("parity-cotanh", cotanh)):
        rng = np.random.default_rng(3)
        worst[tag] = max(
            abs(
                family_phi(spec, lam, a)
                + family_phi(spec, lam, A2.root_system.neg(a))
            )
            for lam in (sample_lambda(spec, plan, rng) for _ in range(n_pts))
        )

    # three-coefficient identity, constant families
    for tag, spec in (("triangle-rational", rational), ("triangle-cotanh", cotanh)):
        rng = np.random.default_rng(11)
        worst[tag] = max(
            abs(check_phi_triangle(spec, a, b, c, sample_lambda(spec, plan, rng)))
            for _ in range(n_pts)
        )

    # three-coefficient identity, spectral families
    for tag, spec in (
        ("triangle-elliptic", RMatrixSpec(algebra=A2, family="EllipticSpectral", tau=1j)),
        ("triangle-trig", RMatrixSpec(algebra=A2, family="TrigSpectral", X=A2.root_system.simple_roots)),
    ):
        rng = np.random.default_rng(17)
        top = 0.0
        for _ in range(n_pts):
            lam, zs = sample_spectral_point(spec, plan, rng)
            top = max(top, abs(check_phi_triangle(spec, a, b, c, lam, z_args=zs)))
        worst[tag] = top

    # weighted addition law behind the elliptic coefficients
    params = ThetaParams(tau=1j)
    rng = np.random.default_rng(23)

    def draw():
        while True:
            w, u, v = (
                complex(rng.uniform(-0.35, 0.35), rng.uniform(-0.2, 0.2))
                for _ in range(3)
            )
            if min(abs(w), abs(u), abs(v), abs(u + v)) > 0.08:
                return w, u, v

    worst["addition"] = max(
        abs(addition_identity_residual(*draw(), params)) for _ in range(n_pts)
    )

    # first-order identity for phi along a root direction (finite differences)
    worst_fd = 0.0
    for spec in (rational, cotanh):
        rng = np.random.default_rng(29)
        worst_fd = max(
            phi_ode_residual(spec, a, sample_lambda(spec, plan, rng))
            for _ in range(n_pts)
        )

    # frozen hand values pin the cotanh profile and make the triangle vanish
    ln2 = math.log(2.0)
    hand = max(
        abs(coth_scaled(2.0, ln2) - 5.0 / 3.0),
        abs(coth_scaled(2.0, 2.0 * ln2) - 17.0 / 15.0),
    )
    lam_hand = _lam_with_pairings(A2, [ln2, ln2])
    hand_triangle = abs(check_phi_triangle(cotanh, a, b, c, lam_hand))

    worst_an = max(worst.values())
    ok = worst_an <= 1e-8 and worst_fd <= 1e-7 and hand <= 1e-14 and hand_triangle <= 1e-13
    _line(
        ok,
        "scalar-identities",
        f"analytic max {worst_an:.3e} (tol 1e-08), finite-difference max"
        f" {worst_fd:.3e} (tol 1e-07), hand values {hand:.1e},"
        f" hand triangle {hand_triangle:.1e}, {n_pts} points each",
    )


# -------------------------------------------------------------- criterion 6

def test_a06_series_identities_and_loop_bridge():
    tau = 2j
    p = ThetaParams(tau=tau)
    z = 0.3 - 0.5j
    u = np.exp(2j * np.pi * z)
    worst_series = 0.0
    for w in (0.8, 0.45 + 0.3j, -0.6 + 0.1j):
        got = classical_series("sigma-sum", u, w, p, 50)
        want = sigma_w(-w / (1j * np.pi), z, p) / (1j * np.pi)
        worst_series = max(worst_series, abs(got - want))
    got_rho = classical_series("rho-sum", u, 0.0, p, 50)
    worst_series = max(worst_series, abs(got_rho - rho_fn(z, p) / (1j * np.pi)))

    affine_dev = affine_series_check(CartanVector.of([0.41]), tau=tau, z=z, n_terms=50)

    hat = affine_hat_spec(A1, tau)
    hat_res = _max_spectral_residual(hat)

    ok = worst_series <= 1e-10 and affine_dev <= 1e-9 and hat_res <= 1e-8
    _line(
        ok,
        "series-identities",
        f"closed-form gap {worst_series:.3e} (tol 1e-10), loop-series gap"
        f" {affine_dev:.3e} (tol 1e-09), rescaled-family residual"
        f" {hat_res:.3e} (tol 1e-08)",
    )


# -------------------------------------------------------------- criterion 7

def test_a07_limit_schedules():
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
    ray_cmp = limit_compare(spec, schedule, target, SamplePlan(seed=42, count=6))

    espec = RMatrixSpec(algebra=A1, family="EllipticSpectral", tau=4j)
    tau_cmp = limit_compare(
        espec,
        LimitSchedule(parameter="tau", values=(4j, 6j, 8j)),
        None,
        SamplePlan(seed=42, count=6),
    )

    ok = (
        ray_cmp.cauchy[-1] < 1e-5
        and ray_cmp.final_deviation <= 1e-5
        and tau_cmp.cauchy[-1] < 1e-5
    )
    _line(
        ok,
        "limits",
        f"shift-ray cauchy {ray_cmp.cauchy[-1]:.3e} / final"
        f" {ray_cmp.final_deviation:.3e} (tol 1e-05), modular-schedule cauchy"
        f" {tau_cmp.cauchy[-1]:.3e} (tol 1e-05)",
    )


# -------------------------------------------------------------- criterion 8

def _random_valid_y(rs, rng):
    # regular vector -> positive system -> random subset, saturated under
    # addition (sums of positives stay positive, so both properties hold)
    while True:
        v = rng.normal(size=rs.rank)
        pair = rs.roots @ v
        if np.min(np.abs(pair)) > 1e-6:
            break
    pos = [i for i in range(rs.n_roots) if pair[i] > 0]
    picked = {i for i in pos if rng.random() < 0.45}
    if not picked:
        picked = {pos[int(rng.integers(len(pos)))]}
    while True:
        extra = {
            s
            for i in picked
            for j in picked
            for s in (rs.add(i, j),)
            if s is not None and s not in picked
        }
        if not extra:
            return sorted(picked)
        picked |= extra


def test_a08_root_combinatorics_and_polarization():
    n1 = len(enumerate_closed_subsets(A1.root_system))

    rs_b2 = B2.root_system
    top = max(rs_b2.length_sq(i) for i in range(rs_b2.n_roots))
    long_set = frozenset(
        i for i in range(rs_b2.n_roots) if rs_b2.length_sq(i) == top
    )
    b2_sets = {frozenset(s) for s in enumerate_closed_subsets(rs_b2)}

    rng = np.random.default_rng(101)
    n_found, worst_margin = 0, math.inf
    for k in range(100):
        rs = (A2, B2, G2)[k % 3].root_system
        y = _random_valid_y(rs, rng)
        res = find_polarization(rs, y)
        vec = np.asarray(res.vector)
        assert res.margin > 0
        assert all((rs.roots[i] @ vec) > 0 for i in y)
        assert len(res.positive) * 2 == rs.n_roots
        worst_margin = min(worst_margin, res.margin)
        n_found += 1

    rs_a2 = A2.root_system
    s0, s1 = rs_a2.simple_roots
    with pytest.raises(PropertyViolated):
        find_polarization(rs_a2, [s0, rs_a2.neg(s0)])
    with pytest.raises(PropertyViolated):
        find_polarization(rs_a2, [s0, s1])  # misses the sum root

    ok = n1 == 2 and long_set in b2_sets and n_found == 100 and worst_margin > 0
    _line(
        ok,
        "combinatorics",
        f"rank-1 closed subsets {n1} (want 2), long-root subset enumerated"
        f" {long_set in b2_sets}, {n_found}/100 polarizations found,"
        f" min margin {worst_margin:.3f}, violations rejected",
    )


# -------------------------------------------------------------- criterion 9

def test_a09_pair_reduction():
    spec = RMatrixSpec(algebra=A2, family="RationalConstant", X=tuple(range(6)))
    report = reduce_pair_check(
        spec, A2.root_system.simple_roots[:1], SamplePlan(seed=42, count=N_POINTS)
    )
    named = {c.name: c.max_residual for c in report.checks}
    ok = named["pair-sum-cdybe"] <= 1e-8 and named["projector-cdybe"] <= 1e-9
    _line(
        ok,
        "pair-reduction",
        f"reassembled residual {named['pair-sum-cdybe']:.3e} (tol 1e-08),"
        f" projector residual {named['projector-cdybe']:.3e} (tol 1e-09)",
    )


# ------------------------------------------------------------- criterion 10

def test_a10_negative_controls_are_loud():
    rs = A2.root_system
    s0, s1 = rs.simple_roots
    perturbed = [
        (
            "sign-flip",
            RMatrixSpec(
                algebra=A2, family="RationalConstant", X=tuple(range(6)),
                debug_flip_root=rs.positive_roots[0], validate=False,
            ),
        ),
        (
            "broken-closure",
            RMatrixSpec(
                algebra=A2, family="RationalConstant",
                X=(s0, rs.neg(s0), s1, rs.neg(s1)), validate=False,
            ),
        ),
        (
            "wrong-coupling",
            RMatrixSpec(
                algebra=A1, family="TrigCotanh", eps=2.0,
                debug_scale_omega=2.0, validate=False,
            ),
        ),
    ]
    plan = SamplePlan(seed=42, count=N_POINTS)
    floors, all_failed = [], True
    for _, spec in perturbed:
        report = check_axioms(spec, plan)
        named = {c.name: c.max_residual for c in report.checks}
        floors.append(max(named["cdybe-residual"], named["unitarity"]))
        all_failed = all_failed and not report.passed
    floor = min(floors)
    ok = floor > 1e-3 and all_failed
    _line(
        ok,
        "negative-controls",
        f"min perturbed residual {floor:.3e} (floor 1e-03) over"
        f" {len(perturbed)} corruptions, failing reports {all_failed}",
    )


# ------------------------------------------------------------- criterion 11

def test_a11_report_determinism():
    plan = SamplePlan(seed=7, count=6)
    same = True
    for spec in (
        RMatrixSpec(algebra=A2, family="TrigSpectral", X=A2.root_system.simple_roots),
        RMatrixSpec(algebra=A2, family="TrigCotanh", eps=2.0),
    ):
        a = json.dumps(check_axioms(spec, plan).to_json(include_timing=False), sort_keys=True)
        b = json.dumps(check_axioms(spec, plan).to_json(include_timing=False), sort_keys=True)
        same = same and a == b
    _line(same, "determinism", "identical seed and plan give byte-identical reports (timing excluded)")
