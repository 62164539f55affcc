"""Scalar coefficient functions: coth, theta ratios, classical series."""

import cmath
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from _oracle import sigma_w_dw
from dynr import (
    ConvergenceFailure,
    PoleProximity,
    SpecInvalid,
    ThetaParams,
    classical_series,
    coth_scaled,
    rho_fn,
    sigma_w,
    theta1,
)
import dynr.special_fn
from dynr.special_fn import theta1_dz

P_I = ThetaParams(tau=1j)
P_2I = ThetaParams(tau=2j)


def _mp_theta1(z, tau, derivative=0):
    q = mpmath.exp(1j * mpmath.pi * tau)
    v = mpmath.jtheta(1, mpmath.pi * z, q, derivative=derivative)
    return complex(v) * math.pi ** derivative


# ---------------------------------------------------------------- coth

def test_coth_scaled_hand_values():
    assert coth_scaled(2.0, math.log(2.0)) == pytest.approx(5.0 / 3.0, abs=1e-14)
    assert coth_scaled(2.0, 2.0 * math.log(2.0)) == pytest.approx(17.0 / 15.0, abs=1e-14)
    assert coth_scaled(2.0, math.log(3.0)) == pytest.approx(5.0 / 4.0, abs=1e-14)


def test_coth_scaled_scaling_rule():
    # (eps/2) coth((eps/2) w): halving eps and doubling w halves the value
    v1 = coth_scaled(2.0, 0.7)
    v2 = coth_scaled(1.0, 1.4)
    assert v1 == pytest.approx(2.0 * v2, rel=1e-14)


def test_coth_scaled_odd_and_asymptotic():
    assert coth_scaled(1.0, 0.3) == pytest.approx(-coth_scaled(1.0, -0.3), rel=1e-14)
    # large argument saturates at eps/2 without overflow
    assert coth_scaled(2.0, 800.0) == pytest.approx(1.0, abs=1e-14)
    assert coth_scaled(2.0, -800.0) == pytest.approx(-1.0, abs=1e-14)


def test_coth_scaled_gates():
    with pytest.raises(SpecInvalid):
        coth_scaled(0.0, 1.0)
    with pytest.raises(PoleProximity):
        coth_scaled(1.0, 1e-12)
    with pytest.raises(PoleProximity):
        coth_scaled(2.0, 1j * math.pi)


# ---------------------------------------------------------------- theta1

@pytest.mark.parametrize("tau", [1j, 2j, 0.3 + 1.1j])
@pytest.mark.parametrize("z", [0.17, 0.5 - 0.2j, -0.31 + 0.4j, 1.2 + 0.05j])
def test_theta1_matches_mpmath(tau, z):
    p = ThetaParams(tau=tau)
    want = _mp_theta1(z, tau)
    assert theta1(z, p) == pytest.approx(want, rel=1e-12, abs=1e-13)
    want1 = _mp_theta1(z, tau, derivative=1)
    assert theta1_dz(z, p) == pytest.approx(want1, rel=1e-12, abs=1e-13)


def test_theta1_zero_and_oddness():
    assert abs(theta1(0.0, P_I)) < 1e-13
    for z in (0.23, 0.4 + 0.1j, -0.6 + 0.27j):
        assert abs(theta1(-z, P_I) + theta1(z, P_I)) < 1e-13


def test_theta1_quasi_periodicity():
    for z in (0.11, 0.37 - 0.21j):
        assert abs(theta1(z + 1.0, P_I) + theta1(z, P_I)) < 1e-12
        # lattice zeros: z in Z + tau Z
        assert abs(theta1(1.0 + 1j, P_I)) < 1e-10


def test_theta1_truncation_cap():
    p = ThetaParams(tau=1j, truncation=8)
    with pytest.raises(ConvergenceFailure):
        theta1(50.0j, p)


def test_theta1_array_cap_names_first_offending_entry():
    p = ThetaParams(tau=1j, truncation=8)
    with pytest.raises(ConvergenceFailure) as single:
        theta1(50j, p)
    with pytest.raises(ConvergenceFailure) as batch:
        theta1(np.array([[0.1j, 0.2], [50j, 60j]]), p)
    assert str(batch.value) == str(single.value)
    assert "z=50j" in str(batch.value)
    # a cutoff too large to be an integer is still past the cap
    with pytest.raises(ConvergenceFailure):
        theta1(1e200j, P_I)


def test_theta_batch_keeps_each_entry_cutoff():
    """Each entry is summed to its own cutoff whatever else is in the batch;
    the coarse tolerance makes the terms past a cutoff visible."""
    p = ThetaParams(tau=0.01j, tol=0.5)
    z = np.array([0.2, 1j])
    for f in (theta1, theta1_dz):
        assert list(f(z, p)) == [f(0.2, p), f(1j, p)]


def test_array_arguments_match_entrywise_calls():
    p = ThetaParams(tau=0.3 + 1.1j)
    w = np.array([[0.31, -0.62 + 0.1j], [0.5 + 0.2j, 1.7 - 0.4j]])
    z = np.array([0.27 - 0.14j, -0.4 + 0.3j])  # broadcasts against w
    cases = [
        lambda w, z: theta1(w, p),
        lambda w, z: theta1_dz(w, p),
        lambda w, z: rho_fn(w, p),
        lambda w, z: coth_scaled(1.5 - 0.2j, w),
        lambda w, z: sigma_w(w, z, p),
        lambda w, z: sigma_w_dw(w, z, p),
    ]
    wb, zb = np.broadcast_arrays(w, z)
    for f in cases:
        got = f(w, z)
        want = [f(complex(a), complex(b)) for a, b in zip(wb.flat, zb.flat)]
        assert got.shape == w.shape and all(type(v) is complex for v in want)
        np.testing.assert_allclose(got.ravel(), want, rtol=1e-15, atol=0)


def test_theta_params_gates():
    with pytest.raises(SpecInvalid):
        ThetaParams(tau=0.5)
    with pytest.raises(SpecInvalid):
        ThetaParams(tau=1j, truncation=0)
    with pytest.raises(SpecInvalid):
        ThetaParams(tau=1j, tol=2.0)


# ---------------------------------------------------------------- sigma, rho

def test_sigma_matches_theta_ratio_oracle():
    for (w, z, tau) in [
        (0.31, 0.27 - 0.14j, 1j),
        (0.5 + 0.2j, -0.4 + 0.3j, 2j),
        (-0.62, 0.18, 0.1 + 1.3j),
    ]:
        p = ThetaParams(tau=tau)
        want = _mp_theta1(w - z, tau) * _mp_theta1(0.0, tau, 1) / (
            _mp_theta1(w, tau) * _mp_theta1(z, tau)
        )
        assert sigma_w(w, z, p) == pytest.approx(want, rel=1e-12)


def test_sigma_reuses_theta_prime_at_zero(monkeypatch):
    """theta1'(0) is summed once per ThetaParams; values stay bit-identical."""
    cases = [
        (0.31, 0.27 - 0.14j, 0.37 + 1.11j),
        (0.5 + 0.2j, -0.4 + 0.3j, 0.37 + 1.11j),
        (-0.62, 0.18, -0.21 + 1.73j),
    ]
    want = []
    for (w, z, tau) in cases:
        p = ThetaParams(tau=tau)
        tw, tz, twz = theta1(w, p), theta1(z, p), theta1(w - z, p)
        dtw, dtwz, d0 = theta1_dz(w, p), theta1_dz(w - z, p), theta1_dz(0.0, p)
        want.append((twz * d0 / (tw * tz), d0 * (dtwz * tw - twz * dtw) / (tw * tw * tz)))

    prime_at_zero = []
    theta_sum = dynr.special_fn._theta_sum

    def counting(z, p, order):
        if z == 0 and order == 1:
            prime_at_zero.append(p.tau)
        return theta_sum(z, p, order)

    monkeypatch.setattr(dynr.special_fn, "_theta_sum", counting)
    for (w, z, tau), (s, s_dw) in zip(cases, want):
        p = ThetaParams(tau=tau)
        assert sigma_w(w, z, p) == s
        assert sigma_w_dw(w, z, p) == s_dw
    assert sorted(prime_at_zero, key=abs) == [0.37 + 1.11j, -0.21 + 1.73j]


def test_sigma_residue_at_zero():
    z = 1e-3
    # at w = 1/2 the O(z) coefficient -rho(w) vanishes, so the probe is clean
    val = z * sigma_w(0.5, z, P_I)
    assert abs(val - 1.0) < 1e-5
    # generic w carries a -rho(w) z correction; check the expansion instead
    w = 0.4
    val = z * sigma_w(w, z, P_I)
    assert abs(val - (1.0 - rho_fn(w, P_I) * z)) < 1e-5


def test_sigma_reflection():
    for (w, z) in [(0.4, 0.21 - 0.3j), (0.13 + 0.09j, -0.52)]:
        lhs = sigma_w(-w, -z, P_I)
        rhs = -sigma_w(w, z, P_I)
        assert abs(lhs - rhs) < 1e-12


def test_sigma_dw_against_finite_difference():
    h = 1e-6
    for (w, z) in [(0.37, 0.22 - 0.18j), (0.51 + 0.11j, -0.43)]:
        fd = (sigma_w(w + h, z, P_2I) - sigma_w(w - h, z, P_2I)) / (2 * h)
        an = sigma_w_dw(w, z, P_2I)
        assert abs(an - fd) < 1e-6 * max(1.0, abs(an))


def test_sigma_pole_gates():
    with pytest.raises(PoleProximity):
        sigma_w(0.4, 1e-12, P_I)
    with pytest.raises(PoleProximity):
        sigma_w(1e-12, 0.3, P_I)


def test_rho_residue_oddness_and_value():
    z = 1e-3
    assert abs(z * rho_fn(z, P_I) - 1.0) < 1e-5
    for z in (0.29, 0.4 - 0.22j):
        assert abs(rho_fn(-z, P_I) + rho_fn(z, P_I)) < 1e-12
    # independent truncation-200 oracle for rho(0.3, i)
    tau = 1j
    q = cmath.exp(1j * cmath.pi * tau)
    num, den = 0j, 0j
    for n in range(200):
        c = (-1) ** n * q ** ((n + 0.5) ** 2)
        num += c * (2 * n + 1) * cmath.cos((2 * n + 1) * cmath.pi * 0.3)
        den += c * cmath.sin((2 * n + 1) * cmath.pi * 0.3)
    want = cmath.pi * num / den
    assert rho_fn(0.3, P_I) == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------- series

def test_series_single_term_is_coth():
    # N = 0 keeps only the n = 0 term, u drops out
    u = cmath.exp(2j * cmath.pi * (0.3 - 0.5j))
    a = 0.7 + 0.2j
    want = 1.0 + 1.0 / cmath.tanh(a)
    assert classical_series("sigma-sum", u, a, P_2I, 0) == pytest.approx(want, rel=1e-14)


def test_series_sigma_closed_form():
    tau = 2j
    p = ThetaParams(tau=tau)
    z = 0.3 - 0.5j
    u = cmath.exp(2j * cmath.pi * z)
    k = 1j * cmath.pi * tau
    for a in (0.8, 0.45 + 0.3j, -0.6 + 0.1j):
        got = classical_series("sigma-sum", u, a, p, 50)
        want = sigma_w(-a / (1j * cmath.pi), z, p) / (1j * cmath.pi)
        assert abs(got - want) < 1e-10


def test_series_rho_closed_form():
    tau = 2j
    p = ThetaParams(tau=tau)
    z = 0.3 - 0.5j
    u = cmath.exp(2j * cmath.pi * z)
    got = classical_series("rho-sum", u, 0.0, p, 50)
    want = rho_fn(z, p) / (1j * cmath.pi)
    assert abs(got - want) < 1e-10


def test_series_truncation_error_decreases():
    tau = 2j
    p = ThetaParams(tau=tau)
    z = 0.3 - 0.5j
    u = cmath.exp(2j * cmath.pi * z)
    a = 0.8
    limit = sigma_w(-a / (1j * cmath.pi), z, p) / (1j * cmath.pi)
    errs = [abs(classical_series("sigma-sum", u, a, p, n) - limit) for n in (1, 2, 4, 8)]
    assert errs[0] > errs[1] > errs[2] > errs[3]
    assert errs[3] < 1e-9


def test_series_annulus_gate():
    # real z puts |u| on the inner boundary
    u = cmath.exp(2j * cmath.pi * 0.3)
    with pytest.raises(ConvergenceFailure):
        classical_series("sigma-sum", u, 0.8, P_2I, 20)
    # too far out fails as well
    with pytest.raises(ConvergenceFailure):
        classical_series("sigma-sum", cmath.exp(2 * cmath.pi * 2.5), 0.8, P_2I, 20)


def test_series_over_an_array_of_a_matches_entrywise_calls():
    u = cmath.exp(2j * cmath.pi * (0.3 - 0.5j))
    a = np.array([0.8, -0.3 + 0.2j, 1.1j])
    got = classical_series("sigma-sum", u, a, P_2I, 20)
    want = [classical_series("sigma-sum", u, x, P_2I, 20) for x in a]
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
    # entry 1 meets the pole of its n = 1 term, entry 2 that of its n = 0 term
    near = np.array([0.8, 2 * math.pi + 1e-12, 1e-13])
    with pytest.raises(PoleProximity) as single:
        classical_series("sigma-sum", u, near[1], P_2I, 3)
    with pytest.raises(PoleProximity) as batch:
        classical_series("sigma-sum", u, near, P_2I, 3)
    assert str(batch.value) == str(single.value)


@pytest.mark.parametrize("terms", [4, 50])
def test_series_blocks_match_one_block(monkeypatch, terms):
    """Sums agree with one block to round-off, and the pole guard names the
    same first offender.  4 terms per block walks each entry in runs of n;
    50 takes several whole rows of n at once."""
    u = cmath.exp(2j * cmath.pi * (0.3 - 0.5j))
    a = np.array([0.8, -0.3 + 0.2j, 1.1j])
    want = classical_series("sigma-sum", u, a, P_2I, 3), classical_series("rho-sum", u, 0.0, P_2I, 20)
    # entry 1 meets the pole of its n = 1 term, entry 2 that of its n = 0 term,
    # which an n-major walk of 4-term blocks would reach first
    near = np.array([0.8, 2 * math.pi + 1e-12, 1e-13])
    with pytest.raises(PoleProximity) as one:
        classical_series("sigma-sum", u, near, P_2I, 3)
    monkeypatch.setattr(dynr.special_fn, "_SERIES_TERMS", terms)
    got = classical_series("sigma-sum", u, a, P_2I, 3), classical_series("rho-sum", u, 0.0, P_2I, 20)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=1e-15, atol=0)
    with pytest.raises(PoleProximity) as blocked:
        classical_series("sigma-sum", u, near, P_2I, 3)
    assert str(blocked.value) == str(one.value)


def test_series_memory_does_not_grow_with_the_term_count():
    """One block over all 400,001 terms of each entry peaked near 100 MiB."""
    u = cmath.exp(2j * cmath.pi * (0.3 - 0.5j))
    tracemalloc.start()
    try:
        classical_series("sigma-sum", u, np.array([0.8, -0.8]), P_2I, 200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_series_pole_and_spec_gates():
    u = cmath.exp(2j * cmath.pi * (0.3 - 0.5j))
    with pytest.raises(PoleProximity):
        classical_series("sigma-sum", u, 0.0, P_2I, 3)
    with pytest.raises(SpecInvalid):
        classical_series("tanh-sum", u, 0.8, P_2I, 3)
    with pytest.raises(SpecInvalid):
        classical_series("sigma-sum", u, 0.8, P_2I, -1)
