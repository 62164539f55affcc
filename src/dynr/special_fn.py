"""Scalar special functions for r-matrix coefficients.

Covers the scaled hyperbolic cotangent, the odd Jacobi theta function
theta1 with its z-derivative, the ratio functions sigma_w and rho built
from it, and the two-sided classical series whose closed forms are sigma
and rho.  Everything is plain complex arithmetic with explicit truncation
control; evaluation near a pole raises instead of returning garbage.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

from .errors import ConvergenceFailure, PoleProximity, SpecInvalid

_POLE_THRESHOLD = 1e-8
_HARD_CAP = 512


@dataclass(frozen=True)
class ThetaParams:
    """Evaluation parameters for the theta-based functions.

    tau: modular parameter, Im(tau) > 0.
    truncation: largest admissible symmetric index in the theta sum.
    tol: target absolute accuracy of truncated tails.
    """

    tau: complex
    truncation: int = _HARD_CAP
    tol: float = 1e-14

    def __post_init__(self):
        if complex(self.tau).imag <= 0:
            raise SpecInvalid(f"tau must have positive imaginary part, got {self.tau}")
        if int(self.truncation) < 1:
            raise SpecInvalid("truncation must be >= 1")
        if not (0 < float(self.tol) < 1):
            raise SpecInvalid("tol must lie in (0, 1)")


def coth_scaled(eps: complex, w: complex) -> complex:
    """(eps/2) * coth((eps/2) * w), computed without overflow.

    Raises
    ------
    SpecInvalid when eps == 0; PoleProximity near w in (2*pi*i/eps) Z.
    """
    eps = complex(eps)
    if eps == 0:
        raise SpecInvalid("coth_scaled requires eps != 0")
    x = eps * complex(w) / 2
    # |sinh x| via exp(-|Re x|) scaling keeps the pole test overflow-free
    if abs(cmath.sinh(x) if abs(x.real) < 300 else 1.0) < _POLE_THRESHOLD:
        raise PoleProximity(f"coth argument {x} too close to i*pi*Z")
    if x.real >= 0:
        em = cmath.exp(-2 * x)
        return (eps / 2) * (1 + em) / (1 - em)
    ep = cmath.exp(2 * x)
    return (eps / 2) * (ep + 1) / (ep - 1)


def _theta_cutoff(z: complex, p: ThetaParams) -> int:
    im_tau = complex(p.tau).imag
    im_z = abs(complex(z).imag)
    big = math.log(10.0 / p.tol)
    j = (im_z + math.sqrt(im_z * im_z + im_tau * big / math.pi)) / im_tau
    j = int(math.ceil(j)) + 2
    j = max(j, 8)
    cap = min(int(p.truncation), _HARD_CAP)
    if j > cap:
        raise ConvergenceFailure(
            f"theta truncation {j} exceeds cap {cap} for z={z}, tau={p.tau}"
        )
    return j


def _theta_sum(z: complex, p: ThetaParams, order: int) -> complex:
    """Termwise z-derivative of order `order` of the theta sum."""
    z = complex(z)
    tau = complex(p.tau)
    j_max = _theta_cutoff(z, p)
    total = 0j
    for j in range(-j_max - 1, j_max + 1):
        h = j + 0.5
        term = cmath.exp(1j * math.pi * h * h * tau + 2j * math.pi * h * (z + 0.5))
        total += term * (2j * math.pi * h) ** order
    return -total


def theta1(z: complex, p: ThetaParams) -> complex:
    """Odd Jacobi theta function, truncated to the accuracy in p.

    Zeros lie on Z + tau Z; theta1(-z) = -theta1(z) and
    theta1(z+1) = -theta1(z).
    """
    return _theta_sum(z, p, 0)


def theta1_dz(z: complex, p: ThetaParams) -> complex:
    """First-argument derivative of theta1, by termwise differentiation."""
    return _theta_sum(z, p, 1)


@functools.lru_cache(maxsize=64)
def _theta1_dz0(p: ThetaParams) -> complex:
    """theta1'(0), the normalisation in sigma_w; depends on p alone."""
    return theta1_dz(0.0, p)


def _theta_checked(z: complex, p: ThetaParams, what: str) -> complex:
    v = theta1(z, p)
    if abs(v) < _POLE_THRESHOLD:
        raise PoleProximity(f"theta1({what}={z}) = {v:.3e}, too close to a zero")
    return v


def sigma_w(w: complex, z: complex, p: ThetaParams) -> complex:
    """theta1(w-z) theta1'(0) / (theta1(w) theta1(z)).

    Simple pole of residue 1 at z = 0; sigma_{-w}(-z) = -sigma_w(z).
    """
    tw = _theta_checked(w, p, "w")
    tz = _theta_checked(z, p, "z")
    return theta1(w - z, p) * _theta1_dz0(p) / (tw * tz)


def sigma_w_dw(w: complex, z: complex, p: ThetaParams) -> complex:
    """Analytic partial derivative of sigma_w(z) in w."""
    tw = _theta_checked(w, p, "w")
    tz = _theta_checked(z, p, "z")
    twz = theta1(w - z, p)
    dtwz = theta1_dz(w - z, p)
    dtw = theta1_dz(w, p)
    return _theta1_dz0(p) * (dtwz * tw - twz * dtw) / (tw * tw * tz)


def rho_fn(z: complex, p: ThetaParams) -> complex:
    """Logarithmic derivative theta1'(z)/theta1(z); odd, residue 1 at 0."""
    tz = _theta_checked(z, p, "z")
    return theta1_dz(z, p) / tz


def _one_plus_coth(x: complex) -> complex:
    # 1 + coth(x) = 2/(1 - e^{-2x}), evaluated for Re x >= 0 only
    den = 1 - cmath.exp(-2 * x)
    if abs(den) < _POLE_THRESHOLD:
        raise PoleProximity(f"series term argument {x} too close to i*pi*Z")
    return 2 / den


def classical_series(kind: str, u: complex, a: complex, p: ThetaParams, n_terms: int) -> complex:
    """Two-sided partial sum whose closed form is sigma or rho.

    kind "sigma-sum": sum over |n| <= n_terms of u^n (1 + coth(a + pi i tau n)).
    kind "rho-sum":   1 + the same sum with a = 0 and n = 0 omitted.

    Converges on the annulus 1 < |u| < exp(2 pi Im tau); with
    u = exp(2 pi i z) and k = pi i tau the limits are
    (1/(pi i)) sigma_{-a/(pi i)}(z, tau) and (1/(pi i)) rho(z, tau).

    Raises
    ------
    ConvergenceFailure when |u| is outside the open annulus.
    PoleProximity when some term argument sits on the coth pole lattice.
    SpecInvalid for an unknown kind or negative n_terms.
    """
    u = complex(u)
    a = complex(a)
    if kind not in ("sigma-sum", "rho-sum"):
        raise SpecInvalid(f"unknown series kind {kind!r}")
    if n_terms < 0:
        raise SpecInvalid("n_terms must be >= 0")
    im_tau = complex(p.tau).imag
    mod = abs(u)
    if not (1.0 < mod < math.exp(2 * math.pi * im_tau)):
        raise ConvergenceFailure(
            f"|u| = {mod:.6g} outside the open annulus (1, e^(2 pi Im tau))"
        )
    k = 1j * math.pi * complex(p.tau)
    log_u = cmath.log(u)
    if kind == "rho-sum":
        a = 0j
    total = 1 + 0j if kind == "rho-sum" else 0j
    for n in range(-n_terms, n_terms + 1):
        if kind == "rho-sum" and n == 0:
            continue
        x = a + k * n
        if x.real >= 0:
            total += cmath.exp(n * log_u) * _one_plus_coth(x)
        else:
            # u^n * 2 e^{2x}/(e^{2x}-1) with the exponentials combined, so the
            # decaying factor is applied before anything can overflow
            den = cmath.exp(2 * x) - 1
            if abs(den) < _POLE_THRESHOLD:
                raise PoleProximity(f"series term argument {x} too close to i*pi*Z")
            total += 2 * cmath.exp(n * log_u + 2 * x) / den
    return total
