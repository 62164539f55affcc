"""Special functions for r-matrix coefficients, over scalars or arrays.

Covers the scaled hyperbolic cotangent, the odd Jacobi theta function
theta1 with its z-derivative, the ratio functions sigma_w and rho built
from it, and the two-sided classical series whose closed forms are sigma
and rho.  Each function broadcasts over numpy array arguments and returns
a complex for scalar ones.  Truncation is explicit, and evaluation near a
pole raises, naming the first offending entry, instead of returning garbage.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, PoleProximity, SpecInvalid

_POLE_THRESHOLD = 1e-8
_HARD_CAP = 512
_SERIES_TERMS = 1 << 15  # series terms per block (entries of a times indices n)


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


def _out(a):
    """a as a complex when it is 0-d, else a itself."""
    return complex(a) if np.ndim(a) == 0 else a


def _require_margin(values, message):
    """Raise PoleProximity(message(i)) for the first flat index i (C order)
    at which |values| is below the pole threshold."""
    near = np.abs(values) < _POLE_THRESHOLD
    if np.any(near):
        raise PoleProximity(message(int(np.argmax(near))))


def coth_scaled(eps: complex, w: complex) -> complex:
    """(eps/2) * coth((eps/2) * w), computed without overflow.

    Raises
    ------
    SpecInvalid when eps == 0; PoleProximity near w in (2*pi*i/eps) Z.
    """
    eps = complex(eps)
    if eps == 0:
        raise SpecInvalid("coth_scaled requires eps != 0")
    x = eps * np.asarray(w, dtype=complex) / 2
    # |sinh x| is the pole test; past |Re x| = 300 it cannot be small, and
    # sinh(1) stands in there so nothing overflows
    near = np.sinh(np.where(np.abs(x.real) < 300, x, 1.0))
    _require_margin(near, lambda i: f"coth argument {complex(x.flat[i])} too close to i*pi*Z")
    sign = np.where(x.real >= 0, 1.0, -1.0)  # coth(x) = sign coth(sign x)
    e = np.exp(-2 * sign * x)  # the decaying exponential
    return _out(sign * (eps / 2) * (1 + e) / (1 - e))


def _theta_cutoff(z: np.ndarray, p: ThetaParams) -> np.ndarray:
    """Largest symmetric index each entry of z needs; ConvergenceFailure
    names the first entry past the cap."""
    im_tau = complex(p.tau).imag
    im_z = np.abs(z.imag)
    big = math.log(10.0 / p.tol)
    with np.errstate(over="ignore"):  # an infinite cutoff is past the cap below
        j = (im_z + np.sqrt(im_z * im_z + im_tau * big / math.pi)) / im_tau
    j = np.maximum(np.ceil(j) + 2, 8)
    cap = min(int(p.truncation), _HARD_CAP)
    over = ~(j <= cap)  # compared as floats, so an infinite or nan cutoff fails too
    if np.any(over):
        i = int(np.argmax(over))
        raise ConvergenceFailure(f"theta truncation {j.flat[i]:.4g} exceeds cap {cap} for z={complex(z.flat[i])}, tau={p.tau}")
    return j.astype(int)


def _theta_sum(z, p: ThetaParams, order: int) -> np.ndarray:
    """Termwise z-derivative of order `order` of the theta sum, entrywise
    over z; each entry keeps its own cutoff, the terms past it masked out."""
    z = np.asarray(z, dtype=complex)
    j_max = _theta_cutoff(z, p)
    top = int(j_max.max(initial=0))
    j = np.arange(-top - 1, top + 1).reshape((-1,) + (1,) * z.ndim)
    h = j + 0.5
    terms = np.exp(1j * math.pi * h * h * complex(p.tau) + 2j * math.pi * h * (z + 0.5)) * (2j * math.pi * h) ** order
    terms = np.where((j >= -j_max - 1) & (j <= j_max), terms, 0)
    # cumsum adds the terms in index order for every shape of z, so an entry's
    # value does not depend on what else is in the batch
    return -np.cumsum(terms, axis=0)[-1]


def theta1(z: complex, p: ThetaParams) -> complex:
    """Odd Jacobi theta function, truncated to the accuracy in p.

    Zeros lie on Z + tau Z; theta1(-z) = -theta1(z) and
    theta1(z+1) = -theta1(z).
    """
    return _out(_theta_sum(z, p, 0))


def theta1_dz(z: complex, p: ThetaParams) -> complex:
    """First-argument derivative of theta1, by termwise differentiation."""
    return _out(_theta_sum(z, p, 1))


@functools.lru_cache(maxsize=64)
def _theta1_dz0(p: ThetaParams) -> complex:
    """theta1'(0), the normalisation in sigma_w; depends on p alone."""
    return theta1_dz(0.0, p)


def _theta_zero(what: str, z, v):
    """_require_margin's message for v = theta1(z), naming z as `what`."""
    return lambda i: f"theta1({what}={np.ravel(z)[i]}) = {complex(np.ravel(v)[i]):.3e}, too close to a zero"


def _sigma(w, z, p: ThetaParams, want_d: bool):
    """(sigma_w(z), its w-derivative or None) from one set of theta sums."""
    tw, tz = theta1(w, p), theta1(z, p)
    _require_margin(tw, _theta_zero("w", w, tw))
    _require_margin(tz, _theta_zero("z", z, tz))
    wz = np.subtract(w, z)
    twz, d0 = theta1(wz, p), _theta1_dz0(p)
    s = twz * d0 / (tw * tz)
    if not want_d:
        return s, None
    dtwz, dtw = theta1_dz(wz, p), theta1_dz(w, p)
    return s, d0 * (dtwz * tw - twz * dtw) / (tw * tw * tz)


def sigma_w(w: complex, z: complex, p: ThetaParams) -> complex:
    """theta1(w-z) theta1'(0) / (theta1(w) theta1(z)).

    Simple pole of residue 1 at z = 0; sigma_{-w}(-z) = -sigma_w(z).
    """
    return _sigma(w, z, p, False)[0]


def rho_fn(z: complex, p: ThetaParams) -> complex:
    """Logarithmic derivative theta1'(z)/theta1(z); odd, residue 1 at 0."""
    tz = theta1(z, p)
    _require_margin(tz, _theta_zero("z", z, tz))
    return theta1_dz(z, p) / tz


def classical_series(kind: str, u: complex, a: complex, p: ThetaParams, n_terms: int) -> complex:
    """Two-sided partial sum whose closed form is sigma or rho, entrywise over a.

    kind "sigma-sum": sum over |n| <= n_terms of u^n (1 + coth(a + pi i tau n)).
    kind "rho-sum":   1 + the same sum with a = 0 and n = 0 omitted.

    Converges on the annulus 1 < |u| < exp(2 pi Im tau); with
    u = exp(2 pi i z) and k = pi i tau the limits are
    (1/(pi i)) sigma_{-a/(pi i)}(z, tau) and (1/(pi i)) rho(z, tau).
    The terms are summed in blocks of at most _SERIES_TERMS, walked in the
    (entry, n) order, so memory stays bounded whatever n_terms is.

    Raises
    ------
    ConvergenceFailure when |u| is outside the open annulus.
    PoleProximity when some term argument sits on the coth pole lattice.
    SpecInvalid for an unknown kind or negative n_terms.
    """
    u = complex(u)
    a = np.asarray(a, dtype=complex)
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
    rho = kind == "rho-sum"
    entries = (np.zeros_like(a) if rho else a).reshape(-1)
    count = 2 * n_terms + 1 - rho  # terms per entry: |n| <= n_terms, without n = 0 for rho
    # blocks of whole rows of n when they fit, else runs of one entry's n; in
    # C order either way, so the pole guard names the first offender of all
    cols = max(1, min(count, _SERIES_TERMS))
    rows = max(1, _SERIES_TERMS // cols)
    total = np.zeros(entries.shape, dtype=complex)
    for r in range(0, len(entries), rows):
        for c in range(0, count, cols):
            nb = np.arange(c, min(c + cols, count)) - n_terms
            nb += rho & (nb >= 0)  # rho skips n = 0
            x = np.add.outer(entries[r : r + rows], k * nb)  # one row of term arguments per entry
            pos = x.real >= 0
            with np.errstate(over="ignore", invalid="ignore"):
                e = np.exp(np.where(pos, -2 * x, 2 * x))  # the decaying exponential
                den = np.where(pos, 1 - e, e - 1)
                _require_margin(den, lambda i: f"series term argument {complex(x.flat[i])} too close to i*pi*Z")
                # u^n (1 + coth x) is u^n 2/(1 - e^{-2x}) for Re x >= 0; for Re x < 0 it
                # is u^n 2 e^{2x}/(e^{2x} - 1) with the exponentials combined, so the
                # decaying factor applies before anything can overflow
                terms = np.where(pos, np.exp(nb * log_u) * (2 / den), 2 * np.exp(nb * log_u + 2 * x) / den)
            total[r : r + rows] += terms.sum(axis=-1)
    total = total.reshape(a.shape)
    return _out(1 + total if rho else total)
