"""The r-matrix family catalog: specs, evaluation, derivatives, gauges.

Every family evaluates through one canonical shape: a Cartan coefficient
matrix M (for sum_ij M_ij x_i (x) x_j) plus one scalar coefficient per root
(for e_a (x) e_{-a}).  Constant families take a point of the Cartan dual;
spectral families take an extra complex argument z.  Gauge transformations
are stored as an ordered stack on the spec and folded in at evaluation
time, so a gauged spec evaluates exactly to the transformed function.

Analytic derivatives in the Cartan direction are threaded through the
gauge stack; the tests cross-check them against finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .combinatorics import additive_closure, is_closed_subset
from .errors import ConvergenceFailure, NonFiniteValue, PoleProximity, SpecInvalid
from .lie_core import CartanVector, SimpleLieAlgebra
from .special_fn import ThetaParams, _require_margin, _sigma, coth_scaled, rho_fn
from .tensor_alg import Tensor2, Tensor3

FAMILIES = (
    "RationalConstant",
    "TrigCotanh",
    "TrigDegenerate",
    "EllipticSpectral",
    "TrigSpectral",
    "RationalSpectral",
)
SPECTRAL_FAMILIES = ("EllipticSpectral", "TrigSpectral", "RationalSpectral")


def _frozen(a) -> np.ndarray:
    """A read-only complex copy of a, so no caller's array reaches a spec."""
    a = np.array(a, dtype=complex)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class GaugeRecord:
    """One gauge transformation.

    kind 1: add a constant antisymmetric Cartan matrix (payload c_matrix).
    kind 2: diagonal shift z * Hess(psi) and factors e^{z L_a psi} on the
            root coefficients, psi(l) = l^T Q l / 2 + v^T l (payload psi).
    kind 3: shift the argument, l -> l - shift (payload shift).
    kind 4: r(l, z) -> a r(a l, b z) (payload scale = (a, b)).
    """

    kind: int
    c_matrix: Optional[np.ndarray] = None
    psi: Optional[tuple] = None
    shift: Optional[CartanVector] = None
    scale: Optional[tuple] = None

    def __post_init__(self):
        if not _is_integer(self.kind) or self.kind not in (1, 2, 3, 4):
            raise SpecInvalid(f"gauge kind must be 1..4, got {self.kind!r}")
        if self.kind == 1:
            if self.c_matrix is None:
                raise SpecInvalid("kind-1 gauge needs c_matrix")
            c = _frozen(self.c_matrix)
            if np.max(np.abs(c + c.T)) > 1e-12:
                raise SpecInvalid("kind-1 matrix must be antisymmetric")
            object.__setattr__(self, "c_matrix", c)
        elif self.kind == 2:
            if self.psi is None:
                raise SpecInvalid("kind-2 gauge needs psi = (Q, v)")
            q, v = _frozen(self.psi[0]), _frozen(self.psi[1])
            if q.ndim != 2 or q.shape[0] != q.shape[1] or v.shape != (q.shape[0],):
                raise SpecInvalid("psi payload shapes inconsistent")
            if np.max(np.abs(q - q.T)) > 1e-12:
                raise SpecInvalid("psi Hessian must be symmetric")
            object.__setattr__(self, "psi", (q, v))
        elif self.kind == 3:
            if self.shift is None:
                raise SpecInvalid("kind-3 gauge needs shift")
        else:
            if self.scale is None:
                raise SpecInvalid("kind-4 gauge needs scale = (a, b)")
            a, b = complex(self.scale[0]), complex(self.scale[1])
            if a == 0 or b == 0:
                raise SpecInvalid("kind-4 scale components must be nonzero")
            object.__setattr__(self, "scale", (a, b))


@dataclass(frozen=True, eq=False)
class RMatrixSpec:
    """Immutable description of one r-matrix, gauge stack included.

    X is a tuple of root indices: a closed subset for RationalConstant and
    RationalSpectral, a subset of the simple roots of the polarization for
    TrigDegenerate and TrigSpectral, and empty otherwise.  polarization is
    the positive-root index tuple (the standard one when None or empty).
    Both may be given as any sequence, a numpy array too; every entry must
    be an integer, not a bool or a float, even when validate is False.
    The two debug_* fields deliberately corrupt the evaluation and exist
    only to drive negative controls; validation rejects nothing about them,
    except that debug_flip_root must be a root index even when validate is
    False.
    """

    algebra: SimpleLieAlgebra
    family: str
    eps: Optional[complex] = None
    nu: Optional[CartanVector] = None
    X: Optional[Sequence[int]] = None
    polarization: Optional[Sequence[int]] = None
    C: Optional[np.ndarray] = None
    tau: Optional[complex] = None
    gauge_stack: tuple = ()
    debug_flip_root: Optional[int] = None
    debug_scale_omega: complex = 1.0
    validate: bool = True

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise SpecInvalid(f"unknown family {self.family!r}")
        rs = self.algebra.root_system
        rank = rs.rank

        x = tuple(sorted(set(_root_indices(self.X, "X"))))  # X is a set of roots
        object.__setattr__(self, "X", x)

        nu = self.nu if self.nu is not None else CartanVector.zero(rank)
        if len(nu.coords) != rank:
            raise SpecInvalid("nu has wrong dimension")
        object.__setattr__(self, "nu", nu)

        pol = tuple(sorted(_root_indices(self.polarization, "polarization"))) or rs.positive_roots
        object.__setattr__(self, "polarization", pol)

        c = _frozen(self.C if self.C is not None else np.zeros((rank, rank)))
        if c.shape != (rank, rank):
            raise SpecInvalid(f"C must be {rank}x{rank}, got {c.shape}")
        object.__setattr__(self, "C", c)

        eps = self.eps
        if eps is None:
            eps = {"RationalConstant": 0.0}.get(self.family)
            if eps is None and self.family in SPECTRAL_FAMILIES:
                eps = 1.0
        if eps is None:
            raise SpecInvalid(f"{self.family} requires an explicit coupling eps")
        object.__setattr__(self, "eps", complex(eps))

        object.__setattr__(self, "tau", complex(self.tau) if self.tau is not None else None)
        object.__setattr__(self, "gauge_stack", tuple(self.gauge_stack))
        if self.debug_flip_root is not None:
            object.__setattr__(self, "debug_flip_root", _require_root(rs, self.debug_flip_root, "debug_flip_root"))
        if self.validate:
            self._validate()
        # the X-span (a root subsystem; simple-subset families) and the
        # polarization as root masks, then the one list of the roots whose
        # coefficient carries a pole, which _base_eval and pole_margin read
        roots = np.arange(rs.n_roots)
        simple_subset = self.family in ("TrigDegenerate", "TrigSpectral")
        span = np.isin(roots, list(additive_closure(rs, set(x) | {rs.neg(i) for i in x}) if simple_subset else ()))
        rational = self.family in ("RationalConstant", "RationalSpectral")
        poles = roots[span] if simple_subset else roots[np.isin(roots, x)] if rational else roots
        for name, value in (("_span", span), ("_pol", np.isin(roots, pol)), ("_pole_roots", poles)):
            object.__setattr__(self, name, value)

    def _validate(self):
        rs = self.algebra.root_system
        for i in self.X:
            if not 0 <= i < rs.n_roots:
                raise SpecInvalid(f"root index {i} out of range")
        pol = set(self.polarization)
        if len(pol) * 2 != rs.n_roots:
            raise SpecInvalid("polarization must contain half of the roots")
        for i in pol:
            if rs.neg(i) in pol:
                raise SpecInvalid("polarization contains a root and its negative")
        if additive_closure(rs, pol) != pol:
            raise SpecInvalid("polarization not closed under root addition")
        if self.family in ("RationalConstant", "RationalSpectral"):
            if not is_closed_subset(rs, self.X):
                raise SpecInvalid(f"{self.family} requires X closed under negation and addition")
        elif self.family in ("TrigDegenerate", "TrigSpectral"):
            members = sorted(pol)
            hit = np.zeros(rs.n_roots + 1, dtype=bool)  # a sum of two members; slot -1 takes the non-root sentinel
            hit[rs.sum_table[np.ix_(members, members)]] = True
            if any(i not in pol or hit[i] for i in self.X):
                raise SpecInvalid(f"{self.family} requires X inside the simple roots of the polarization")
        elif self.X:
            raise SpecInvalid(f"{self.family} takes no X")
        if self.family == "RationalConstant" and self.eps != 0:
            raise SpecInvalid("RationalConstant has zero coupling; eps must be 0")
        if self.family in ("TrigCotanh", "TrigDegenerate") and self.eps == 0:
            raise SpecInvalid(f"{self.family} requires eps != 0")
        if self.family in SPECTRAL_FAMILIES and self.eps != 1:
            raise SpecInvalid(f"{self.family} has base coupling 1; use a kind-4 gauge to rescale")
        if self.family == "EllipticSpectral":
            if self.tau is None or self.tau.imag <= 0:
                raise SpecInvalid("EllipticSpectral requires tau with Im tau > 0")
        elif self.tau is not None:
            raise SpecInvalid(f"{self.family} takes no tau")
        for name, value in (("eps", self.eps), ("nu", self.nu.as_array()), ("C", self.C), ("tau", self.tau)):
            if value is not None and not np.all(np.isfinite(value)):
                raise SpecInvalid(f"{name} must be finite")
        if np.max(np.abs(self.C + self.C.T)) > 1e-12:
            raise SpecInvalid("C must be antisymmetric")
        for g in self.gauge_stack:
            _check_gauge_against_family(self, g)

    @property
    def is_spectral(self) -> bool:
        return self.family in SPECTRAL_FAMILIES

    def theta_params(self) -> ThetaParams:
        return ThetaParams(tau=self.tau)


def _check_gauge_against_family(spec: RMatrixSpec, g: GaugeRecord):
    """Raise SpecInvalid unless g's payload is finite, of spec's rank and allowed for its family."""
    payload = (g.c_matrix, g.scale, None if g.shift is None else g.shift.coords, *(g.psi or ()))
    if any(part is not None and not np.all(np.isfinite(part)) for part in payload):
        raise SpecInvalid(f"kind-{g.kind} gauge payload must be finite")
    rank = spec.algebra.rank
    if g.kind == 1 and g.c_matrix.shape != (rank, rank):
        raise SpecInvalid("c_matrix dimension mismatch")
    if g.kind == 2 and g.psi[0].shape[0] != rank:
        raise SpecInvalid("psi dimension mismatch")
    if g.kind == 3 and len(g.shift.coords) != rank:
        raise SpecInvalid("shift dimension mismatch")
    spectral = spec.family in SPECTRAL_FAMILIES
    if g.kind == 2 and not spectral:
        raise SpecInvalid("kind-2 gauges apply to spectral families only")
    if g.kind == 4 and not spectral and complex(g.scale[1]) != 1:
        raise SpecInvalid("kind-4 gauge on a constant family must have b = 1")


def gauge_apply(spec: RMatrixSpec, g: GaugeRecord) -> RMatrixSpec:
    """Push one gauge record onto the spec's stack.

    The returned spec evaluates to the transformed function; the original
    is unchanged.
    """
    if not isinstance(g, GaugeRecord):
        raise SpecInvalid("gauge_apply expects a GaugeRecord")
    _check_gauge_against_family(spec, g)
    return replace(spec, gauge_stack=spec.gauge_stack + (g,), validate=False)


def effective_coupling(spec: RMatrixSpec) -> complex:
    """Coupling constant of the evaluated function, gauge stack folded in.

    Base coupling is 0, eps, or 1 per family; each kind-4 record scales it
    by a/b (spectral) or a (constant); other kinds leave it alone.
    """
    eps = complex(spec.eps)
    for g in spec.gauge_stack:
        if g.kind == 4:
            a, b = g.scale
            eps *= a / b if spec.is_spectral else a
    return eps


def _below(what: str, value) -> str:
    """The pole message for a coefficient denominator `what` of size value."""
    return f"{what} magnitude {abs(value):.3e} below pole threshold"


def _pairings(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """rows @ x per leading index of x: numpy's matmul makes one matrix-vector
    product per stacked index, so a row does not depend on its batch."""
    return (rows @ x[..., None])[..., 0]


def _base_eval(spec: RMatrixSpec, lam: np.ndarray, z, want_d: bool):
    """Family formulas as a record (v, d), debug_scale_omega applied
    (_record applies debug_flip_root).

    Each family is one array expression over its pole-bearing roots and a
    batch of n arguments: lam is (n, rank), z None or (n,), and every
    output has n in front.
    """
    rs = spec.algebra.root_system
    rank, nr, n = rs.rank, rs.n_roots, len(lam)
    poles, fam, omega = spec._pole_roots, spec.family, complex(spec.debug_scale_omega)
    a = _pairings(rs.roots, lam - spec.nu.as_array())[:, poles]  # (n, pole-bearing roots)
    roots = rs.roots[poles].T  # (rank, pole-bearing roots)
    zc = None if z is None else z[:, None]  # broadcasts against the roots
    v = np.zeros((n, rank * rank + nr), dtype=complex)
    phi = v[:, rank * rank :]  # the root entries, written in place
    diag = None  # the scalar multiplying the identity in M, before debug_scale_omega

    if fam in ("RationalConstant", "RationalSpectral"):
        if z is not None:
            _require_margin(z, lambda i: _below("z", z[i]))
            diag = 1.0 / z
            phi += 1.0 / zc
        _require_margin(a, lambda i: _below(f"(root {poles[i % len(poles)]}, lam-nu)", a.flat[i]))
        phi[:, poles] += 1.0 / a
        d = -roots / (a * a)[:, None]
    elif fam in ("TrigCotanh", "TrigDegenerate"):
        diag = half = spec.eps / 2
        phi += omega * half
        c = coth_scaled(spec.eps, a)  # includes its own pole guard
        phi[:, poles] += c
        d = (half * half - c * c)[:, None] * roots
        if fam == "TrigDegenerate":
            rest = ~spec._span
            phi[:, rest] += np.where(spec._pol[rest], half, -half)
    elif fam == "EllipticSpectral":
        tp = spec.theta_params()
        diag = rho_fn(z, tp)
        phi[:], ds = _sigma(-a, zc, tp, want_d)
        d = None if ds is None else ds[:, None] * -roots
    else:  # TrigSpectral
        sz = np.sin(z)
        _require_margin(sz, lambda i: _below("sin z", sz[i]))
        diag = np.cos(z) / sz
        sa = np.sin(a)
        _require_margin(sa, lambda i: _below(f"sin(root {poles[i % len(poles)]}, lam-nu)", sa.flat[i]))
        rest = ~spec._span
        phi[:, rest] = np.exp(np.where(spec._pol[rest], -1j, 1j) * zc) / sz[:, None]
        phi[:, poles] = np.sin(a + zc) / (sa * sz[:, None])
        d = -roots / (sa * sa)[:, None]

    m = spec.C if diag is None else spec.C + np.multiply.outer(np.broadcast_to(omega * diag, (n,)), np.eye(rank))
    v[:, : rank * rank] = np.reshape(m, (-1, rank * rank))
    if not want_d:
        return v, None
    dv = np.zeros((n, rank, nr), dtype=complex)
    dv[..., poles] = d
    return v, dv


def _arguments(spec: RMatrixSpec, lam: np.ndarray, z: Optional[complex]) -> list:
    """The (lam, z) each gauge level receives, from the top of the stack
    down; the last entry is the family formula's argument."""
    out = [(lam, z)]
    for g in reversed(spec.gauge_stack):
        if g.kind == 3:
            lam = lam - g.shift.as_array()
        elif g.kind == 4:
            a, b = g.scale
            lam, z = a * lam, (b * z if z is not None else None)
        out.append((lam, z))
    return out


def _evaluate(spec: RMatrixSpec, lam: np.ndarray, z, want_d: bool):
    """(v, d) of spec at (lam, z): the family formula at the bottom
    argument, then each gauge record from the bottom of the stack up.  lam
    may carry leading batch axes and z may be an array; both outputs then
    carry the broadcast of lam.shape[:-1] and z's shape in front.  All run
    as one flat batch, a single argument as a batch of one, so a value
    equals its entry in any batch bit for bit, and a pole or a divergent
    sum raises the first failing argument's own error.  Overflow yields
    inf or nan entries without a warning; _record tests them."""
    rs = spec.algebra.root_system
    lead = np.broadcast_shapes(np.shape(lam)[:-1], np.shape(z))
    lam = np.broadcast_to(lam, lead + (rs.rank,)).reshape(-1, rs.rank)
    z = None if z is None else np.broadcast_to(z, lead).reshape(-1)
    *levels, base = _arguments(spec, lam, z)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            v, d = _base_eval(spec, *base, want_d)
        except (PoleProximity, ConvergenceFailure):
            for i in range(len(lam)):  # one row at a time, up to the first that raises
                _base_eval(spec, *(None if x is None else x[i : i + 1] for x in base), want_d)
            raise
        cartan, phi = v[:, : rs.rank**2], v[:, rs.rank**2 :]  # views, updated in place
        for g, (lam_g, z_g) in zip(spec.gauge_stack, reversed(levels)):
            if g.kind == 1:
                cartan += g.c_matrix.reshape(-1)
            elif g.kind == 2:
                q, w = g.psi
                zc = z_g[:, None]
                factors = np.exp(zc * _pairings(rs.roots, _pairings(q, lam_g) + w))  # e^{z L_a psi}, per root
                if want_d:
                    d[:] = (d + phi[:, None, :] * (zc[:, None] * (rs.roots @ q).T)) * factors[:, None, :]
                cartan += np.multiply.outer(z_g, q.reshape(-1))
                phi *= factors
            elif g.kind == 4:
                a = g.scale[0]
                np.multiply(a, v, out=v)  # a * v, in the operand order that fixes its rounding
                if want_d:
                    np.multiply(a * a, d, out=d)
    return tuple(None if f is None else f.reshape(lead + f.shape[1:]) for f in (v, d))


class _Record(NamedTuple):
    """r at one (lam, z) as a vector on its support, with its Cartan-direction derivative.

    v holds the Cartan block M row-major, then the e_a (x) e_{-a}
    coefficient per root, the entries whose basis legs _legs gives.  d[k]
    is the root coefficients' derivative along the k-th Cartan coordinate
    (M is lam-independent, so v's derivative is zero on its Cartan block),
    or None when no derivative was asked for.  A record of a batch of
    arguments carries the batch's shape in front of both fields.
    """

    v: np.ndarray
    d: Optional[np.ndarray] = None


def _legs(g: SimpleLieAlgebra) -> tuple:
    """The basis indices (first leg, second leg) of each entry of a record's v."""
    rows, cols = g.root_pair_index()
    ci, cj = np.indices((g.rank, g.rank)).reshape(2, -1)
    return np.concatenate((ci, rows)), np.concatenate((cj, cols))


def _flip(g: SimpleLieAlgebra, rec: _Record, root: int) -> _Record:
    """rec, a record of g, with root's entry of v and of every d row negated
    (g gives the root count, which a record without d does not show).  Every
    gauge kind is linear in a root's entries and negation is exact, so this
    gives the values a flip at the family formula gives, and flipping twice
    restores rec bit for bit."""
    at = root - g.root_system.n_roots  # the root's position from the end, the same in v and in d
    return _Record(*(None if f is None else np.where(np.arange(-f.shape[-1], 0) == at, -f, f) for f in rec))


def _check_point(spec: RMatrixSpec, lam: np.ndarray, z) -> None:
    """SpecInvalid unless lam has the algebra's rank and z is given just for spectral specs."""
    rank, got = spec.algebra.rank, np.shape(lam)[-1] if np.ndim(lam) else 0
    if got != rank:
        raise SpecInvalid(f"lambda must have {rank} coordinates, got {got}")
    if spec.is_spectral and z is None:
        raise SpecInvalid(f"{spec.family} needs a spectral argument z")
    if not spec.is_spectral and z is not None:
        raise SpecInvalid(f"{spec.family} takes no z")


def _record(spec: RMatrixSpec, lam: np.ndarray, z, want_d: bool = False) -> _Record:
    """Evaluate spec at (lam, z), with the analytic derivative when want_d.

    lam and z may be batches, as for _evaluate, run in one _evaluate call.
    The derivative differentiates the closed-form coefficients (threaded
    through the gauge stack), where M is lam-independent.  The spec's
    debug_flip_root is applied to the result.  Raises SpecInvalid for a
    point of the wrong shape (see _check_point), NonFiniteValue naming lam
    and z of the first argument whose record has an inf or nan entry
    (_require_finite).
    """
    _check_point(spec, lam, z)
    lam = np.asarray(lam)
    z = None if z is None else np.asarray(z, dtype=complex)
    rec = _Record(*_evaluate(spec, lam, z, want_d))
    _require_finite("r-matrix record", lam, z, *(f for f in rec if f is not None))
    return rec if spec.debug_flip_root is None else _flip(spec.algebra, rec, spec.debug_flip_root)


def _require_finite(what: str, lam: np.ndarray, z, *values: np.ndarray) -> np.ndarray:
    """values[0], or NonFiniteValue naming `what` at lambda (and z) of the
    first point, in C order, where a value has an inf or nan entry: values[0]
    has one axis after the points' and lam (..., rank) broadcasts to them,
    as does z, with a trailing axis of its own where it has more axes."""
    lead = values[0].shape[:-1]
    finite = np.logical_and.reduce([np.isfinite(f).reshape(lead + (-1,)).all(axis=-1) for f in values])
    if np.all(finite):
        return values[0]
    i = int(np.argmin(finite))
    at = f"lambda {np.broadcast_to(lam, lead + lam.shape[-1:]).reshape(-1, lam.shape[-1])[i].tolist()}"
    if z is not None:
        z = np.asarray(z, dtype=complex)
        tail = z.shape[len(lead) :]  # a point's own arguments (a residual's triple), none for a record
        at += f", z {np.broadcast_to(z, lead + tail).reshape((-1,) + tail)[i].tolist()}"
    raise NonFiniteValue(f"{what} is not finite at {at}")


def _flat_legs(g: SimpleLieAlgebra) -> np.ndarray:
    """The flat (dim, dim) index of each entry of a record's v."""
    rows, cols = _legs(g)
    return rows * g.dim + cols


def _one_z(z):
    """z, or SpecInvalid unless it is None or one number: the public point
    functions take one point, and batches go through _record."""
    if np.ndim(z) != 0:
        raise SpecInvalid(f"z must be one complex number, got shape {np.shape(z)}")
    return z


def eval_rmatrix(spec: RMatrixSpec, lam: CartanVector, z: Optional[complex] = None) -> Tensor2:
    """Evaluate spec at lam, and at z for a spectral family."""
    g = spec.algebra
    return Tensor2._from_support(g, _flat_legs(g), _record(spec, lam.as_array(), _one_z(z)).v)


def eval_dlambda(spec: RMatrixSpec, lam: CartanVector, z: Optional[complex] = None) -> Tensor3:
    """Cartan-direction derivative tensor sum_i x_i (x) dr/dx_i.

    The first leg lives in the Cartan span; the closed-form coefficients
    are differentiated, threaded through the gauge stack.

    Raises
    ------
    SpecInvalid on a missing, extra or non-scalar z;
    PoleProximity near poles.
    """
    g = spec.algebra
    index = np.arange(g.rank)[:, None] * g.dim**2 + _flat_legs(g)[g.rank**2 :]  # (k, e_a, e_-a)
    return Tensor3._from_support(g, index.ravel(), _record(spec, lam.as_array(), _one_z(z), True).d.ravel())


def _is_integer(i) -> bool:
    """Whether i is an integer, bools excluded."""
    return isinstance(i, (int, np.integer)) and not isinstance(i, bool)


def _root_indices(values, what: str) -> list:
    """values (None for none) as Python ints; SpecInvalid for a non-integer entry."""
    out = []
    for i in () if values is None else values:
        if not _is_integer(i):
            raise SpecInvalid(f"{what} entries must be integers, got {i!r}")
        out.append(int(i))
    return out


def _require_root(rs, i, what: str) -> int:
    """i as a root index of rs, or SpecInvalid naming it as `what`."""
    if not _is_integer(i) or not 0 <= i < rs.n_roots:
        raise SpecInvalid(f"{what} must be a root index in [0, {rs.n_roots}), got {i!r}")
    return int(i)


def family_phi(spec: RMatrixSpec, lam: CartanVector, alpha: int, z: Optional[complex] = None) -> complex:
    """The family's own phi_alpha coefficient (identity-bearing form).

    For the constant eps-families this excludes the eps/2 contribution of
    the Casimir term, matching the functions the scalar triangle and ODE
    identities quantify over; for every other family it is the full
    e_alpha (x) e_{-alpha} coefficient.
    """
    k = spec.algebra.rank**2 + _require_root(spec.algebra.root_system, alpha, "alpha")
    return complex(_identity_phi(spec, _record(spec, lam.as_array(), _one_z(z)).v[k]))


def _identity_phi(spec: RMatrixSpec, phi):
    """phi (a coefficient or an array of them) in family_phi's form."""
    if spec.family in ("TrigCotanh", "TrigDegenerate"):
        return phi - complex(spec.debug_scale_omega) * complex(spec.eps) / 2
    return phi


def _reduced_periods(p1: complex, p2: complex) -> tuple:
    """A Lagrange-reduced basis b1, b2 of the lattice spanned by p1 and p2:
    |b1| <= |b2| and |Re(b2 / b1)| <= 1/2, so b1 is a shortest period."""
    b1, b2 = sorted((p1, p2), key=abs)
    while True:
        b2 = b2 - round((b2 / b1).real) * b1
        if abs(b2) >= abs(b1):
            return b1, b2
        b1, b2 = b2, b1


def _lattice_distance(w: np.ndarray, periods) -> np.ndarray:
    """Distance from each entry of w to the lattice spanned by 0, 1 or 2 periods.

    Two periods are first Lagrange-reduced (_reduced_periods): the cell
    they span then splits into two triangles that are not obtuse, so the
    lattice point nearest w is a corner of the cell that holds w.  The
    corners are visited one at a time into a running minimum, so the
    temporaries stay the size of w.
    """
    if not periods:
        return np.abs(w)
    if len(periods) == 1:
        p = periods[0]
        return np.abs(w - np.round((w / p).real) * p)
    b1, b2 = _reduced_periods(*periods)
    det = (b1.conjugate() * b2).imag
    x = np.floor((np.conj(w) * b2).imag / det)  # floor of w's coordinates in (b1, b2)
    y = np.floor((b1.conjugate() * w).imag / det)
    near = np.abs(w - (x * b1 + y * b2))
    for cx, cy in ((x, y + 1), (x + 1, y), (x + 1, y + 1)):  # the cell's other three corners
        np.minimum(near, np.abs(w - (cx * b1 + cy * b2)), out=near)
    return near


def pole_margin(spec: RMatrixSpec, lam: CartanVector, z: Optional[complex] = None) -> float:
    """Smallest distance of any coefficient denominator argument to its poles.

    The sampler scores its candidates the same way (_pole_margins) to reject
    points too close to a pole before evaluation; the distance is taken at
    the argument the gauge stack passes to the family formula, divided for
    the trig families by min(1, |eps|/2): below |eps| = 2, in the pairing.
    """
    z = None if _one_z(z) is None else np.full((1, 1), z, dtype=complex)
    return float(_pole_margins(spec, lam.as_array()[None], z)[0])


def _pole_margins(spec: RMatrixSpec, lam: np.ndarray, z=None) -> np.ndarray:
    """pole_margin per row of lam (k, rank) and z (k, m), each independent of
    its batch; a point of the wrong shape raises SpecInvalid, as in _record."""
    _check_point(spec, lam, z)
    lam_b, z_b = _arguments(spec, lam, z)[-1]
    w = _pairings(spec.algebra.root_system.roots, lam_b - spec.nu.as_array())[:, spec._pole_roots]
    fam = spec.family
    if fam in ("TrigCotanh", "TrigDegenerate"):
        unit = min(1.0, abs(complex(spec.eps)) / 2)  # below |eps| = 2, the pairing: residue 1 there
        w, periods = complex(spec.eps) / 2 * w / unit, (1j * math.pi / unit,)
    elif fam == "EllipticSpectral":
        w, periods = -w, (1 + 0j, complex(spec.tau))
    elif fam == "TrigSpectral":
        periods = (math.pi + 0j,)
    else:
        periods = ()
    if spec.is_spectral:
        w = np.concatenate((w, z_b), axis=1)
    return np.min(_lattice_distance(w, periods), axis=1, initial=math.inf)


# --- serialization ---------------------------------------------------------


def _c2j(c: complex):
    c = complex(c)
    return [c.real, c.imag]


def _j2c(v) -> complex:
    return complex(float(v[0]), float(v[1]))


def _mat2j(m: np.ndarray):
    return [[_c2j(x) for x in row] for row in np.asarray(m, dtype=complex)]


def _j2mat(rows) -> np.ndarray:
    return np.array([[_j2c(x) for x in row] for row in rows], dtype=complex)


def _gauge_to_json(g: GaugeRecord) -> dict:
    if g.kind == 1:
        return {"kind": 1, "c_matrix": _mat2j(g.c_matrix)}
    if g.kind == 2:
        return {"kind": 2, "psi": {"Q": _mat2j(g.psi[0]), "v": [_c2j(x) for x in g.psi[1]]}}
    if g.kind == 3:
        return {"kind": 3, "shift": [_c2j(x) for x in g.shift.coords]}
    return {"kind": 4, "scale": [_c2j(g.scale[0]), _c2j(g.scale[1])]}


def _gauge_from_json(d: dict) -> GaugeRecord:
    kind = d["kind"]
    if not _is_integer(kind) or kind not in (1, 2, 3, 4):
        return GaugeRecord(kind=kind)  # raises SpecInvalid naming the kind
    if kind == 1:
        return GaugeRecord(kind=1, c_matrix=_j2mat(d["c_matrix"]))
    if kind == 2:
        return GaugeRecord(kind=2, psi=(_j2mat(d["psi"]["Q"]), np.array([_j2c(x) for x in d["psi"]["v"]])))
    if kind == 3:
        return GaugeRecord(kind=3, shift=CartanVector(tuple(_j2c(x) for x in d["shift"])))
    return GaugeRecord(kind=4, scale=(_j2c(d["scale"][0]), _j2c(d["scale"][1])))


def spec_to_json(spec: RMatrixSpec) -> dict:
    """Lossless JSON document for the spec (complex numbers as [re, im])."""
    rs = spec.algebra.root_system
    return {
        "version": 1,
        "algebra": {"series": rs.series, "rank": rs.rank},
        "family": spec.family,
        "eps": _c2j(spec.eps),
        "nu": [_c2j(x) for x in spec.nu.coords],
        "X": list(spec.X),
        "polarization": list(spec.polarization),
        "C": _mat2j(spec.C),
        "tau": None if spec.tau is None else _c2j(spec.tau),
        "gauge_stack": [_gauge_to_json(g) for g in spec.gauge_stack],
        "debug_flip_root": spec.debug_flip_root,
        "debug_scale_omega": _c2j(spec.debug_scale_omega),
    }


def spec_from_json(doc: dict, algebra: SimpleLieAlgebra) -> RMatrixSpec:
    """Rebuild a spec from spec_to_json output over a compatible algebra.

    Raises
    ------
    SpecInvalid for a document that is not a JSON object, is for another
    algebra, misses a required key, holds a value of the wrong type,
    describes a spec that its family's rules reject, or holds a key that
    spec_to_json does not write for that spec, at any depth (a misspelled
    optional key would otherwise describe another spec).
    """
    if not isinstance(doc, dict):
        raise SpecInvalid(f"spec document must be a JSON object, got {type(doc).__name__}")
    rs = algebra.root_system
    try:
        want = doc.get("algebra", {})
        if (want.get("series"), want.get("rank")) != (rs.series, rs.rank):
            raise SpecInvalid(
                f"document is for {want.get('series')}{want.get('rank')}, got {rs.series}{rs.rank}"
            )
        spec = RMatrixSpec(
            algebra=algebra,
            family=doc["family"],
            eps=_j2c(doc["eps"]),
            nu=CartanVector(tuple(_j2c(x) for x in doc["nu"])),
            X=tuple(doc["X"]),
            polarization=tuple(doc["polarization"]),
            C=_j2mat(doc["C"]),
            tau=None if doc.get("tau") is None else _j2c(doc["tau"]),
            gauge_stack=tuple(_gauge_from_json(g) for g in doc.get("gauge_stack", ())),
            debug_flip_root=doc.get("debug_flip_root"),
            debug_scale_omega=_j2c(doc.get("debug_scale_omega", [1.0, 0.0])),
        )
    except KeyError as exc:
        raise SpecInvalid(f"spec document is missing key {exc}") from None
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise SpecInvalid(f"malformed spec document: {exc}") from None
    unknown = _unknown_keys(doc, spec_to_json(spec))
    if unknown:
        raise SpecInvalid(f"spec document has unknown key{'s' if len(unknown) > 1 else ''} {', '.join(unknown)}")
    return spec


def _unknown_keys(doc, written, where: str = "") -> list:
    """Each key of doc that written does not have, named with its place in
    the document: 'shfit' (in gauge_stack[0]).  Dicts are compared key by
    key and lists entry by entry, so gauge records and psi are read too."""
    if isinstance(doc, dict) and isinstance(written, dict):
        found = []
        for key, value in doc.items():
            if key not in written:
                found.append(f"{key!r} (in {where})" if where else repr(key))
            else:
                found += _unknown_keys(value, written[key], f"{where}.{key}" if where else f"{key}")
        return found
    if isinstance(doc, (list, tuple)) and isinstance(written, list):
        return [key for i, pair in enumerate(zip(doc, written)) for key in _unknown_keys(*pair, f"{where}[{i}]")]
    return []
