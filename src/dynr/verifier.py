"""Residual computation, axiom checks, and cross-validation runs.

Everything here consumes an RMatrixSpec and produces either raw residual
tensors or a structured VerificationReport.  Sampling is seeded and
rejects points too close to coefficient poles, so reports are
reproducible byte for byte (modulo the wall-time field).
"""

from __future__ import annotations

import cmath
import math
import random
import time
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .combinatorics import is_closed_subset
from .errors import NonFiniteValue, SamplingExhausted, SpecInvalid, SubalgebraInvalid
from .lie_core import CartanVector, SimpleLieAlgebra, _join, _json_sha256, _sorted_column
from .rmatrix import (
    SPECTRAL_FAMILIES,
    GaugeRecord,
    RMatrixSpec,
    _flat_legs,
    _flip,
    _legs,
    _pole_margins,
    _record,
    _Record,
    _reduced_periods,
    effective_coupling,
    gauge_apply,
    spec_to_json,
)
from .special_fn import ThetaParams, classical_series
from .tensor_alg import Tensor2, Tensor3

_ZERO_WEIGHT_TOL = 1e-12
_UNITARITY_TOL = 1e-11
_RESIDUE_TOL = 1e-8
_RESIDUAL_TOL_ANALYTIC = 1e-8
_SKEW_TOL = 1e-10
_RESIDUAL_WEIGHT_TOL = 1e-11
_CONTROL_THRESHOLD = 1e-3
# terms per residual-kernel pass (16 bytes each), so its temporaries stay in cache:
# unbounded passes over 40 points ran 2.5x (E7), 2.7x (E8) slower on a 2-vCPU Xeon
_KERNEL_TERMS = 2**16
_BLOCK_ROWS = 1024  # keeps a rarely accepted plan's margin arrays small (E8 elliptic: 1 in 2000)
_CHUNK = 10  # campaign points per run at least: the default sample count, so a default campaign is one run
_RUN_ENTRIES = 2048  # or, if more, as many as hold this many record entries (rank**2 + roots a point): 20 MiB elliptic


def _holds(value, test) -> bool:
    """test(value) for a plan field; False where value is complex (numpy
    orders complex numbers) or test raises on a value that is not a real
    number or a box that is not a (lo, hi) pair."""
    try:
        return not np.iscomplexobj(value) and bool(test(value))
    except (TypeError, ValueError, LookupError):
        return False


@dataclass(frozen=True)
class SamplePlan:
    """Seeded sampling policy for verification runs.

    Candidates come from random.Random(int(seed)).  box bounds apply to
    both the real and imaginary part of every lambda coordinate; z_box
    likewise for each spectral point.  Points whose pole_margin falls below
    the floor are redrawn, up to max_resamples per requested sample.
    """

    seed: int = 42
    count: int = 10
    box: tuple = (-2.0, 2.0)
    z_box: tuple = (-0.6, 0.6)
    pole_margin: float = 0.1
    max_resamples: int = 500

    def __post_init__(self):
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise SpecInvalid("seed must be a non-negative integer")
        for name, value in (("sample count", self.count), ("max_resamples", self.max_resamples)):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise SpecInvalid(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise SpecInvalid(f"{name} must be >= 1")
        if not _holds(self.pole_margin, lambda m: 0 < m < math.inf):
            raise SpecInvalid("pole_margin must be finite and positive")
        for name, box in (("box", self.box), ("z_box", self.z_box)):
            if not _holds(box, lambda b: len(b) == 2 and b[0] < b[1] and math.isfinite(b[1] - b[0])):
                raise SpecInvalid(f"{name} must be a finite increasing (lo, hi) pair")  # drawn as lo + (hi - lo) * u


@dataclass(frozen=True)
class CheckResult:
    name: str
    tolerance: float
    residuals: tuple
    n_samples: int

    @property
    def max_residual(self) -> float:
        return max(self.residuals) if self.residuals else 0.0

    @property
    def passed(self) -> bool:
        return self.n_samples > 0 and self.max_residual <= self.tolerance


@dataclass
class VerificationReport:
    spec_id: str
    algebra_id: str
    seed: int
    checks: list
    samples_used: int
    wall_time: float
    version: int = 1

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self, include_timing: bool = True) -> dict:
        doc = {
            "version": self.version,
            "spec": self.spec_id,
            "algebra": self.algebra_id,
            "seed": self.seed,
            "samples_used": self.samples_used,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "tolerance": c.tolerance,
                    "max_residual": c.max_residual,
                    "n_samples": c.n_samples,
                    "pass": c.passed,
                }
                for c in self.checks
            ],
        }
        if include_timing:
            doc["wall_time"] = self.wall_time
        return doc


def spec_digest(spec: RMatrixSpec) -> str:
    """Short stable identifier: family name plus a hash of the spec JSON,
    taken once and kept on the spec, which is immutable."""
    if "_digest" not in vars(spec):
        digest = _json_sha256(spec_to_json(spec), sort_keys=True)
        object.__setattr__(spec, "_digest", f"{spec.family}:{digest[:12]}")
    return spec._digest


def _draw_vector(rng: random.Random, k: int, box, im_box, z_box, n_z: int, rank: int):
    """k candidates (lambda (k, rank), z (k, n_z)) from rng's next k rows of
    doubles, a row holding a serial uniform draw's in order: Re, Im lambda in
    box, im_box; Re, Im z in z_box.  uniform(lo, hi) is lo + (hi - lo) * random()."""
    u = np.fromiter(iter(rng.random, None), float, k * (2 * rank + 2 * n_z)).reshape(k, -1)
    (lo, hi), (im_lo, im_hi), (z_lo, z_hi) = box, im_box, z_box
    lam = lo + (hi - lo) * u[:, :rank] + 1j * (im_lo + (im_hi - im_lo) * u[:, rank : 2 * rank])
    z = z_lo + (z_hi - z_lo) * u[:, 2 * rank :]  # Re and Im z share z_box
    return lam, z[:, :n_z] + 1j * z[:, n_z:]


def _campaign_points(specs: Sequence[RMatrixSpec], plan: SamplePlan, n_z: int):
    """The plan's points, lambda (count, rank) and z (count, n_z) or None for
    n_z = 0, clear of every spec's poles by the plan's margin: with no z for
    n_z = 0, at z for n_z = 1, at z12, z13, z23 for n_z = 3.  Every pole set
    in z is a lattice, and its distance at -w is the one at w bit for bit,
    so -z12, -z13, -z23, where unitarity's reflections evaluate, are as
    clear.  Im(lambda) keeps to half the z_box when any spec is elliptic:
    theta quotients grow double-exponentially in it.

    Candidate blocks are scored at once and walked in stream order, so the
    points are a one-candidate loop's; a point fails after max_resamples
    rejections in a row.  The stream, random.Random(int(plan.seed)), is
    discarded afterwards, so a block may read past the last point: it
    starts at count rows and doubles on refill, up to _BLOCK_ROWS.
    """
    count, rng = plan.count, random.Random(int(plan.seed))
    block = min(count, _BLOCK_ROWS)
    im_box = tuple(0.5 * b for b in plan.z_box) if any(s.family == "EllipticSpectral" for s in specs) else plan.box
    points, misses = [], 0
    while len(points) < count:
        lam, zs = _draw_vector(rng, block, plan.box, im_box, plan.z_box, n_z, specs[0].algebra.rank)
        w = zs[:, [0, 0, 1]] - zs[:, [1, 2, 2]] if n_z == 3 else zs if n_z else None
        ok = np.logical_and.reduce([_pole_margins(s, lam, w) >= plan.pole_margin for s in specs])
        for i, hit in enumerate(ok.tolist()):
            misses = 0 if hit else misses + 1
            if misses == plan.max_resamples:
                raise SamplingExhausted(
                    f"no sample point with pole margin {plan.pole_margin} "
                    f"in {plan.max_resamples} draws"
                )
            if hit:
                points.append((lam[i], zs[i]))
                if len(points) == count:
                    break
        block = min(2 * block, _BLOCK_ROWS)
    lam, zs = (np.array(x) for x in zip(*points))
    return lam, zs if n_z else None


def _walk(specs: Sequence[RMatrixSpec], plan: SamplePlan, n_z: int):
    """The plan's points (_campaign_points) as (lam, zs) runs, in order, so
    a campaign holds one run's records and residuals at a time."""
    lam, zs = _campaign_points(specs, plan, n_z)
    step = max(_CHUNK, _RUN_ENTRIES // (specs[0].algebra.rank**2 + specs[0].algebra.root_system.n_roots))
    for i in range(0, len(lam), step):
        yield lam[i : i + step], None if zs is None else zs[i : i + step]


@dataclass(frozen=True)
class _ResidualPlan:
    """Index lists that assemble the CDYBE residual on its weight-zero support.

    An r record enters as its vector v, a derivative record as d, v's root
    entries once per Cartan index k in front.  The six residual inputs r12,
    r13, r23, d23, d31, d12 are concatenated in that order, followed by a
    1.  Term t adds coef[t] * values[src_x[t]] * values[src_y[t]] to the
    residual entry slot[t]: bracket terms multiply two r entries by a
    structure constant, Alt(dr) terms multiply a derivative entry by the
    trailing 1.  w3 holds the sorted flat (dim, dim, dim) indices of the
    residual entries the terms reach; every one has weight zero.

    weight[e] is the largest |the sum of the Cartan weights of w3[e]'s legs|
    over the Cartan basis vectors.  swap[e] is the position in w3 of w3[e]
    with legs 1 and 2 exchanged, valid where hit[e] is true.
    """

    w3: np.ndarray
    src_x: np.ndarray
    src_y: np.ndarray
    coef: np.ndarray
    slot: np.ndarray
    weight: np.ndarray
    swap: np.ndarray
    hit: np.ndarray

    def weight_norm(self, w: np.ndarray) -> np.ndarray:
        """Largest sup norm of the diagonal action of a Cartan basis vector
        on w, per row of w.  Rounding is monotone, so the largest product of
        an entry with its weights is the entry times its largest weight."""
        return np.max(np.abs(w) * self.weight, axis=-1)

    def skew_norm(self, w: np.ndarray) -> np.ndarray:
        """Sup norm of w plus w with legs 1 and 2 exchanged, per row of w; a
        swap outside the support is 0."""
        return np.abs(np.where(self.hit, w + np.take(w, self.swap, axis=-1), w)).max(axis=-1)


def _build_residual_plan(g: SimpleLieAlgebra) -> _ResidualPlan:
    """The residual plan of g, from its structure-constant lists."""
    rank, dim = g.rank, g.dim
    legs = _legs(g)  # the basis index of each leg of each entry of a record's v
    n2 = len(legs[0])
    root_legs = [leg[rank * rank :] for leg in legs]  # the entries of a d row
    d_legs = (np.repeat(np.arange(rank), len(root_legs[0])), *(np.tile(leg, rank) for leg in root_legs))
    n3 = len(d_legs[0])
    fi, fj, fk, fv = g.structure_constants

    src_x, src_y, coef, coords = [], [], [], []
    # [x, y] on one shared leg: (x offset, x's bracketed leg, y offset,
    # y's bracketed leg, output position of the bracket) for the placements
    # 12-13, 12-23 and 13-23; the unbracketed legs keep their order.
    for x_off, lx, y_off, ly, at in ((0, 0, n2, 0, 0), (0, 1, 2 * n2, 0, 1), (n2, 1, 2 * n2, 1, 2)):
        e, t = _join(fi, _sorted_column(legs[lx], dim))
        keep, u = _join(fj[e], _sorted_column(legs[ly], dim))
        e, t = e[keep], t[keep]
        out = [legs[1 - lx][t], legs[1 - ly][u]]
        out.insert(at, fk[e])
        src_x.append(x_off + t)
        src_y.append(y_off + u)
        coef.append(fv[e])
        coords.append(out)
    # Alt(dr) = x^(1) (dr)^{23} + x^(2) (dr)^{31} + x^(3) (dr)^{12}: the
    # derivative entry (k, a, b) lands at (k, a, b), (b, k, a) and (a, b, k)
    one = 3 * n2 + 3 * n3
    k, a, b = d_legs
    for n, out in enumerate(([k, a, b], [b, k, a], [a, b, k])):
        src_x.append(3 * n2 + n * n3 + np.arange(n3))
        src_y.append(np.full(n3, one))
        coef.append(np.ones(n3))
        coords.append(out)

    flat = np.concatenate([(c0 * dim + c1) * dim + c2 for c0, c1, c2 in coords])
    w3, slot = np.unique(flat, return_inverse=True)
    w3.flags.writeable = False  # every cdybe_residual result shares it as its index
    return _ResidualPlan(
        w3,
        np.concatenate(src_x),
        np.concatenate(src_y),
        np.concatenate(coef),
        slot,
        *_support_maps(g, w3),
    )


def _support_maps(g: SimpleLieAlgebra, support: np.ndarray, legs: int = 3):
    """(weight, swap, hit) of _ResidualPlan for a sorted support of flat
    (dim,) * legs indices: swap exchanges legs 1 and 2."""
    shape = (g.dim,) * legs
    idx = np.unravel_index(support, shape)
    swapped = np.ravel_multi_index((idx[1], idx[0], *idx[2:]), shape)
    swap = np.minimum(np.searchsorted(support, swapped), len(support) - 1)
    leg_weight = np.hstack([np.zeros((g.rank, g.rank)), g.root_system.roots.T])  # basis index -> Cartan weights
    return np.abs(sum(leg_weight[:, leg] for leg in idx)).max(axis=0), swap, support[swap] == swapped


def _residual_plan(g: SimpleLieAlgebra) -> _ResidualPlan:
    """The algebra's residual plan, built on first use and kept on the instance."""
    if g._residual_plan is None:
        g._residual_plan = _build_residual_plan(g)
    return g._residual_plan


def _cdybe_from(g: SimpleLieAlgebra, rec: _Record, roles: tuple) -> np.ndarray:
    """Alt(dr) + [r12,r13] + [r12,r23] + [r13,r23] as a vector on the plan's w3.

    rec is one record batch whose last leading axis holds each point's
    distinct arguments; roles names the argument that gives r12, r13, r23
    and the lambda-derivatives d23, d31, d12.  The symmetrized derivative
    term places the Cartan leg cyclically: x^(1) (dr)^{23} + x^(2)
    (dr)^{31} + x^(3) (dr)^{12}.  Each point gives one row, from one bincount
    of a pass's terms as (real, imag) float pairs, point p's term t in bins
    2 (p len(w3) + slot[t]) and the next, which adds each row's terms in the
    order a single point's would; a pass takes as many points as
    _KERNEL_TERMS allows.  Overflow yields inf or nan entries without a
    warning; callers test them.
    """
    plan = _residual_plan(g)
    lead = rec.v.shape[:-2]
    n, size = math.prod(lead), len(plan.w3)
    rows = min(n, max(1, _KERNEL_TERMS // len(plan.slot)))
    v = rec.v.reshape((n,) + rec.v.shape[-2:])[:, roles[:3]]
    d = rec.d.reshape((n,) + rec.d.shape[-3:])[:, roles[3:]]
    values = np.concatenate((v.reshape(n, -1), d.reshape(n, -1), np.ones((n, 1), dtype=complex)), axis=1)
    if len(vars(plan).get("_bins", ())) < 2 * rows * len(plan.slot):  # kept on the plan; fewer rows read a prefix
        real = 2 * (plan.slot + size * np.arange(rows)[:, None])
        object.__setattr__(plan, "_bins", np.stack((real, real + 1), axis=-1).ravel())
    w = np.empty((n, size), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, n, rows):
            x = values[i : i + rows]
            terms = x.take(plan.src_x, axis=1)  # in place, as coef * x * y
            terms *= plan.coef
            terms *= x.take(plan.src_y, axis=1)
            k = len(x)
            sums = np.bincount(plan._bins[: 2 * terms.size], terms.view(float).ravel(), 2 * k * size)
            w[i : i + k] = sums.view(complex).reshape(k, size)
    return w.reshape(lead + (size,))


def _point_records(spec: RMatrixSpec, lam: np.ndarray, zs=None) -> tuple:
    """(record, roles) for _cdybe_from at the points lam (..., rank), with the
    spectral triples zs (..., 3) when given, all points in one call.

    A constant point has one argument, which serves every leg pair.  A
    spectral triple pairs the legs at z12, z13, z23 and takes the
    derivatives at z23, z31, z12, so its arguments are z12, z13, z23, z31.
    """
    if zs is None:
        return _record(spec, lam[..., None, :], None, True), (0,) * 6
    zs = np.asarray(zs, dtype=complex)
    args = zs[..., [0, 0, 1, 2]] - zs[..., [1, 2, 2, 0]]  # z12, z13, z23, z31 = -z13
    return _record(spec, lam[..., None, :], args, True), (0, 1, 2, 2, 3, 0)


def _residual(spec: RMatrixSpec, lam: np.ndarray, zs=None) -> np.ndarray:
    """The CDYBE residual of spec at the points lam (..., rank) (spectral specs:
    at the triples zs (..., 3)), one vector on the plan's w3 per point, from
    _point_records.  Raises NonFiniteValue when an entry overflows."""
    if spec.is_spectral and np.shape(zs)[-1:] != (3,):
        raise SpecInvalid(f"{spec.family} residual needs a (z1, z2, z3) triple")
    return _require_finite(_cdybe_from(spec.algebra, *_point_records(spec, lam, zs)), lam, zs)


def _require_finite(w: np.ndarray, lam: np.ndarray, zs=None) -> np.ndarray:
    """w, or NonFiniteValue naming the first point whose row has an inf or nan."""
    bad = ~np.isfinite(w).all(axis=-1)
    if np.any(bad):
        i = int(np.argmax(bad))
        at = f"lambda {np.reshape(lam, (-1, lam.shape[-1]))[i].tolist()}"
        if zs is not None:
            at += f", z {np.reshape(np.asarray(zs, dtype=complex), (-1, 3))[i].tolist()}"
        raise NonFiniteValue(f"CDYBE residual is not finite at {at}")
    return w


def _sup(w: np.ndarray) -> float:
    return float(np.max(np.abs(w)))


def cdybe_residual(spec: RMatrixSpec, lam: CartanVector, zs=None) -> Tensor3:
    """Alt(dr) + [r12,r13] + [r12,r23] + [r13,r23] at lam, and for a spectral
    spec at the triple zs = (z1, z2, z3): the legs pair at the argument
    differences z12, z13, z23 and the derivatives at z23, z31, z12.  The
    result holds the entries on the residual plan's weight-zero support."""
    g = spec.algebra
    return Tensor3._from_support(g, _residual_plan(g).w3, _residual(spec, lam.as_array(), zs))


def _residue_radius(spec: RMatrixSpec) -> float:
    """Radius of the campaign's residue contour: 0.05, or a tenth of the
    shortest period of an elliptic spec's pole lattice in z when that is
    less.  The 16-point average aliases Laurent terms of relative size
    (radius / shortest period)**16, so they stay at round-off."""
    if spec.family != "EllipticSpectral":
        return 0.05
    b = math.prod(complex(g.scale[1]) for g in spec.gauge_stack if g.kind == 4)  # the family reads b * z
    shortest, _ = _reduced_periods(1 / b, spec.tau / b)
    return min(0.05, 0.1 * abs(shortest))


def _contour(radius: float, points: int) -> np.ndarray:
    return radius * np.exp(2j * math.pi * np.arange(points) / points)


def _residue(g: SimpleLieAlgebra, zj: np.ndarray, v: np.ndarray):
    """The contour average (1/len(zj)) sum_j z_j r(z_j) as a record vector,
    the eps estimate and the deviation (see extract_residue), per index in
    front of the contour axis, the last leading axis of v.  The sum runs
    over the contour in order, so a point's values do not depend on its
    batch or on v's layout."""
    omega = _axiom_tables(g)[1]
    acc = sum(w * v[..., j, :] for j, w in enumerate(zj)) / len(zj)
    eps_est = (acc * omega).sum(axis=-1) / omega.sum()
    return acc, eps_est, np.abs(acc - eps_est[..., None] * omega).max(axis=-1)


def extract_residue(
    spec: RMatrixSpec,
    lam: CartanVector,
    radius: Optional[float] = None,
    points: int = 16,
):
    """Contour average (1/M) sum_j z_j r(lam, z_j) over a circle at 0.

    Returns (residue tensor, eps estimate from projection onto the
    invariant tensor, sup deviation from that multiple).  The radius
    defaults to the campaign's (_residue_radius), a tenth of the shortest
    period of an elliptic pole lattice at most, so aliasing picks up only
    Laurent terms of relative size (radius / period)**M, negligible there.
    """
    if spec.family not in SPECTRAL_FAMILIES:
        raise SpecInvalid("residue extraction needs a spectral family")
    if points < 4:
        raise SpecInvalid("need at least 4 contour points")
    zj = _contour(_residue_radius(spec) if radius is None else radius, points)
    acc, eps_est, deviation = _residue(spec.algebra, zj, _record(spec, lam.as_array(), zj).v)
    return Tensor2._from_support(spec.algebra, _flat_legs(spec.algebra), acc), complex(eps_est), float(deviation)


def _axiom_checks(spec: RMatrixSpec, lam: np.ndarray, zs=None, r: Optional[np.ndarray] = None) -> list:
    """Zero-weight and unitarity, plus the residue for spectral specs, at
    the campaign points lam (n, rank) and zs (n, 3).

    r is the record vector v at each point (at z12 for a spectral triple);
    without it, r is evaluated.  Spectral specs evaluate the reflections
    r(-z12) and the residue contours, and r with them, in one call.

    A record holds only Cartan x Cartan entries, of weight zero, and one
    (e_a, e_{-a}) entry per root, of weight a + (-a).  Constant unitarity
    compares r + r^T with eps times the invariant tensor; spectral
    unitarity compares r(z) + r(-z)^T with 0.
    """
    swap, omega, weight = _axiom_tables(spec.algebra)
    eps = effective_coupling(spec)
    n = len(lam)
    checks = []
    if spec.is_spectral:
        z12 = (zs[:, 0] - zs[:, 1])[:, None]
        zj = _contour(_residue_radius(spec), 16)
        args = [z12] * (r is None) + [-z12, np.broadcast_to(zj, (n, len(zj)))]
        values = _record(spec, lam[:, None], np.hstack(args)).v
        r = values[:, 0] if r is None else r
        dev = r + values[:, -1 - len(zj), swap]
        _, eps_est, res = _residue(spec.algebra, zj, values[:, -len(zj) :])
        checks.append(CheckResult("residue", _RESIDUE_TOL, tuple(np.maximum(res, np.abs(eps_est - eps)).tolist()), n))
    else:
        r = _record(spec, lam, None).v if r is None else r
        dev = r + r[:, swap] - eps * omega
    return [
        CheckResult("zero-weight", _ZERO_WEIGHT_TOL, tuple(np.max(np.abs(r) * weight, axis=-1).tolist()), n),
        CheckResult("unitarity", _UNITARITY_TOL, tuple(np.abs(dev).max(axis=-1).tolist()), n),
    ] + checks


def _axiom_tables(g: SimpleLieAlgebra) -> tuple:
    """Per entry of a record's v: the entry with its legs exchanged, the
    invariant tensor (1 on the Cartan diagonal and on every (e_a, e_{-a})
    entry) and the largest Cartan weight of its two legs; kept on g."""
    if g._axiom_tables is None:
        rows, cols = _legs(g)
        # the record support is sorted and holds every swap, so hit is all true
        weight, swap, _ = _support_maps(g, rows * g.dim + cols, 2)
        g._axiom_tables = (swap, ((rows == cols) | (rows >= g.rank)).astype(float), weight)
    return g._axiom_tables


def _residual_checks(spec: RMatrixSpec, lam: np.ndarray, zs, rec: _Record, roles: tuple, control: bool) -> list:
    """CDYBE residual, its weight and (constant specs) its 1<->2 skew from
    the _point_records of the campaign points lam and zs, then, if control,
    the negative control at the first point, its records joining the
    campaign's as row n of one kernel call (rows are independent bit for bit).

    The control sets the first point's root flip to the first positive root
    whose coefficient, the record entry the flip negates, is nonzero there,
    undoing the spec's own debug_flip_root, and records threshold/residual,
    so its value is <= 1 exactly when the perturbation is loud; it is
    omitted when there is no such root.  Each residual stays a vector on w3.
    """
    g = spec.algebra
    plan = _residual_plan(g)
    n = len(lam)
    positive = g.rank**2 + np.array(g.root_system.positive_roots)  # their entries in v
    live = np.flatnonzero(np.abs(rec.v[0, roles[0], positive]) > 1e-12) if control else []
    if len(live):
        first = _Record(rec.v[:1], rec.d[:1])
        if spec.debug_flip_root is not None:
            first = _flip(first, g.rank**2 + spec.debug_flip_root)
        rec = _Record(*map(np.concatenate, zip(rec, _flip(first, positive[live[0]]))))  # the control as row n
    w_all = _cdybe_from(g, rec, roles)
    w = _require_finite(w_all[:n], lam, zs)
    checks = [
        CheckResult("cdybe-residual", _RESIDUAL_TOL_ANALYTIC, tuple(np.abs(w).max(axis=-1).tolist()), n),
        CheckResult("residual-weight-zero", _RESIDUAL_WEIGHT_TOL, tuple(plan.weight_norm(w).tolist()), n),
    ]
    if not spec.is_spectral:
        checks.append(CheckResult("residual-skew", _SKEW_TOL, tuple(plan.skew_norm(w).tolist()), n))
    if len(live):
        sup = _sup(_require_finite(w_all[n:], lam[0], None if zs is None else zs[0]))
        margin = _CONTROL_THRESHOLD / sup if sup > 0 else math.inf
        checks.append(CheckResult("negative-control-margin", 1.0, (margin,), 1))
    return checks


def _report(spec: RMatrixSpec, plan: SamplePlan, runs: list, t0: float) -> VerificationReport:
    """Report for the checks of the plan's runs of points, one list per run,
    timed from t0: per check name, in first-seen order, the runs' residuals
    in point order and their sample counts summed."""
    by_name = {}
    for c in (c for checks in runs for c in checks):
        by_name.setdefault(c.name, []).append(c)
    rs = spec.algebra.root_system
    return VerificationReport(
        spec_id=spec_digest(spec),
        algebra_id=f"{rs.series}{rs.rank}",
        seed=plan.seed,
        checks=[
            CheckResult(name, cs[0].tolerance, sum((c.residuals for c in cs), ()), sum(c.n_samples for c in cs))
            for name, cs in by_name.items()
        ],
        samples_used=plan.count,
        wall_time=time.perf_counter() - t0,
    )


def check_axioms(spec: RMatrixSpec, plan: SamplePlan, stage: Optional[str] = None) -> VerificationReport:
    """Zero-weight, unitarity and residue (stage "axioms"), then the CDYBE
    residual, its weight and skew and the negative control (stage "residual"), by default both.

    Each seeded sample argument is evaluated once, a run of points (_walk)
    per batch: the axiom stage, the residual stage and its negative control
    (first run only) read the same _point_records, and spectral specs add
    one value-only batch for the reflections and residue contours.
    """
    if stage not in (None, "axioms", "residual"):
        raise SpecInvalid(f"unknown check stage {stage!r}")
    t0 = time.perf_counter()
    runs = []
    for lam, zs in _walk((spec,), plan, 3 if spec.is_spectral else 0):
        if stage == "axioms":
            runs.append(_axiom_checks(spec, lam, zs))
            continue
        rec, roles = _point_records(spec, lam, zs)
        checks = [] if stage == "residual" else _axiom_checks(spec, lam, zs, rec.v[:, roles[0]])
        runs.append(checks + _residual_checks(spec, lam, zs, rec, roles, control=not runs))
    return _report(spec, plan, runs, t0)


@dataclass(frozen=True)
class LimitSchedule:
    """Parameter path for limit comparisons.

    parameter "tau": values are modular parameters substituted into an
    elliptic spec.  parameter "nu-ray": values are real weights t and the
    shift becomes base + t * ray.
    """

    parameter: str
    values: tuple
    base: Optional[CartanVector] = None
    ray: Optional[CartanVector] = None

    def __post_init__(self):
        if self.parameter not in ("tau", "nu-ray"):
            raise SpecInvalid(f"unknown schedule parameter {self.parameter!r}")
        if len(self.values) < 2:
            raise SpecInvalid("schedule needs at least two values")
        if any(a == b for a, b in zip(self.values, self.values[1:])):
            raise SpecInvalid("schedule repeats a value; consecutive values must differ")
        if self.parameter == "nu-ray" and (self.base is None or self.ray is None):
            raise SpecInvalid("nu-ray schedule needs base and ray vectors")


@dataclass(frozen=True)
class LimitComparison:
    cauchy: tuple
    final_deviation: Optional[float]
    n_samples: int

    @property
    def max_deviation(self) -> float:
        return self.final_deviation if self.final_deviation is not None else self.cauchy[-1]


def _spec_on_schedule(spec: RMatrixSpec, schedule: LimitSchedule, value) -> RMatrixSpec:
    if schedule.parameter == "tau":
        return replace(spec, tau=complex(value))
    shift = CartanVector.of(
        schedule.base.as_array() + float(value) * schedule.ray.as_array()
    )
    return replace(spec, nu=shift)


def limit_compare(
    spec_a: RMatrixSpec,
    schedule: LimitSchedule,
    spec_b: Optional[RMatrixSpec],
    plan: SamplePlan,
) -> LimitComparison:
    """Evaluate spec_a along the schedule; report Cauchy gaps and, when a
    target spec_b is given, the final sup deviation from it.

    Deviations are sup norms over a seeded sample grid valid for every
    scheduled spec (and the target).
    """
    staged = [_spec_on_schedule(spec_a, schedule, v) for v in schedule.values]
    probes = staged + ([spec_b] if spec_b is not None else [])
    spectral = {s.family in SPECTRAL_FAMILIES for s in probes}
    if len(spectral) != 1:
        raise SpecInvalid("cannot mix constant and spectral specs in a limit")
    spectral = spectral.pop()
    gaps = []  # per run, the sup gap between each probe and the next
    for lam, zs in _walk(probes, plan, 1 if spectral else 0):
        values = [_record(s, lam, None if zs is None else zs[:, 0]).v for s in probes]
        gaps.append([_sup(a - b) for a, b in zip(values, values[1:])])
    gaps = np.max(gaps, axis=0).tolist()
    final = gaps.pop() if spec_b is not None else None
    return LimitComparison(cauchy=tuple(gaps), final_deviation=final, n_samples=plan.count)


def _closure_of_pair_roots(rs, l_positive: Sequence[int]) -> tuple:
    pos = sorted({int(i) for i in l_positive})
    for i in pos:
        if not rs.is_positive(i):
            raise SubalgebraInvalid(f"root index {i} is not positive")
    members = set(pos) | {rs.neg(i) for i in pos}
    if not is_closed_subset(rs, members):
        raise SubalgebraInvalid(
            "root set is not closed under addition; not a reductive subalgebra"
        )
    return tuple(sorted(members))


def reduce_pair_check(
    spec_tilde: RMatrixSpec,
    l_positive_roots: Sequence[int],
    plan: SamplePlan,
) -> VerificationReport:
    """Pair-reduction consistency run.

    Builds the projector part rho from the subalgebra's roots, splits the
    input as rest = r_tilde - rho, reassembles r_tilde = rest + rho from
    the pieces, and checks the reassembled function against the constant
    CDYBE; rho alone is checked at the tighter projector tolerance.
    """
    if spec_tilde.family in SPECTRAL_FAMILIES:
        raise SpecInvalid("pair reduction is stated for constant specs")
    g = spec_tilde.algebra
    members = _closure_of_pair_roots(g.root_system, l_positive_roots)
    rho_spec = RMatrixSpec(algebra=g, family="RationalConstant", X=members)

    t0 = time.perf_counter()
    runs = []
    for lam, _ in _walk((spec_tilde, rho_spec), plan, 0):
        rho, roles = _point_records(rho_spec, lam)
        tilde, _ = _point_records(spec_tilde, lam)
        total = _Record(*((t - r) + r for t, r in zip(tilde, rho)))  # rest = r_tilde - rho, then rest + rho
        w = _cdybe_from(g, _Record(*map(np.concatenate, zip(rho, total))), roles)  # rho's rows, then the sum's
        rho_norms, sum_norms = (np.abs(_require_finite(x, lam)).max(axis=-1).tolist() for x in np.split(w, 2))
        runs.append([
            CheckResult("projector-cdybe", 1e-9, tuple(rho_norms), len(lam)),
            CheckResult("pair-sum-cdybe", _RESIDUAL_TOL_ANALYTIC, tuple(sum_norms), len(lam)),
        ])
    return _report(spec_tilde, plan, runs, t0)


def affine_hat_spec(algebra: SimpleLieAlgebra, tau: complex) -> RMatrixSpec:
    """Closed form of the loop-algebra series: a 1/(pi i) rescale (kind 4)
    of the elliptic spectral family at the same modular parameter."""
    base = RMatrixSpec(algebra=algebra, family="EllipticSpectral", tau=tau)
    return gauge_apply(base, GaugeRecord(kind=4, scale=(1.0 / (1j * math.pi), 1.0)))


def affine_series_check(
    lam: CartanVector,
    tau: complex,
    z: complex,
    n_terms: int,
    algebra: Optional[SimpleLieAlgebra] = None,
) -> float:
    """Sup deviation between the truncated loop-algebra series and the
    closed-form evaluation, over all coefficient entries.

    The series route sums u^n (1 + coth(a + pi i tau n)) coefficientwise
    with u = e^{2 pi i z}; the closed route evaluates the kind-4 rescaled
    elliptic spec.  Raises ConvergenceFailure outside the series annulus.
    """
    if algebra is None:
        from .lie_core import build_root_system, build_simple_lie_algebra

        algebra = build_simple_lie_algebra(build_root_system("A", 1))
    rs = algebra.root_system
    if len(lam.coords) != rs.rank:
        raise SpecInvalid("lambda rank does not match the algebra")
    params = ThetaParams(tau=tau)
    u = cmath.exp(2j * math.pi * complex(z))
    series = np.zeros(rs.rank**2 + rs.n_roots, dtype=complex)  # as a record's v
    series[: rs.rank**2 : rs.rank + 1] = classical_series("rho-sum", u, 0.0, params, n_terms)
    series[rs.rank**2 :] = classical_series("sigma-sum", u, rs.roots @ lam.as_array(), params, n_terms)
    return _sup(series - _record(affine_hat_spec(algebra, tau), lam.as_array(), complex(z)).v)
