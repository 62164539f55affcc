"""Test oracles: the dense leg calculus, the one-candidate sampler, finite
differences and the paper's scalar identities.

The library checks the CDYBE on the residual's weight-zero support and
never forms a dense structure-constant table.  The tests check it against
the independent dense calculus kept here:

- bracket_table(g) is the dense tensor f[i, j, k] with [b_i, b_j] =
  sum_k f[i, j, k] b_k, built once per algebra and cached here, never on
  the algebra;
- bracket_legs contracts two 2-tensors through the Lie bracket on a shared
  leg placement, alt3 sums a 3-tensor over cyclic leg rotations, and
  act_diag applies an element diagonally (ad on every leg);
- casimir, tensor_product, transpose_legs, pairing, basis_index and
  trig_constant_fixture build reference tensors and scalars;
- _serial_points is the one-candidate sampling loop the block sampler
  replaced, scoring all six of +-z12, +-z13, +-z23 where the sampler
  scores three; sample_lambda and sample_spectral_point draw one point
  from a caller's generator (random.Random or numpy's) through it;
- jacobi_defect is the Jacobi identity over every (a, b, c) as one join of
  all terms, whose verdict the library's check on the Chevalley generators
  must share;
- record_axiom_tables is the dense (dim, dim) index construction of a
  record's leg swap and its legs' largest Cartan weight, the reference for
  the library's search on the sorted record support;
- fd_record is a record whose derivative is a central finite difference
  of v, the cross-check of the analytic derivative the library runs;
- check_phi_triangle, phi_ode_residual and addition_identity_residual are
  the paper's scalar identities for the coefficients phi (RootSumNonzero
  refuses a root triple that does not sum to zero), with sigma_w_dw the
  w-derivative of sigma_w that the addition law reads, and span_closure the
  positive roots supported on a set of simple roots.

Tests import these as ``from _oracle import ...``.
"""

from __future__ import annotations

import cmath
import random
import weakref
from typing import Optional, Sequence, Union

import numpy as np

from dynr import (
    SPECTRAL_FAMILIES,
    CartanVector,
    DynrError,
    SamplingExhausted,
    SpecInvalid,
    Tensor2,
    Tensor3,
    UnsupportedType,
    effective_coupling,
    rho_fn,
    rmatrix,
    sigma_w,
)
from dynr.lie_core import _join, _max_by_key, _sorted_column
from dynr.special_fn import _require_margin, _sigma

_PLACEMENTS = ("12-13", "12-23", "13-23")

_TABLES = weakref.WeakKeyDictionary()


def bracket_table(g) -> np.ndarray:
    """Dense complex tensor f[i, j, k] with [b_i, b_j] = sum_k f[i,j,k] b_k."""
    f = _TABLES.get(g)
    if f is None:
        f = np.zeros((g.dim, g.dim, g.dim), dtype=complex)
        i, j, k, v = g.structure_constants
        np.add.at(f, (i, j, k), v)
        _TABLES[g] = f
    return f


def basis_index(g, root_idx: int) -> int:
    """Basis index of the root vector of root root_idx (after the Cartan basis)."""
    return g.rank + root_idx


def pairing(rs, lam: CartanVector, alpha: int, shift: Optional[CartanVector] = None) -> complex:
    """(alpha, lam - shift) in orthonormal coordinates.

    Parameters
    ----------
    rs : root system owning the root index.
    lam : evaluation point.
    alpha : root index into rs.
    shift : optional second point, e.g. the family parameter nu.
    """
    v = lam.as_array()
    if shift is not None:
        v = v - shift.as_array()
    return complex(np.dot(rs.roots[alpha], v))


def casimir(g) -> Tensor2:
    """The invariant symmetric tensor of the bilinear form.

    Sum of x_i (x) x_i over the orthonormal Cartan basis plus e_a (x) e_{-a}
    over all roots.
    """
    rs = g.root_system
    m = np.zeros((g.dim, g.dim), dtype=complex)
    for k in range(rs.rank):
        m[k, k] = 1.0
    m[g.root_pair_index()] = 1.0
    return Tensor2(g, m)


def tensor_product(algebra, u: np.ndarray, v: np.ndarray) -> Tensor2:
    """u (x) v for coefficient vectors in the algebra basis."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != (algebra.dim,) or v.shape != (algebra.dim,):
        raise UnsupportedType("vectors must have algebra dimension")
    return Tensor2(algebra, np.outer(u, v))


def transpose_legs(t: Tensor3, perm) -> Tensor3:
    """Relabel legs in numpy axes convention: result leg k is input leg perm[k].

    R[j0, j1, j2] = data[i0, i1, i2] with i[perm[k]] = j[k].  For a pure
    tensor a(x)b(x)c, perm (1,2,0) gives b(x)c(x)a and (2,0,1) gives
    c(x)a(x)b.
    """
    if sorted(perm) != [0, 1, 2]:
        raise UnsupportedType(f"not a leg permutation: {perm}")
    return Tensor3(t.algebra, np.transpose(t.data, perm).copy())


def bracket_legs(x: Tensor2, y: Tensor2, placement: str) -> Tensor3:
    """Pairwise leg bracket [x^{p}, y^{q}] inside g (x) g (x) g.

    Parameters
    ----------
    x, y : Tensor2 over the same algebra.
    placement : one of "12-13", "12-23", "13-23"; x occupies the first
        pair of legs, y the second, and the bracket is taken on the leg
        they share.

    Returns
    -------
    Tensor3 holding the commutator.
    """
    x._check(y)
    f = bracket_table(x.algebra)
    a, b = x.data, y.data
    # f meets y first, then x: two O(dim^4) contractions, never a dim^5 loop
    if placement == "12-13":
        # out[k,j,l] = sum_{i,m} f[i,m,k] x[i,j] y[m,l]
        fy = np.tensordot(f, b, ([1], [0]))  # [i, k, l]
        data = np.tensordot(a, fy, ([0], [0])).transpose(1, 0, 2)
    elif placement == "12-23":
        # out[i,k,l] = sum_{j,m} f[j,m,k] x[i,j] y[m,l]
        fy = np.tensordot(f, b, ([1], [0]))  # [j, k, l]
        data = np.tensordot(a, fy, ([1], [0]))
    elif placement == "13-23":
        # out[i,m,k] = sum_{j,l} f[j,l,k] x[i,j] y[m,l]
        fy = np.tensordot(f, b, ([1], [1]))  # [j, k, m]
        data = np.tensordot(a, fy, ([1], [0])).transpose(0, 2, 1)
    else:
        raise UnsupportedType(f"placement must be one of {_PLACEMENTS}, got {placement!r}")
    return Tensor3(x.algebra, data)


def alt3(z: Tensor3) -> Tensor3:
    """Sum of the three cyclic leg rotations of z.

    For z = a (x) b (x) c the result is a(x)b(x)c + c(x)a(x)b + b(x)c(x)a.
    """
    d = z.data
    return Tensor3(z.algebra, d + np.transpose(d, (1, 2, 0)) + np.transpose(d, (2, 0, 1)))


def _ad_contract(algebra, x) -> np.ndarray:
    """M[c, k] = coefficient of b_k in [x, b_c]."""
    f = bracket_table(algebra)
    if isinstance(x, (int, np.integer)):
        return f[int(x)]
    x = np.asarray(x, dtype=complex)
    if x.shape != (algebra.dim,):
        raise UnsupportedType("element must be a basis index or a dim-length vector")
    return np.tensordot(x, f, 1)


def act_diag(x, t: Union[Tensor2, Tensor3]) -> Union[Tensor2, Tensor3]:
    """Diagonal adjoint action of x: sum over legs of (1 .. ad_x .. 1).

    x may be a basis index or a coefficient vector.  For Cartan x and a
    zero-weight tensor the result vanishes.
    """
    m = _ad_contract(t.algebra, x)
    d = t.data
    if isinstance(t, Tensor2):
        out = m.T @ d + d @ m
        return Tensor2(t.algebra, out)
    out = (
        np.tensordot(m, d, ([0], [0]))
        + np.tensordot(d, m, ([1], [0])).transpose(0, 2, 1)
        + np.tensordot(d, m, ([2], [0]))
    )
    return Tensor3(t.algebra, out)


def trig_constant_fixture(algebra, z: complex, polarization: Optional[Sequence[int]] = None) -> Tensor2:
    """Reference trigonometric solution 2i (O_- e^{2iz} + O_+) / (e^{2iz} - 1).

    O_+- are the half-Casimirs of the given polarization (standard one by
    default).
    """
    rs = algebra.root_system
    pol = set(int(i) for i in (polarization or rs.positive_roots))
    dim = algebra.dim
    omega_plus = np.zeros((dim, dim), dtype=complex)
    omega_minus = np.zeros((dim, dim), dtype=complex)
    for k in range(rs.rank):
        omega_plus[k, k] = 0.5
        omega_minus[k, k] = 0.5
    for p in range(rs.n_roots):
        target = omega_plus if p in pol else omega_minus
        target[basis_index(algebra, p), basis_index(algebra, rs.neg(p))] = 1.0
    e2 = cmath.exp(2j * complex(z))
    den = e2 - 1
    _require_margin(den, lambda i: "z too close to the pole lattice of the fixture")
    return Tensor2(algebra, 2j * (omega_minus * e2 + omega_plus) / den)


def _serial_points(specs, plan, rng, n_z, count):
    """The one-candidate loop the block sampler replaced, kept as its oracle:
    uniform draws for Re and Im of lambda, then of z, from a random.Random
    or a numpy Generator, and one scalar pole_margin per spec, candidate
    and argument, up to max_resamples per point."""
    rank = specs[0].algebra.rank
    elliptic = any(s.family == "EllipticSpectral" for s in specs)
    im_box = tuple(0.5 * b for b in plan.z_box) if elliptic else plan.box
    lams, zss = [], []
    for _ in range(count):
        for _ in range(plan.max_resamples):
            lam = _uniform(rng, plan.box, rank) + 1j * _uniform(rng, im_box, rank)
            zs = _uniform(rng, plan.z_box, n_z) + 1j * _uniform(rng, plan.z_box, n_z) if n_z else None
            w = zs[[0, 0, 1, 1, 2, 2]] - zs[[1, 2, 2, 0, 0, 1]] if n_z == 3 else zs
            args = [None] if w is None else w
            if all(rmatrix.pole_margin(s, CartanVector.of(lam), x) >= plan.pole_margin for s in specs for x in args):
                break
        else:
            raise SamplingExhausted(
                f"no sample point with pole margin {plan.pole_margin} in {plan.max_resamples} draws"
            )
        lams.append(lam)
        zss.append(zs)
    return np.array(lams), np.array(zss) if n_z else None


def _uniform(rng, box, n: int) -> np.ndarray:
    """n doubles uniform in box = (lo, hi), each lo + (hi - lo) * u."""
    if isinstance(rng, random.Random):
        return np.array([rng.uniform(*box) for _ in range(n)])
    return rng.uniform(*box, n)


def sample_lambda(spec, plan, rng) -> CartanVector:
    """One lambda from the plan box with pole margin at least the floor."""
    return CartanVector.of(_serial_points((spec,), plan, rng, 0, 1)[0][0])


def sample_spectral_point(spec, plan, rng):
    """(lambda, (z1, z2, z3)) with every pairwise difference +-z_ij pole-free."""
    lam, zs = _serial_points((spec,), plan, rng, 3, 1)
    return CartanVector.of(lam[0]), tuple(complex(w) for w in zs[0])


def jacobi_defect(n: int, i, j, k, v) -> float:
    """max over (a, b, c, k) of |[a,[b,c]] + [c,[a,b]] + [b,[c,a]]|_k.

    P(x, y, z, k) = sum_m f[x,y,m] f[z,m,k] = [z,[x,y]]_k comes from joining
    the entry list on its output index m with the entry list on its middle
    index m.  The Jacobi sum at (a, b, c) is P summed over the three cyclic
    rotations of (a, b, c), so every term is filed under the least rotation
    of its (x, y, z) and one bincount adds the three (a term with
    x = y = z is its own rotation three times).
    """
    left, right = _join(k, _sorted_column(j, n))
    x, y, z, out = i[left], j[left], i[right], k[right]
    value = v[left] * v[right]
    del left, right
    value[(x == y) & (y == z)] *= 3
    key = np.minimum(np.minimum((x * n + y) * n + z, (y * n + z) * n + x), (z * n + x) * n + y)
    del x, y, z
    return _max_by_key(key * n + out, value)


def record_axiom_tables(g) -> tuple:
    """(swap, weight) per entry of a record's v: the position of the entry
    with its legs exchanged, read from a dense (dim, dim) table of entry
    positions, and the largest |sum of its legs' Cartan weights| over the
    Cartan basis."""
    rows, cols = rmatrix._legs(g)
    at = np.zeros((g.dim, g.dim), dtype=int)
    at[rows, cols] = np.arange(len(rows))
    leg_weight = np.hstack([np.zeros((g.rank, g.rank)), g.root_system.roots.T])
    return at[cols, rows], np.abs(leg_weight[:, rows] + leg_weight[:, cols]).max(axis=0)


def fd_record(spec, lam, z, fd_step: float = 1e-5) -> rmatrix._Record:
    """rmatrix._record of spec at (lam, z) with d[k] the central difference
    of v's root entries at lam +- fd_step e_k: all 2 * rank shifts in one
    _evaluate call.  lam and z may be batches, as for _record."""
    rec = rmatrix._record(spec, lam, z)  # checks the point, raises at a pole, applies the flip
    lam = np.asarray(lam)
    z = None if z is None else np.asarray(z, dtype=complex)
    lead, rank = rec.v.shape[:-1], lam.shape[-1]
    # the shifted lambdas as a (rank, 2) batch in front of the record's axes
    s = fd_step * np.eye(rank, dtype=complex).reshape((rank,) + (1,) * len(lead) + (rank,))
    vs, _ = rmatrix._evaluate(spec, np.stack([lam + s, lam - s], axis=1), z, False)
    d = np.moveaxis((vs[:, 0] - vs[:, 1])[..., rank * rank :] / (2 * fd_step), 0, -2)
    if spec.debug_flip_root is not None:
        k = spec.debug_flip_root
        d[..., k] = -d[..., k]
    return rmatrix._Record(rec.v, d)


class RootSumNonzero(DynrError):
    """Triangle identity requested for roots that do not sum to zero."""


def check_phi_triangle(spec, alpha: int, beta: int, gamma: int, lam: CartanVector, z_args=None) -> complex:
    """Left-hand side of the three-phi identity for roots summing to zero.

    Constant families: phi_a phi_b + phi_a phi_c + phi_c phi_b + eps^2/4
    (the eps = 0 case is the rational product identity).  Spectral
    families: phi_a(z13) phi_b(z23) + phi_b(z21) phi_c(z31)
    + phi_a(z12) phi_c(z32).
    """
    rs = spec.algebra.root_system
    triple = [rmatrix._require_root(rs, i, name) for i, name in zip((alpha, beta, gamma), ("alpha", "beta", "gamma"))]
    if np.any(np.sum([rs.coeffs[i] for i in triple], axis=0)):
        raise RootSumNonzero(f"root triple {alpha},{beta},{gamma} does not sum to zero")
    a, b, c = (spec.algebra.rank**2 + i for i in triple)  # their entries in a record's v
    if not spec.is_spectral:
        if z_args is not None:
            raise SpecInvalid("constant family takes no spectral arguments")
        pa, pb, pc = rmatrix._identity_phi(spec, rmatrix._record(spec, lam.as_array(), None).v[[a, b, c]])
        eps = effective_coupling(spec)
        return complex(pa * pb + pa * pc + pc * pb + eps * eps / 4.0)
    z1, z2, z3 = (complex(w) for w in z_args or (0.23 - 0.31j, -0.17 - 0.29j, 0.41 - 0.11j))
    args = np.array([z1 - z3, z2 - z3, z2 - z1, z3 - z1, z1 - z2, z3 - z2])
    phi = rmatrix._identity_phi(spec, rmatrix._record(spec, lam.as_array(), args).v)
    return complex(phi[0, a] * phi[1, b] + phi[2, b] * phi[3, c] + phi[4, a] * phi[5, c])


def phi_ode_residual(spec, alpha: int, lam: CartanVector, fd_step: float = 1e-6) -> float:
    """|phi'(a) + phi(a)^2 - (eps/2)^2| along the (alpha, lam) direction.

    phi' is a central finite difference of the identity-bearing phi with
    respect to a = (alpha, lam).  Constant ungauged families only.
    """
    if spec.family in SPECTRAL_FAMILIES:
        raise SpecInvalid("the phi ODE identity applies to constant families")
    if spec.gauge_stack:
        raise SpecInvalid("phi ODE identity is stated for ungauged specs")
    alpha = rmatrix._require_root(spec.algebra.root_system, alpha, "alpha")
    root = spec.algebra.root_system.roots[alpha]
    step = fd_step * root / float(root @ root)
    lam_arr = lam.as_array()
    v = rmatrix._record(spec, np.stack([lam_arr + step, lam_arr - step, lam_arr]), None).v
    up, dn, phi0 = rmatrix._identity_phi(spec, v[:, spec.algebra.rank**2 + alpha])
    eps = effective_coupling(spec)
    return float(abs((up - dn) / (2 * fd_step) + phi0 * phi0 - eps * eps / 4.0))


def sigma_w_dw(w: complex, z: complex, p) -> complex:
    """Analytic partial derivative of sigma_w(z) in w, from the library's
    one set of theta sums."""
    return _sigma(w, z, p, True)[1]


def addition_identity_residual(w: complex, u: complex, v: complex, params) -> complex:
    """Residual of the weighted addition law the elliptic family relies on.

    With t(z) = -rho(z) and mu(w, z) = -sigma_w(z):
    d mu/dw (w, u+v) - (t(u) + t(v)) mu(w, u+v) + mu(w, u) mu(w, v).
    """
    mu_d = -sigma_w_dw(w, u + v, params)
    t_sum = -(rho_fn(u, params) + rho_fn(v, params))
    return mu_d - t_sum * (-sigma_w(w, u + v, params)) + sigma_w(w, u, params) * sigma_w(w, v, params)


def span_closure(rs, x_simple) -> tuple:
    """Positive roots that are nonnegative integer combinations of x_simple.

    x_simple holds root indices of simple positive roots; the result is
    the sorted tuple of positive roots supported on those simple coordinates.
    """
    simple_set = set(rs.simple_roots)
    xs = set(int(i) for i in x_simple)
    for i in xs:
        if i not in simple_set:
            raise SpecInvalid(f"root index {i} is not a simple positive root")
    positions = {list(rs.simple_roots).index(i) for i in xs}
    members = []
    for idx in rs.positive_roots:
        support = {k for k in range(rs.rank) if rs.coeffs[idx][k] != 0}
        if support <= positions:
            members.append(idx)
    return tuple(sorted(members))
