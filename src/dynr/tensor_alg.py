"""Tensors over a simple Lie algebra and the bracket/alternation calculus.

Tensor2 and Tensor3 wrap dense complex arrays indexed by the algebra basis;
they share one base class for the shape check and the linear operations.
bracket_legs contracts two 2-tensors through the Lie bracket on a shared
leg placement, alt3 symmetrizes a 3-tensor over cyclic leg rotations, and
act_diag applies an element diagonally (ad on every leg).  All operations
check that operands live over the same algebra.

This dense calculus is the oracle: the verifier assembles the CDYBE
residual as a vector on its weight-zero support and tests weights with
per-entry Cartan weight sums, and the tests check both against
bracket_legs and act_diag.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .errors import AlgebraMismatch, UnsupportedType
from .lie_core import SimpleLieAlgebra

_PLACEMENTS = ("12-13", "12-23", "13-23")


class _DenseTensor:
    """Dense complex array with `_legs` legs, each indexed by the algebra basis."""

    __slots__ = ("algebra", "data")
    _legs = 0

    def __init__(self, algebra: SimpleLieAlgebra, data: np.ndarray):
        data = np.asarray(data, dtype=complex)
        shape = (algebra.dim,) * self._legs
        if data.shape != shape:
            raise UnsupportedType(f"{type(self).__name__} data shape {data.shape} != {shape}")
        self.algebra = algebra
        self.data = data

    def _check(self, other):
        if self.algebra is not other.algebra:
            raise AlgebraMismatch("tensors over different algebras")

    def __add__(self, other):
        self._check(other)
        return type(self)(self.algebra, self.data + other.data)

    def __sub__(self, other):
        self._check(other)
        return type(self)(self.algebra, self.data - other.data)

    def scale(self, c: complex):
        return type(self)(self.algebra, complex(c) * self.data)

    def norm(self) -> float:
        return float(np.max(np.abs(self.data))) if self.data.size else 0.0


class Tensor2(_DenseTensor):
    """Element of g (x) g as a dense (dim, dim) complex matrix."""

    __slots__ = ()
    _legs = 2

    def swap(self) -> "Tensor2":
        """Exchange the two legs: (a (x) b) -> (b (x) a)."""
        return Tensor2(self.algebra, self.data.T.copy())

    def copy(self) -> "Tensor2":
        return Tensor2(self.algebra, self.data.copy())


class Tensor3(_DenseTensor):
    """Element of g (x) g (x) g as a dense (dim, dim, dim) complex array."""

    __slots__ = ()
    _legs = 3

    def transpose_legs(self, perm) -> "Tensor3":
        """Relabel legs in numpy axes convention: result leg k is input leg perm[k].

        R[j0, j1, j2] = data[i0, i1, i2] with i[perm[k]] = j[k].  For a pure
        tensor a(x)b(x)c, perm (1,2,0) gives b(x)c(x)a and (2,0,1) gives
        c(x)a(x)b.
        """
        if sorted(perm) != [0, 1, 2]:
            raise UnsupportedType(f"not a leg permutation: {perm}")
        return Tensor3(self.algebra, np.transpose(self.data, perm).copy())


def tensor_product(algebra: SimpleLieAlgebra, u: np.ndarray, v: np.ndarray) -> Tensor2:
    """u (x) v for coefficient vectors in the algebra basis."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != (algebra.dim,) or v.shape != (algebra.dim,):
        raise UnsupportedType("vectors must have algebra dimension")
    return Tensor2(algebra, np.outer(u, v))


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
    f = x.algebra.bracket_table()
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


def _ad_contract(algebra: SimpleLieAlgebra, x) -> np.ndarray:
    """M[c, k] = coefficient of b_k in [x, b_c]."""
    f = algebra.bracket_table()
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


def norm(t: Union[Tensor2, Tensor3]) -> float:
    """Sup norm over coefficients in the algebra basis."""
    return t.norm()
