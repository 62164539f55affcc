"""Result containers: dense tensors over a simple Lie algebra.

Tensor2 and Tensor3 hold the values that eval_rmatrix, eval_dlambda,
cdybe_residual and extract_residue return, as dense complex arrays indexed
by the algebra basis.  They share one base class for the shape check, the
same-algebra guard and the linear operations (+, -, scale, sup norm).
"""

from __future__ import annotations

import numpy as np

from .errors import AlgebraMismatch, UnsupportedType
from .lie_core import SimpleLieAlgebra


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


class Tensor3(_DenseTensor):
    """Element of g (x) g (x) g as a dense (dim, dim, dim) complex array."""

    __slots__ = ()
    _legs = 3
