"""Result containers: tensors over a simple Lie algebra, kept on their support.

Tensor2 and Tensor3 hold the values that eval_rmatrix, eval_dlambda,
cdybe_residual and extract_residue return.  Each stores the flat indices
into dim**legs of the entries it holds (index) and their complex values
(values); every other entry is zero.  .data builds the dense array when
asked.  They share one base class for the same-algebra guard and the
linear operations (+, -, scale, sup norm), which act on the support.
"""

from __future__ import annotations

import numpy as np

from .errors import AlgebraMismatch, UnsupportedType
from .lie_core import SimpleLieAlgebra


class _SupportTensor:
    """Complex tensor with `_legs` legs, each indexed by the algebra basis,
    stored as the entries at the flat indices index."""

    __slots__ = ("algebra", "index", "values")
    _legs = 0

    def __init__(self, algebra: SimpleLieAlgebra, data: np.ndarray):
        data = np.asarray(data, dtype=complex)
        shape = (algebra.dim,) * self._legs
        if data.shape != shape:
            raise UnsupportedType(f"{type(self).__name__} data shape {data.shape} != {shape}")
        self.algebra, self.index, self.values = algebra, np.arange(data.size), data.reshape(-1)

    @classmethod
    def _from_support(cls, algebra: SimpleLieAlgebra, index: np.ndarray, values: np.ndarray):
        """The tensor whose entries at the distinct flat indices index are values."""
        t = cls.__new__(cls)
        t.algebra, t.index, t.values = algebra, index, values
        return t

    @property
    def data(self) -> np.ndarray:
        """The dense (dim,) * legs array, built on each access."""
        out = np.zeros(self.algebra.dim**self._legs, dtype=complex)
        out[self.index] = self.values
        return out.reshape((self.algebra.dim,) * self._legs)

    def _check(self, other):
        if self.algebra is not other.algebra:
            raise AlgebraMismatch("tensors over different algebras")
        if self._legs != other._legs:
            raise UnsupportedType(f"cannot combine {type(self).__name__} with {type(other).__name__}")

    def _combine(self, other, op):
        """op entrywise on the union of both supports, an entry outside one
        support reading 0 there, as in the dense arrays."""
        self._check(other)
        index = np.union1d(self.index, other.index)
        a, b = np.zeros((2, len(index)), dtype=complex)
        a[np.searchsorted(index, self.index)] = self.values
        b[np.searchsorted(index, other.index)] = other.values
        return self._from_support(self.algebra, index, op(a, b))

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def scale(self, c: complex):
        return self._from_support(self.algebra, self.index, complex(c) * self.values)

    def norm(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0


class Tensor2(_SupportTensor):
    """Element of g (x) g; .data is the dense (dim, dim) complex matrix."""

    __slots__ = ()
    _legs = 2


class Tensor3(_SupportTensor):
    """Element of g (x) g (x) g; .data is the dense (dim, dim, dim) complex array."""

    __slots__ = ()
    _legs = 3
