"""Root systems and Chevalley-basis simple Lie algebras of finite type.

Root systems are generated from Cartan matrices by reflection closure over
integer coefficient vectors, so all root arithmetic (sums, strings, heights)
is exact.  Coordinates in an orthonormal basis of the real Cartan dual are
attached per series: explicit integer/half-integer realizations for B, C, D
and a Cholesky factor of the exact Gram matrix otherwise.  The invariant
bilinear form is normalized so long roots have squared length 2.

The algebra basis is {x_1..x_r} (orthonormal Cartan vectors) followed by one
root vector per root, scaled so that B(e_a, e_{-a}) = 1 and
[e_a, e_{-a}] = h_a, the form-dual of the root a.  Structure-constant signs
follow a fixed extraspecial-pair convention; root-to-root constants are
assembled in integers and stored as floats, like the irrational Cartan
legs.  Every construction is checked for antisymmetry, the Jacobi
identity, invariance of the form and the Chevalley relations before it is
returned.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConstructionFailure, UnsupportedType

try:  # CPython's builtin sha256 (3.12+, then 3.10-3.11), as random.py takes its sha512:
    from _sha2 import sha256 as _sha256  # importing hashlib maps OpenSSL's libcrypto, about 3.6 MiB
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

_CACHE_ENV = "DYNR_FIXTURE_DIR"
_CACHE_VERSION = 3
_ALGEBRA_TOL = 1e-12  # the largest defect _verify_algebra accepts in each check


def _cartan_data(series: str, rank: int):
    """Cartan matrix a[i][j] = 2(a_i,a_j)/(a_j,a_j) and integer half-lengths
    d_i = (a_i,a_i)/2, the shortest simple root at 1."""
    if rank < 1:
        raise UnsupportedType(f"rank must be positive, got {rank}")
    a = [[2 * (i == j) for j in range(rank)] for i in range(rank)]

    def chain(i, j):
        a[i][j] = -1
        a[j][i] = -1

    if series == "A":
        d = [1] * rank
        for i in range(rank - 1):
            chain(i, i + 1)
    elif series in ("B", "C"):
        if rank < 2:
            raise UnsupportedType(f"{series} requires rank >= 2")
        d = [2] * (rank - 1) + [1] if series == "B" else [1] * (rank - 1) + [2]
        for i in range(rank - 2):
            chain(i, i + 1)
        a[rank - 2][rank - 1], a[rank - 1][rank - 2] = (-2, -1) if series == "B" else (-1, -2)
    elif series == "D":
        if rank < 3:
            raise UnsupportedType("D requires rank >= 3")
        d = [1] * rank
        for i in range(rank - 2):
            chain(i, i + 1)
        chain(rank - 3, rank - 1)
    elif series == "G":
        if rank != 2:
            raise UnsupportedType("G requires rank == 2")
        d = [1, 3]
        a[0][1] = -1
        a[1][0] = -3
    elif series == "F":
        if rank != 4:
            raise UnsupportedType("F requires rank == 4")
        d = [2, 2, 1, 1]
        chain(0, 1)
        chain(2, 3)
        a[1][2] = -2
        a[2][1] = -1
    elif series == "E":
        if rank not in (6, 7, 8):
            raise UnsupportedType("E requires rank in {6, 7, 8}")
        d = [1] * rank
        edges = [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)]
        edges += [(5, 6)] if rank >= 7 else []
        edges += [(6, 7)] if rank == 8 else []
        for i, j in edges:
            chain(i, j)
    else:
        raise UnsupportedType(f"unsupported series {series!r}")
    return a, d


def _gram(cartan, d):
    """(a_i, a_j) = a_ij * d_j, in integers and symmetric."""
    rank = len(d)
    g = [[cartan[i][j] * d[j] for j in range(rank)] for i in range(rank)]
    for i in range(rank):
        for j in range(rank):
            if g[i][j] != g[j][i]:
                raise ConstructionFailure("Gram matrix not symmetric")
    return g


def _simple_coords(series: str, rank: int, gram) -> np.ndarray:
    """Rows are orthonormal coordinates of the simple roots."""
    if series == "B":
        m = np.zeros((rank, rank))
        for i in range(rank - 1):
            m[i, i], m[i, i + 1] = 1.0, -1.0
        m[rank - 1, rank - 1] = 1.0
        return m
    if series == "C":
        s = np.sqrt(2.0)
        m = np.zeros((rank, rank))
        for i in range(rank - 1):
            m[i, i], m[i, i + 1] = 1 / s, -1 / s
        m[rank - 1, rank - 1] = s
        return m
    if series == "D":
        m = np.zeros((rank, rank))
        for i in range(rank - 1):
            m[i, i], m[i, i + 1] = 1.0, -1.0
        m[rank - 1, rank - 2], m[rank - 1, rank - 1] = 1.0, 1.0
        return m
    g = np.array(gram)
    # long roots have squared length 2: each entry one division of two exact ints
    return np.linalg.cholesky(2 * g / np.max(np.diag(g)))


def _reflection_closure(cartan, rank):
    """All roots as integer coefficient tuples, via simple reflections."""
    simples = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    zero = tuple([0] * rank)
    roots = set(simples)
    frontier = list(simples)
    while frontier:
        fresh = []
        for c in frontier:
            for i in range(rank):
                pair_i = sum(c[j] * cartan[j][i] for j in range(rank))
                refl = list(c)
                refl[i] -= pair_i
                t = tuple(refl)
                if t != zero and t not in roots:
                    roots.add(t)
                    fresh.append(t)
        frontier = fresh
    return sorted(roots)


@dataclass(eq=False)
class RootSystemData:
    """A finite root system with exact coefficients and float coordinates.

    Attributes
    ----------
    series, rank : type label, e.g. ("B", 2).
    roots : (n_roots, rank) float array, orthonormal coordinates.
    coeffs : (n_roots, rank) int array, expansion in the simple roots.
    simple_roots : indices of the simple roots, in simple-root order.
    positive_roots : indices of roots with all-nonnegative coefficients.
    cartan_matrix : (rank, rank) int array, a_ij = 2(a_i,a_j)/(a_j,a_j).

    Root arithmetic runs on integer codes: a coefficient vector c is coded
    as sum_i c_i b^i with b = 4h + 1, h the largest |c_i| over the roots,
    so the code of a sum or difference of two roots is the sum or
    difference of their codes, and stays injective.  sum_table[i, j] is
    the index of root_i + root_j, or -1 when the sum is not a root.
    """

    series: str
    rank: int
    roots: np.ndarray
    coeffs: np.ndarray
    simple_roots: tuple
    positive_roots: tuple
    cartan_matrix: np.ndarray
    gram: tuple  # Gram matrix of the simple roots in integers, the shortest at 2
    sum_table: np.ndarray = field(init=False, repr=False)
    _sum_rows: list = field(init=False, repr=False)  # sum_table as lists, for scalar reads
    _neg: tuple = field(init=False, repr=False)
    _pos_set: frozenset = field(init=False, repr=False)
    _len_sq: tuple = field(init=False, repr=False)  # (a, a) in the units of gram, Python ints
    _long_sq: int = field(init=False, repr=False)  # the largest of them, a long root's

    def __post_init__(self):
        n, rank = self.n_roots, self.rank
        hmax = int(np.max(np.abs(self.coeffs)))
        base = 4 * hmax + 1
        place = [base**i for i in range(rank)]
        # sums of two codes reach 2h * (b^rank - 1) / (b - 1) < b^rank
        dtype = np.int64 if base**rank < 2**62 else object
        codes = self.coeffs.astype(dtype) @ np.array(place, dtype=dtype)
        order = np.argsort(codes)
        ranked = codes[order]
        sums = (codes[:, None] + codes[None, :]).ravel()
        at = np.minimum(np.searchsorted(ranked, sums), n - 1)
        table = np.where(ranked[at] == sums, order[at], -1).reshape(n, n)
        table.flags.writeable = False
        self.sum_table = table
        self._sum_rows = table.tolist()
        # the code of -a is minus the code of a, so the root of rank t among the codes negates rank n-1-t
        self._neg = tuple(order[::-1][np.argsort(order)].tolist())
        self._pos_set = frozenset(self.positive_roots)
        g = np.array(self.gram, dtype=np.int64)
        self._len_sq = tuple(((self.coeffs @ g) * self.coeffs).sum(axis=1).tolist())
        self._long_sq = max(self._len_sq)

    @property
    def n_roots(self) -> int:
        return len(self.coeffs)

    def neg(self, idx: int) -> int:
        return self._neg[idx]

    def is_positive(self, idx: int) -> bool:
        return idx in self._pos_set

    def add(self, i: int, j: int) -> Optional[int]:
        """Index of root_i + root_j, or None when the sum is not a root."""
        s = self._sum_rows[i][j]
        return None if s < 0 else s

    def height(self, idx: int) -> int:
        return int(self.coeffs[idx].sum())

    def length_sq(self, idx: int) -> float:
        """(a, a) with long roots at 2, one rounding of an exact ratio."""
        return 2 * self._len_sq[idx] / self._long_sq


def build_root_system(series: str, rank: int) -> RootSystemData:
    """Construct the root system of a finite-type series.

    Parameters
    ----------
    series : one of "A", "B", "C", "D", "E", "F", "G".
    rank : positive integer valid for the series.

    Returns
    -------
    RootSystemData with roots sorted lexicographically by coefficient
    tuple (deterministic ordering used everywhere downstream).

    Raises
    ------
    UnsupportedType
        If (series, rank) is not a supported finite type.
    """
    series = str(series).upper()
    if series not in "ABCDEFG" or len(series) != 1:
        raise UnsupportedType(f"unsupported series {series!r}")
    cartan, d = _cartan_data(series, rank)
    gram = _gram(cartan, d)
    coeff_list = _reflection_closure(cartan, rank)
    coeffs = np.array(coeff_list, dtype=int)
    for c in coeff_list:
        if not (all(x >= 0 for x in c) or all(x <= 0 for x in c)):
            raise ConstructionFailure(f"mixed-sign root coefficients {c}")
    simple_coords = _simple_coords(series, rank, gram)
    roots = coeffs @ simple_coords
    simple_idx = [None] * rank
    positive = []
    for i, c in enumerate(coeff_list):
        if all(x >= 0 for x in c):
            positive.append(i)
            if sum(c) == 1:
                simple_idx[c.index(1)] = i
    rs = RootSystemData(
        series=series,
        rank=rank,
        roots=roots,
        coeffs=coeffs,
        simple_roots=tuple(simple_idx),
        positive_roots=tuple(positive),
        cartan_matrix=np.array(cartan, dtype=int),
        gram=tuple(tuple(row) for row in gram),
    )
    if len(positive) * 2 != rs.n_roots:
        raise ConstructionFailure("roots do not split into +/- halves")
    return rs


class _ChevalleyConstants:
    """Structure constants N(a,b) with the extraspecial-pair sign convention.

    Positive roots are ordered by (height, coefficient tuple).  For each
    non-simple positive root the decomposition with the least first member
    is declared extraspecial and assigned N = +(p+1), where p is the string
    length; every other constant follows from the Jacobi identity, the
    rotation rule N(y,w) = N(x,y)(x,x)/(w,w) for x+y+w = 0, and the
    involution N(-a,-b) = -N(a,b).  Every constant is an integer, +-(p+1)
    (Carter, Simple Groups of Lie Type, ch. 4), so N runs in Python ints
    and each length-ratio division must come out exact.
    """

    def __init__(self, rs: RootSystemData):
        self.rs = rs
        pos = sorted(rs.positive_roots, key=lambda i: (rs.height(i), tuple(rs.coeffs[i])))
        self.order = {i: n for n, i in enumerate(pos)}
        self.extraspecial = {}
        for g_idx in pos:
            if rs.height(g_idx) < 2:
                continue
            cands = []
            for a_idx in pos:
                b_idx = rs.add(g_idx, rs.neg(a_idx))
                if b_idx is not None and b_idx in self.order and self.order[a_idx] <= self.order[b_idx]:
                    cands.append((self.order[a_idx], a_idx, b_idx))
            if not cands:
                raise ConstructionFailure("positive root with no decomposition")
            _, a_idx, b_idx = min(cands)
            self.extraspecial[g_idx] = (a_idx, b_idx)
        self._memo = {}

    def p(self, a: int, b: int) -> int:
        rs, k = self.rs, 0
        minus_a = rs.neg(a)
        cur = rs.add(b, minus_a)
        while cur is not None:
            k += 1
            cur = rs.add(cur, minus_a)
        return k

    def N(self, a: int, b: int) -> int:
        rs = self.rs
        s = rs.add(a, b)
        if s is None:
            return 0
        key = (a, b)
        if key in self._memo:
            return self._memo[key]
        pos_a, pos_b = a in self.order, b in self.order
        ls = rs._len_sq
        den = 1  # a length ratio's denominator, which must divide val
        if pos_a and pos_b:
            if self.order[a] > self.order[b]:
                val = -self.N(b, a)
            elif (a, b) == self.extraspecial[s]:
                val = self.p(a, b) + 1
            else:
                a0, b0 = self.extraspecial[s]
                minus_a = rs.neg(a)
                t = 0
                b0_a = rs.add(b0, minus_a)
                if b0_a is not None:
                    t += self.N(b0, minus_a) * self.N(b0_a, a0)
                a0_a = rs.add(a0, minus_a)
                if a0_a is not None:
                    t += self.N(minus_a, a0) * self.N(a0_a, b0)
                if t == 0:
                    raise ConstructionFailure("degenerate extraspecial recursion")
                val, den = ls[s] * t, ls[b] * self.N(a0, b0)
        elif not pos_a and not pos_b:
            val = -self.N(rs.neg(a), rs.neg(b))
        elif not pos_a:
            val = -self.N(b, a)
        else:
            c = rs.neg(s)
            if s in self.order:  # a + b positive, c negative
                val, den = -self.N(rs.neg(b), rs.neg(c)) * ls[c], ls[a]
            else:
                val, den = self.N(c, a) * ls[c], ls[b]
        val, rest = divmod(val, den)
        if rest:
            raise ConstructionFailure("inexact division in a structure constant")
        self._memo[key] = val
        return val


@dataclass(eq=False)
class SimpleLieAlgebra:
    """Chevalley-type basis of a finite-dimensional simple Lie algebra.

    Basis order: x_0..x_{rank-1} (orthonormal Cartan vectors), then one
    root vector per root in root-system order.  structure_constants is four
    read-only entry arrays (i, j, k, v), int64, int64, int64 and float64,
    one row per nonzero constant: [b_i, b_j] has v on b_k.  For each
    assembled bracket [b_i, b_j] come its (i, j) rows, then its (j, i)
    rows with -v.  bilinear_form is the matrix of the invariant form.
    """

    root_system: RootSystemData
    dim: int
    structure_constants: tuple
    bilinear_form: np.ndarray
    _pairs: Optional[tuple] = field(default=None, init=False, repr=False)

    @property
    def rank(self) -> int:
        return self.root_system.rank

    def root_pair_index(self) -> tuple:
        """Read-only basis index arrays (of e_a, of e_{-a}), one entry per root a."""
        if self._pairs is None:
            rs = self.root_system
            rows = self.rank + np.arange(rs.n_roots)
            cols = self.rank + np.array(rs._neg)
            rows.flags.writeable = cols.flags.writeable = False
            self._pairs = (rows, cols)
        return self._pairs


def _assemble_constants(rs: RootSystemData) -> tuple:
    """Entry arrays in the rescaled (dual root vector) basis; exact until stored."""
    chev = _ChevalleyConstants(rs)
    rank, nr = rs.rank, rs.n_roots
    # e_a -> s_a e_a with s_a s_{-a} = (a,a)/2, carried by the positive member:
    # s_a = w[a] / long in the integer lengths
    long = rs._long_sq
    w = [rs._len_sq[a] if rs.is_positive(a) else long for a in range(nr)]
    rows = []

    def put(i, j, entries):
        rows.extend((i, j, k, v) for k, v in entries)
        rows.extend((j, i, k, -v) for k, v in entries)

    for ridx in range(nr):
        bi = rank + ridx
        coords = rs.roots[ridx]
        # [x_k, e_a] = (a, x_k) e_a
        for k in range(rank):
            c = float(coords[k])
            if c != 0.0:
                put(k, bi, [(bi, c)])
    # each unordered pair i < j with a nonzero bracket once, in row-major
    # order: j = -i, or i + j a root; put() writes both orders
    neg = np.array(rs._neg)
    live = (rs.sum_table >= 0) | (neg[:, None] == np.arange(nr))
    for i, j in zip(*(x.tolist() for x in np.nonzero(np.triu(live, 1)))):
        bi, bj = rank + i, rank + j
        if j == rs.neg(i):
            # [e_a, e_{-a}] = h_a, the form-dual of a, in x coordinates
            entries = [(k, float(rs.roots[i][k])) for k in range(rank) if rs.roots[i][k] != 0.0]
            put(bi, bj, entries)
            continue
        s = rs.add(i, j)
        n = chev.N(i, j)
        if n == 0:
            raise ConstructionFailure("vanishing constant on a root sum")
        # n s_i s_j / s_s, rounded once like the float of the exact ratio
        put(bi, bj, [(rank + s, n * w[i] * w[j] / (long * w[s]))])
    return _entry_arrays(*zip(*rows))


def _entry_arrays(i, j, k, v) -> tuple:
    """The entry columns as read-only int64, int64, int64 and float64 arrays."""
    out = tuple(np.array(c, dtype=t) for c, t in zip((i, j, k, v), (np.int64,) * 3 + (np.float64,)))
    for a in out:
        a.flags.writeable = False
    return out


def _sum_by_key(keys: np.ndarray, values: np.ndarray) -> tuple:
    """(sums, group): the sum of values over each group of equal keys, and
    each key's group; values may cover the first keys only."""
    _, group = np.unique(keys, return_inverse=True)
    return np.bincount(group[: len(values)], weights=values, minlength=len(group)), group


def _max_by_key(keys: np.ndarray, values: np.ndarray) -> float:
    """Largest |sum of values| over the groups of equal keys, 0 for no keys."""
    return float(np.max(np.abs(_sum_by_key(keys, values)[0]), initial=0.0))


def _antisymmetry_defect(n: int, i, j, k, v) -> float:
    """max |f[i,j,k] + f[j,i,k]|."""
    keys = np.concatenate([(i * n + j) * n + k, (j * n + i) * n + k])
    return _max_by_key(keys, np.concatenate([v, v]))


def _sorted_column(b: np.ndarray, n: int) -> tuple:
    """(order, first), order a stable argsort of b (keys in range(n)) and
    order[first[m]:first[m + 1]] the entries with key m: _join's b."""
    order = np.argsort(b, kind="stable")
    return order, np.searchsorted(b[order], np.arange(n + 1))


def _join(a: np.ndarray, column: tuple):
    """Index arrays (left, right) of every pair with a[left] == b[right],
    column being _sorted_column(b, n), so b is sorted once for many joins.
    Pairs come grouped by left index, each group in index order of b.
    """
    order, first = column
    lo = first[a]
    count = first[a + 1] - lo
    left = np.repeat(np.arange(len(a)), count)
    # pair p is partner p - (first pair of its group) of a[left[p]]
    start = np.repeat(lo - (np.cumsum(count) - count), count)
    return left, order[start + np.arange(len(left))]


def _jacobi_defect(g: SimpleLieAlgebra, i, j, k, v) -> float:
    """max over generators x = e_{+-a_s} and (b, c, k) of |[x,[b,c]] - [[x,b],c] - [b,[x,c]]|_k.

    The x with ad_x a derivation form a subalgebra (Humphreys 1.3) and the
    generators generate g (_chevalley_defect), so with antisymmetry a zero
    defect is the Jacobi identity.  Terms join x's rows with all rows,
    which are sorted by each index once.
    """
    n, simple = g.dim, list(g.root_system.simple_roots)
    by_i, by_j, by_k = (_sorted_column(c, n) for c in (i, j, k))
    order, first = by_i
    worst = 0.0
    for x in np.concatenate([e[simple] for e in g.root_pair_index()]):
        mine = order[first[x] : first[x + 1]]  # x's rows
        xj, xk, xv = j[mine], k[mine], v[mine]
        q1, r1 = _join(xj, by_k)  # row (b, c, m) with x's row (x, m, out)
        q2, r2 = _join(xk, by_i)  # x's row (x, b, m) with row (m, c, out)
        q3, r3 = _join(xk, by_j)  # x's row (x, c, m) with row (b, m, out)
        keys = np.concatenate([(i[r1] * n + j[r1]) * n + xk[q1], (xj[q2] * n + j[r2]) * n + k[r2],
                               (i[r3] * n + xj[q3]) * n + k[r3]])
        values = np.concatenate([v[r1] * xv[q1], -v[r2] * xv[q2], -v[r3] * xv[q3]])
        worst = np.maximum(worst, _max_by_key(keys, values))  # a NaN stays
    return float(worst)


def _invariance_defect(b: np.ndarray, i, j, k, v) -> float:
    """max |B([b_i, b_j], b_c) - B(b_i, [b_j, b_c])| over (i, j, c)."""
    n = len(b)
    rows, cols = np.nonzero(b)
    w = b[rows, cols]
    # lhs[i, j, c] = sum_m f[i,j,m] B[m,c];  rhs[a, i, j] = sum_m B[a,m] f[i,j,m]
    fl, bl = _join(k, _sorted_column(rows, n))
    fr, br = _join(k, _sorted_column(cols, n))
    keys = np.concatenate([(i[fl] * n + j[fl]) * n + cols[bl], (rows[br] * n + i[fr]) * n + j[fr]])
    return _max_by_key(keys, np.concatenate([v[fl] * w[bl], -v[fr] * w[br]]))


def _chevalley_defect(g: SimpleLieAlgebra, i, j, k, v) -> float:
    """max |[x_k, e_a] - a_k e_a| and |[e_a, e_{-a}] - h_a| over every root a,
    Cartan index k and output index, h_a being sum_k a_k x_k; infinite when
    a root sum a + b has no nonzero [e_a, e_b] on e_{a+b}, without which the
    e_{+-a_s} would not generate g.

    The (i, j) pairs read are every (Cartan, root) pair and every
    (e_a, e_{-a}) pair; a bracket with no rows, or no rows at all, counts
    as zero.
    """
    n, rank = g.dim, g.rank
    roots, table = g.root_system.roots, g.root_system.sum_table
    e, e_neg = g.root_pair_index()
    neg_of = np.full(n, -1)
    neg_of[e] = e_neg
    read = (j >= rank) & ((i < rank) | (j == neg_of[i]))
    # wanted rows: [x_k, e_a] has a_k on e_a; [e_a, e_{-a}] has a_k on x_k
    a, kk = np.nonzero(roots)
    want_i = np.concatenate([kk, e[a]])
    want_j = np.concatenate([e[a], e_neg[a]])
    want_k = np.concatenate([e[a], kk])
    want_v = np.tile(roots[a, kk], 2)
    keys = np.concatenate([(i[read] * n + j[read]) * n + k[read], (want_i * n + want_j) * n + want_k])
    defect = _max_by_key(keys, np.concatenate([v[read], -want_v]))
    a, b = np.nonzero(table >= 0)
    sums = (e[a] * n + e[b]) * n + e[table[a, b]]
    # each (i, j, k) key's summed value, read at the key of each root sum
    held, group = _sum_by_key(np.concatenate([(i * n + j) * n + k, sums]), v)
    return defect if np.all(held[group[len(i) :]]) else float("inf")


def _verify_algebra(g: SimpleLieAlgebra):
    """Check reality, antisymmetry, Jacobi, form invariance and the
    Chevalley relations of g.

    Works on the structure-constant entry arrays, never on a dense table,
    so it runs on every algebra.  Raises ConstructionFailure naming the
    first check whose defect exceeds _ALGEBRA_TOL.
    """
    i, j, k, v = g.structure_constants
    if np.iscomplexobj(v):
        raise ConstructionFailure("structure constants not real")
    # "not <=" so that a NaN defect fails too
    if not _antisymmetry_defect(g.dim, i, j, k, v) <= _ALGEBRA_TOL:
        raise ConstructionFailure("antisymmetry violated")
    if not _jacobi_defect(g, i, j, k, v) <= _ALGEBRA_TOL:
        raise ConstructionFailure("Jacobi identity violated")
    if not _invariance_defect(g.bilinear_form, i, j, k, v) <= _ALGEBRA_TOL:
        raise ConstructionFailure("invariance of the form violated")
    if not _chevalley_defect(g, i, j, k, v) <= _ALGEBRA_TOL:
        raise ConstructionFailure("Chevalley relations violated")


def build_simple_lie_algebra(rs: RootSystemData, cache_dir: Optional[str] = None) -> SimpleLieAlgebra:
    """Build the algebra over a root system, with dual root-vector basis.

    Parameters
    ----------
    rs : root system from build_root_system.
    cache_dir : directory for the structure-constant cache; defaults to the
        DYNR_FIXTURE_DIR environment variable, and no caching when unset.
        structure_<X>_v3.json holds the four entry arrays as JSON lists,
        with a sha256 over them.  A file that is unreadable, ill-shaped
        (unequal lengths, an index not an int in range, a value not a
        finite number), for another type or version, or whose sha256 does
        not match is treated as missing: the constants are rebuilt,
        checked and written anew.

    Returns
    -------
    SimpleLieAlgebra with B(x_i,x_j) = delta_ij, B(e_a, e_b) = delta_{a,-b},
    [e_a, e_{-a}] = h_a; loaded entry arrays equal fresh ones bit for bit.

    Raises
    ------
    ConstructionFailure
        While assembling the constants: "positive root with no
        decomposition", "degenerate extraspecial recursion", "inexact
        division in a structure constant", "vanishing constant on a root
        sum".  Then on every algebra, built or loaded from the cache, in
        this order: "structure constants not real", "antisymmetry
        violated", "Jacobi identity violated", "invariance of the form
        violated", "Chevalley relations violated".
    """
    cache_dir = cache_dir if cache_dir is not None else os.environ.get(_CACHE_ENV)
    dim = rs.rank + rs.n_roots
    cached = _load_cache(cache_dir, rs.series, rs.rank, dim) if cache_dir else None
    const = _assemble_constants(rs) if cached is None else cached
    bform = np.zeros((dim, dim))
    bform[: rs.rank, : rs.rank] = np.eye(rs.rank)
    for i in range(rs.n_roots):
        bform[rs.rank + i, rs.rank + rs.neg(i)] = 1.0
    g = SimpleLieAlgebra(root_system=rs, dim=dim, structure_constants=const, bilinear_form=bform)
    _verify_algebra(g)
    if cache_dir and cached is None:
        _save_cache(cache_dir, rs.series, rs.rank, const)
    return g


def _cache_path(cache_dir: str, series: str, rank: int) -> str:
    return os.path.join(cache_dir, f"structure_{series}{rank}_v{_CACHE_VERSION}.json")


def _json_sha256(doc, **dumps) -> str:
    """Hex sha256 of json.dumps(doc, **dumps): the cache checksum and spec ids."""
    return _sha256(json.dumps(doc, **dumps).encode()).hexdigest()


def _entries_digest(entries: list) -> str:
    """sha256 of the entries list in compact canonical JSON."""
    return _json_sha256(entries, separators=(",", ":"))


def _save_cache(cache_dir: str, series: str, rank: int, const: tuple):
    os.makedirs(cache_dir, exist_ok=True)
    entries = [c.tolist() for c in const]
    doc = {"version": _CACHE_VERSION, "series": series, "rank": rank,
           "sha256": _entries_digest(entries), "entries": entries}
    # write beside the target and rename, so a reader never sees half a file
    path = _cache_path(cache_dir, series, rank)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh)
    os.replace(tmp, path)


def _load_cache(cache_dir: str, series: str, rank: int, dim: int) -> Optional[tuple]:
    """Cached entry arrays, or None when there is no usable cache file."""
    path = _cache_path(cache_dir, series, rank)
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            doc = json.load(fh)
        entries = doc["entries"]
        if (doc["version"], doc["series"], doc["rank"]) != (_CACHE_VERSION, series, rank):
            return None
        if doc["sha256"] != _entries_digest(entries):
            return None
        i, j, k, v = entries
        # four lists of one length: int indices (no bools or floats), int or float values
        shaped = len({len(i), len(j), len(k), len(v)}) == 1
        if not shaped or set(map(type, i + j + k)) - {int} or set(map(type, v)) - {int, float}:
            return None
        const = _entry_arrays(i, j, k, v)
    except (OSError, ValueError, TypeError, KeyError, OverflowError, RecursionError):
        return None
    in_range = all(np.all((c >= 0) & (c < dim)) for c in const[:3])
    return const if in_range and np.all(np.isfinite(const[3])) else None


@dataclass(frozen=True)
class CartanVector:
    """A point of the complexified Cartan dual in orthonormal coordinates."""

    coords: tuple

    @staticmethod
    def of(values) -> "CartanVector":
        return CartanVector(tuple(complex(v) for v in values))

    def as_array(self) -> np.ndarray:
        return np.array(self.coords, dtype=complex)

    def __add__(self, other: "CartanVector") -> "CartanVector":
        return CartanVector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "CartanVector") -> "CartanVector":
        return CartanVector(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def scale(self, c: complex) -> "CartanVector":
        return CartanVector(tuple(complex(c) * a for a in self.coords))

    @staticmethod
    def zero(rank: int) -> "CartanVector":
        return CartanVector((0j,) * rank)


def fundamental_weights(rs: RootSystemData) -> np.ndarray:
    """Rows are orthonormal coordinates of the fundamental weights.

    Defined by 2(w_i, a_j)/(a_j, a_j) = delta_ij over the simple roots.
    """
    simple = rs.roots[list(rs.simple_roots)]
    # (a_i, a_i)/2 is the exact ratio of integer lengths below, rounded once
    d = np.array([rs._len_sq[i] / rs._long_sq for i in rs.simple_roots])
    return np.diag(d) @ np.linalg.inv(simple.T)
