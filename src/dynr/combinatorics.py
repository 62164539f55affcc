"""Root-subset utilities: closed subsets, additive closure, polarization search.

Closed subsets (symmetric, additively closed sets of roots, held as sorted
root-index tuples) parametrize the zero-coupling families;
find_polarization constructively produces a regular vector whose positive
system contains a prescribed additively-closed, asymmetric set Y.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import PropertyViolated, SearchExhausted, SpecInvalid, TooLarge
from .lie_core import RootSystemData, fundamental_weights

_ENUM_MAX_RANK = 4
_POLARIZE_MAX_ITER = 20000  # perceptron steps find_polarization takes before SearchExhausted


def additive_closure(rs: RootSystemData, members: Iterable[int]) -> frozenset:
    """Smallest superset of the index set that is closed under root addition.

    The fixed point of a root mask that takes in every sum_table entry of
    two of its members; it stops when a pass adds no root.  SpecInvalid
    for an index outside range(n_roots), which a mask would wrap.
    """
    idx = [int(i) for i in members]
    if not all(0 <= i < rs.n_roots for i in idx):
        raise SpecInvalid(f"root index out of range 0..{rs.n_roots - 1}: {sorted(idx)}")
    mask = np.zeros(rs.n_roots, dtype=bool)
    mask[idx] = True
    size = 0
    while (held := np.flatnonzero(mask)).size > size:
        size = held.size
        sums = rs.sum_table[np.ix_(held, held)]
        mask[sums[sums >= 0]] = True
    return frozenset(held.tolist())


def is_closed_subset(rs: RootSystemData, members: Iterable[int]) -> bool:
    """True iff the index set is stable under negation and root addition."""
    xs = frozenset(int(i) for i in members)
    return all(rs.neg(i) in xs for i in xs) and additive_closure(rs, xs) == xs


def enumerate_closed_subsets(rs: RootSystemData) -> list:
    """All closed subsets, for rank <= 4, as sorted root-index tuples ordered
    by size, then lexicographically.

    Symmetry pairs (a, -a) are chosen as units; a depth-first search adds
    one positive root at a time, forcing in any root sum of two chosen
    members and abandoning branches whose forced sum was already excluded.
    Every pair of chosen units has its sums looked up when the later one is
    added, so each result is closed.

    Raises
    ------
    TooLarge for rank > 4.
    """
    if rs.rank > _ENUM_MAX_RANK:
        raise TooLarge(f"closed-subset enumeration limited to rank <= {_ENUM_MAX_RANK}")
    units = list(rs.positive_roots)
    unit_of = {}  # the position in units of each root and of its negative
    for n, u in enumerate(units):
        unit_of[u] = unit_of[rs.neg(u)] = n
    results = []

    # decisions[n]: None undecided, True in, False out
    def walk(n: int, decisions: list):
        if n == len(units):
            results.append(tuple(sorted(d for u, flag in zip(units, decisions) if flag for d in (u, rs.neg(u)))))
            return
        u = units[n]
        forced = decisions[n]
        if forced is not True:
            out = list(decisions)
            out[n] = False
            walk(n + 1, out)
        if forced is not False:
            inc = list(decisions)
            inc[n] = True
            for v in [units[m] for m in range(n + 1) if inc[m]]:
                # the units of the sums of +-u with +-v are forced in
                for s in (rs.add(u, v), rs.add(u, rs.neg(v))):
                    if s is None:
                        continue
                    if inc[unit_of[s]] is False:
                        return  # a forced unit is already out: no closed subset here
                    inc[unit_of[s]] = True
            walk(n + 1, inc)

    walk(0, [None] * len(units))
    results.sort(key=lambda t: (len(t), t))
    return results


@dataclass(frozen=True)
class PolarizationResult:
    """Output of find_polarization."""

    vector: tuple  # regular vector in orthonormal coordinates
    positive: tuple  # root indices with (root, vector) > 0
    margin: float  # min pairing over the input Y (inf when Y is empty)


def _check_properties(rs: RootSystemData, y: Sequence[int]):
    ys = set(int(i) for i in y)
    for i in ys:
        if rs.neg(i) in ys:
            raise PropertyViolated(f"property B fails: both {i} and its negative are in Y")
    outside = additive_closure(rs, ys) - ys
    if outside:
        raise PropertyViolated(
            f"property A fails: root sums {sorted(outside)} fall outside Y"
        )


def find_polarization(rs: RootSystemData, y: Iterable[int]) -> PolarizationResult:
    """Regular vector v with (a, v) > 0 for all a in Y, plus its positive system.

    Y must be additively closed within the root system (property A) and
    meet no root together with its negative (property B); those conditions
    guarantee a solution exists.  Y then lies in some positive system, so
    a batch perceptron iteration converges to a vector positive on Y; a
    deterministic perturbation along a regular vector then clears any root
    orthogonal to it.

    Raises
    ------
    PropertyViolated when Y fails property A or B.
    SearchExhausted if no vector is found within _POLARIZE_MAX_ITER iterations.
    """
    ys = sorted(set(int(i) for i in y))
    _check_properties(rs, ys)
    rows = rs.roots[ys] if ys else np.zeros((0, rs.rank))
    scale = float(np.max(np.abs(rs.roots)))

    def regular_margin(v: np.ndarray) -> float:
        return float(np.min(np.abs(rs.roots @ v)))

    def finish(v: np.ndarray) -> PolarizationResult:
        v = v / np.linalg.norm(v)
        pairings = rs.roots @ v
        positive = tuple(int(i) for i in range(rs.n_roots) if pairings[i] > 0)
        if len(positive) * 2 != rs.n_roots:
            raise SearchExhausted("candidate vector is not regular")
        margin = float(np.min(rows @ v)) if ys else float("inf")
        if ys and margin <= 0:
            raise SearchExhausted("candidate vector lost positivity on Y")
        return PolarizationResult(tuple(float(c) for c in v), positive, margin)

    if not ys:
        return finish(fundamental_weights(rs).sum(axis=0))

    v = rows.sum(axis=0)
    if not np.any(v):
        v = fundamental_weights(rs).sum(axis=0)
    tol = 1e-9 * scale
    for _ in range(_POLARIZE_MAX_ITER):
        bad = rows[(rows @ v) <= tol]
        if len(bad) == 0:
            break
        v = v + bad.sum(axis=0)
    else:
        raise SearchExhausted(f"no vector positive on Y within {_POLARIZE_MAX_ITER} iterations")

    # clear accidental orthogonality against the full root set
    if regular_margin(v) > tol:
        return finish(v)
    w = fundamental_weights(rs).sum(axis=0)
    y_margin = float(np.min(rows @ v))
    cap = y_margin / (2 * scale * np.linalg.norm(w) + 1e-30)
    delta = cap
    for _ in range(60):
        for cand in (v + delta * w, v - delta * w):
            if regular_margin(cand) > tol and float(np.min(rows @ cand)) > 0:
                return finish(cand)
        delta /= 2
    raise SearchExhausted("no regular vector positive on Y within budget")
