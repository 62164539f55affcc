"""Root-subset utilities: closed subsets, additive closure, polarization search.

Closed subsets (symmetric, additively closed sets of roots) parametrize the
zero-coupling families; find_polarization constructively produces a
regular vector whose positive system contains a prescribed
additively-closed, asymmetric set Y.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import PropertyViolated, SearchExhausted, SpecInvalid, TooLarge
from .lie_core import RootSystemData, fundamental_weights

_ENUM_MAX_RANK = 4


@dataclass(frozen=True)
class RootSubset:
    """A set of root indices over a fixed root system."""

    root_system: RootSystemData
    members: tuple
    _set: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.root_system.n_roots
        mem = tuple(sorted(int(i) for i in set(self.members)))
        for i in mem:
            if not 0 <= i < n:
                raise SpecInvalid(f"root index {i} out of range 0..{n - 1}")
        object.__setattr__(self, "members", mem)
        object.__setattr__(self, "_set", frozenset(mem))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, idx: int) -> bool:
        return int(idx) in self._set

    def as_set(self) -> frozenset:
        return self._set


def additive_closure(rs: RootSystemData, members: Iterable[int]) -> frozenset:
    """Smallest superset of the index set that is closed under root addition.

    Every newly added root is paired with every member once, so each sum of
    two members of the result has been looked up.
    """
    out = set(int(i) for i in members)
    pending = list(out)
    while pending:
        i = pending.pop()
        for j in list(out):
            s = rs.add(i, j)
            if s is not None and s not in out:
                out.add(s)
                pending.append(s)
    return frozenset(out)


def is_closed_subset(rs: RootSystemData, members: Iterable[int]) -> bool:
    """True iff the index set is stable under negation and root addition."""
    xs = frozenset(int(i) for i in members)
    return all(rs.neg(i) in xs for i in xs) and additive_closure(rs, xs) == xs


def enumerate_closed_subsets(rs: RootSystemData) -> list:
    """All closed subsets, for rank <= 4, in deterministic order.

    Symmetry pairs (a, -a) are chosen as units; a depth-first search adds
    one positive root at a time, forcing in any root sum of two chosen
    members and abandoning branches whose forced sum was already excluded.

    Raises
    ------
    TooLarge for rank > 4.
    """
    if rs.rank > _ENUM_MAX_RANK:
        raise TooLarge(f"closed-subset enumeration limited to rank <= {_ENUM_MAX_RANK}")
    units = list(rs.positive_roots)
    unit_pos = {u: n for n, u in enumerate(units)}

    def pos_rep(idx: int) -> int:
        return idx if idx in unit_pos else rs.neg(idx)

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
            ok = True
            chosen = [units[m] for m in range(n + 1) if inc[m]]
            for v in chosen:
                # sums of +-u with +-v, reduced to positive representatives
                for s in (rs.add(u, v), rs.add(u, rs.neg(v))):
                    if s is None:
                        continue
                    w = pos_rep(s)
                    m = unit_pos[w]
                    if inc[m] is False:
                        ok = False
                        break
                    inc[m] = True
                if not ok:
                    break
            if ok:
                walk(n + 1, inc)

    walk(0, [None] * len(units))
    results.sort(key=lambda t: (len(t), t))
    out = [RootSubset(rs, t) for t in results]
    for sub in out:
        if not is_closed_subset(rs, sub.members):
            raise SpecInvalid("enumeration produced a non-closed subset")
    return out


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


def find_polarization(rs: RootSystemData, y: Iterable[int], max_iter: int = 20000) -> PolarizationResult:
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
    SearchExhausted if no vector is found within the iteration budget.
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
    for _ in range(max_iter):
        bad = rows[(rows @ v) <= tol]
        if len(bad) == 0:
            break
        v = v + bad.sum(axis=0)
    else:
        raise SearchExhausted(f"no vector positive on Y within {max_iter} iterations")

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
