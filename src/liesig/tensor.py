"""Truncated tensor-series algebra over R^n.

A series is stored densely: one contiguous float64 block per tensor level,
with level k holding the n^k coefficients of the word basis
e_{i_1} x ... x e_{i_k} in row-major multi-index order.  This is the home
of path signatures and what the pipeline does to them: the tensorial
exponential, the Chen (concatenation) product, the shuffle of two levels
and the pairwise-contraction trace.  A symmetric level, such as a Haar
average's, is held as its monomials and their word counts instead.

All values are immutable after construction and all operations are pure,
so series can be shared freely across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

__all__ = [
    "TruncatedTensorSeries",
    "BudgetError",
    "exp_tensor",
    "concat_product",
    "shuffle_levels",
    "hilbert_distance",
    "trace_level",
    "monomial_levels",
    "expand_words",
    "MonomialLevel",
    "SymmetricLevel",
    "COEFF_BUDGET",
]

# Dense storage refuses above this many total coefficients (sum of n^k).
COEFF_BUDGET = 100_000_000


class BudgetError(ValueError):
    """Requested dimension/depth combination exceeds the dense coefficient budget."""


def _over_budget(dim: int, depth: int) -> bool:
    # adds dim**k only until the budget is passed: at a huge depth the full
    # count is a big integer with thousands of digits
    if dim == 1:
        return depth + 1 > COEFF_BUDGET
    total, term = 0, 1
    for _ in range(depth + 1):
        total += term
        if total > COEFF_BUDGET:
            return True
        term *= dim
    return False


def _check_budget(dim: int, depth: int) -> None:
    if _over_budget(dim, depth):
        raise BudgetError(
            f"dense series with dim={dim}, depth={depth} needs more than "
            f"{COEFF_BUDGET} coefficients (the budget)"
        )


@dataclass(frozen=True)
class TruncatedTensorSeries:
    """Tensor series over R^dim truncated at tensor level ``depth``.

    levels[k] is the flat float64 coefficient block of level k, length dim**k.
    """

    dim: int
    depth: int
    levels: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        if self.depth < 0:
            raise ValueError("depth must be >= 0")
        if len(self.levels) != self.depth + 1:
            raise ValueError("expected one coefficient block per level 0..depth")
        frozen = []
        for k, lv in enumerate(self.levels):
            arr = np.ascontiguousarray(lv, dtype=np.float64)
            if arr.shape != (self.dim**k,):
                raise ValueError(f"level {k} must have {self.dim ** k} coefficients")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"level {k} contains non-finite coefficients")
            arr.flags.writeable = False
            frozen.append(arr)
        object.__setattr__(self, "levels", tuple(frozen))


@dataclass(frozen=True)
class MonomialLevel:
    """The C(n+k-1, k) monomials of level k and how words map onto them.

    Monomials are the sorted index tuples i_1 <= ... <= i_k in colex order
    (by last letter, then by the rest), so those ending in j are the first
    monomials of level k-1, ``parent[m]``, followed by ``last[m]`` = j.
    ``table[p, j]`` is the monomial of the level-(k-1) monomial p with the
    letter j added, so the monomial of every word follows a level at a time
    (``expand_words``); ``multiplicity[m]`` counts the words of monomial m.
    """

    parent: np.ndarray
    last: np.ndarray
    table: np.ndarray
    multiplicity: np.ndarray


def monomial_levels(n: int, N: int) -> list[MonomialLevel]:
    """Monomials and transition tables of levels 0..N over R^n.

    Level k's monomials ending in j are numbered from off[j].  Adding a
    letter j to p gives T[p, j] = off[j] + p when j >= last[p], else
    off[last[p]] + T_{k-1}[q, j] with q the parent of p.  Word counts
    k!/beta! are the parent's times k / beta_j, j the last letter.
    """
    letters = np.arange(n)
    parent = last = run = np.zeros(1, dtype=np.intp)
    # every letter extends the empty monomial, so the level-0 table is unread
    table = np.zeros((1, n), dtype=np.intp)
    out = [MonomialLevel(parent, last, table, np.ones(1))]
    for k in range(1, N + 1):
        counts = np.cumsum(np.bincount(last, minlength=n))
        off = np.cumsum(counts) - counts
        p = np.arange(len(last))[:, None]
        r = np.where(letters >= last[:, None], p, table[parent[:, None], letters])
        table = off[np.maximum(letters, last[:, None])] + r
        parent = np.arange(counts.sum()) - np.repeat(off, counts)
        prev, last = last, np.repeat(letters, counts)
        # the empty monomial's run is 0, so its letter-0 child's is 1
        run = np.where(prev[parent] == last, run[parent], 0) + 1
        out.append(MonomialLevel(parent, last, table, out[-1].multiplicity[parent] * k / run))
    return out


@dataclass(frozen=True)
class SymmetricLevel:
    """Level k of a symmetric series: its monomial values in the order of
    ``monomials``, which is ``monomial_levels(n, N)`` for some N >= k."""

    monomials: list[MonomialLevel]
    k: int
    values: np.ndarray

    def words(self) -> np.ndarray:
        return expand_words(self.monomials, self.k, self.values)


def expand_words(levels: list[MonomialLevel], k: int, values: np.ndarray) -> np.ndarray:
    """Expand level k of a symmetric series from monomials to its n^k words.

    ``values`` holds the level's C(n+k-1, k) monomial values.  Word (u, j)
    has the monomial T_k[w_{k-1}[u], j], with w_{k-1} the monomial of each
    word of level k-1 (w_k = T_k[w_{k-1}], raveled).  The level is the
    gather ``values[T_k][w_{k-1}]``, raveled, so at most two levels below k
    have a word index alive at once and level k's n^k index is never formed.
    A level of one monomial (k = 0 or n = 1) is one word.
    """
    if len(values) == 1:
        return np.array(values)
    index = np.zeros(1, dtype=np.intp)
    for lvl in levels[1:k]:
        index = lvl.table[index].ravel()
    return values[levels[k].table][index].ravel()


def _check_compatible(a: TruncatedTensorSeries, b: TruncatedTensorSeries) -> None:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.depth != b.depth:
        raise ValueError(f"depth mismatch: {a.depth} vs {b.depth}")


def exp_tensor(v: np.ndarray, N: int) -> TruncatedTensorSeries:
    """Tensorial exponential: level k equals v^{x k} / k!."""
    v = np.ascontiguousarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("v must be a nonempty 1-D vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("v must be finite")
    n = v.size
    _check_budget(n, N)
    levels = [np.ones(1)]
    cur = np.ones(1)
    for k in range(1, N + 1):
        cur = (cur[:, None] * v[None, :]).ravel() / k
        levels.append(cur)
    return TruncatedTensorSeries(n, N, tuple(levels))


def concat_product(
    a: TruncatedTensorSeries, b: TruncatedTensorSeries
) -> TruncatedTensorSeries:
    """Chen (concatenation) product; levels above the shared depth are dropped."""
    _check_compatible(a, b)
    n, N = a.dim, a.depth
    out = [np.zeros(n**k) for k in range(N + 1)]
    for i, ai in enumerate(a.levels):
        for j in range(N + 1 - i):
            out[i + j] += np.multiply.outer(ai, b.levels[j]).ravel()
    return TruncatedTensorSeries(n, N, tuple(out))


def shuffle_levels(x: np.ndarray, p: int, y: np.ndarray, q: int, n: int) -> np.ndarray:
    """Shuffle product of a rank-p level block with a rank-q block (flat,
    row-major).

    Sums outer(x, y) over all order-preserving interleavings of the p slots of
    x with the q slots of y, x's slots at each p-subset of the result's
    positions in ``itertools.combinations`` order.  Ranks are explicit: for
    n = 1 every level has one coefficient and the rank cannot be read off
    the shape, yet the interleaving count C(p+q, p) still matters.  Cost is
    C(p+q, p) * n^(p+q).
    """
    if x.size != n**p or y.size != n**q:
        raise ValueError("level block size does not match the stated rank")
    if p == 0:
        return y * x[0]
    if q == 0:
        return x * y[0]
    if n == 1:
        return math.comb(p + q, p) * x * y
    outer = np.multiply.outer(x.reshape((n,) * p), y.reshape((n,) * q))
    out = np.zeros((n,) * (p + q))
    for slots in combinations(range(p + q), p):
        rest = [t for t in range(p + q) if t not in slots]
        out += np.moveaxis(outer, range(p + q), [*slots, *rest])
    return out.ravel()


def hilbert_distance(a: TruncatedTensorSeries, b: TruncatedTensorSeries) -> float:
    """Distance in the norm that takes the word basis as orthonormal at every level."""
    _check_compatible(a, b)
    return math.sqrt(
        sum(float(np.sum((x - y) ** 2)) for x, y in zip(a.levels, b.levels))
    )


def trace_level(x: TruncatedTensorSeries, k: int) -> float:
    """Pairwise contraction of level k on the slot pairs (1,2), (3,4), ...

    Odd levels contract to zero by convention; level 0 returns its single
    coefficient.
    """
    if k > x.depth:
        raise ValueError(f"level {k} exceeds depth {x.depth}")
    if k == 0:
        return float(x.levels[0][0])
    if k % 2 == 1:
        return 0.0
    n = x.dim
    cur = x.levels[k]
    for _ in range(k // 2):
        cur = np.einsum("iij->j", cur.reshape(n, n, -1))
    return float(cur[0])
