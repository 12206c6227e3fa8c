"""Signatures of group-valued paths.

For a geodesic from the identity to g the signature is exactly
``exp_tensor(model.log(g), N)``.  General C^1 paths are handled by a
chordal scheme: pull each sampled chord (g_i, g_{i+1}) back to the algebra
increment u_i = log(g_i^{-1} g_{i+1}), take the exact signature
exp_tensor(u_i) of the replacing geodesic chord, and Chen-multiply them in
order (the product is associative, so the grouping is free).  Chord signatures
and Chen composition are exact, so the only error is the piecewise-geodesic
replacement of the path, first order in the mesh for C^1 paths.  The caller
picks the mesh: a chord that crosses the cut locus raises ``MeshError``.

Every stage is batched over chords.  ``chord_increments`` stacks the points
once and takes all m increments with one broadcast ``inverse``,
``multiply`` and ``log`` of the group model, as an (m, dim) array.
``_block_signature`` cuts a block of those rows into runs of
``_RUN_CHORDS`` chords and multiplies each run's chord exponentials into
one row by Horner steps, never forming exp_tensor(u_i) past a run's first
chord: about (3/2) sum_k n^k multiply-adds per chord at n = 3, against
sum_k (k-1) n^k per Chen product plus sum_k n^k per exponential.  All runs
step at once, and the ceil(m / _RUN_CHORDS) rows, the largest block that
is held, are then Chen-multiplied pairwise in rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .groups import CutLocusError, ProductGroup
from .tensor import TruncatedTensorSeries, _check_budget, concat_product

_BLOCK_COEFFS = 1 << 22  # chords are reduced in blocks of at most this many coefficients
_RUN_CHORDS = 32  # chords multiplied into one row by Horner steps before the rows are paired
_OUTER = "ri,rj->rij"  # row by row outer product, the first factor's index slowest

__all__ = [
    "SampledPath",
    "MeshError",
    "path_signature_numeric",
    "sample_curve",
]


class MeshError(RuntimeError):
    """A chord crossed the cut locus; the sampling mesh is too coarse."""


@dataclass(frozen=True)
class SampledPath:
    """A path sampled at strictly increasing times 0 = t_0 < ... < t_m = 1."""

    model: object
    times: np.ndarray
    points: tuple

    def __post_init__(self):
        t = np.ascontiguousarray(self.times, dtype=np.float64)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("need at least two sample times")
        if t[0] != 0.0 or t[-1] != 1.0 or np.any(np.diff(t) <= 0):
            raise ValueError("times must increase strictly from 0 to 1")
        if len(self.points) != t.size:
            raise ValueError("one point per sample time")
        t.flags.writeable = False
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "points", tuple(self.points))


def _chord_ends(model, points) -> tuple:
    """Stacked starts g_0..g_{m-1} and ends g_1..g_m of the chords, in the
    model's batch layout: an array of angles or of (w, x, y, z) rows, or
    for a product one such stack per factor."""
    if isinstance(model, ProductGroup):
        ends = [_chord_ends(f, col) for f, col in zip(model.factors, zip(*points))]
        return tuple(a for a, _ in ends), tuple(b for _, b in ends)
    g = np.asarray(points, dtype=np.float64)
    return g[:-1], g[1:]


def chord_increments(path: SampledPath) -> np.ndarray:
    """Algebra increments u_i = log(g_i^{-1} g_{i+1}) of consecutive chords,
    one row per chord: an (m, dim) array."""
    model = path.model
    a, b = _chord_ends(model, path.points)
    try:
        return model.log(model.multiply(model.inverse(a), b))
    except CutLocusError as exc:
        raise MeshError("a chord crosses the cut locus; refine the sampling mesh") from exc


def _block_signature(u: np.ndarray, N: int) -> TruncatedTensorSeries:
    """The in-order Chen product of exp_tensor(u_i, N) over the rows u_i of
    u.

    The m chords are cut into consecutive runs of ``_RUN_CHORDS``, one row
    per run.  Each row starts at its run's first exponential, with
    exp_tensor's arithmetic.  Step j multiplies every row by the exponential
    of its run's chord j at once, with the Horner form of S (x) exp(v),
    S_k += (...((S_1 + v/k) (x) v/(k-1) + S_2) (x) ...) (x) v/1, from the
    top level down (S_0 = 1).  A short last run drops out of the later
    steps by row slicing.  The ceil(m / _RUN_CHORDS) rows are then
    multiplied in rounds, neighbours (0, 1), (2, 3), ... by batched outer
    products, an odd last one carried, so no block holds more than
    ceil(m / _RUN_CHORDS) rows.

    Until the end, level k holds its words with their letters reversed, the
    last letter slowest: appending a letter is then an outer product whose
    inner loop runs over the whole block rather than over n letters.  The
    first exponential multiplies as u_j * c where exp_tensor has c * u_j,
    which rounds the same, so one chord still comes out bitwise equal to
    exp_tensor."""
    first = u[::_RUN_CHORDS]
    n, m, levels, cur = u.shape[1], len(first), [], np.ones((1, 1))
    for k in range(1, N + 1):
        cur = (first[:, :, None] * cur[:, None, :]).reshape(m, -1)
        cur /= k  # in place: one (m, n^k) block per level, not two
        levels.append(cur)
    scale = np.arange(1.0, N + 1)[:, None, None]
    for j in range(1, min(_RUN_CHORDS, len(u))):
        v = u[j::_RUN_CHORDS]
        h = len(v)
        w = v / scale  # w[i] = v/(i+1)
        for k in range(N, 1, -1):
            acc = levels[0][:h] + w[k - 1]
            for i in range(1, k - 1):
                acc = np.einsum(_OUTER, w[k - 1 - i], acc).reshape(h, -1)
                acc += levels[i][:h]
            levels[k - 1][:h] += np.einsum(_OUTER, w[0], acc).reshape(h, -1)
        levels[0][:h] += v
    while m > 1:
        h = m // 2
        a, b = [lv[0 : 2 * h : 2] for lv in levels], [lv[1 : 2 * h : 2] for lv in levels]
        out = []
        for k in range(N):
            acc = b[k] + a[k]
            for i in range(k):  # a's word then b's, reversed: b's letters lead
                acc += np.einsum(_OUTER, b[k - 1 - i], a[i]).reshape(h, -1)
            out.append(np.concatenate([acc, levels[k][2 * h :]]) if m % 2 else acc)
        levels, m = out, m - h
    words = (lv[0].reshape((n,) * k).T.ravel() for k, lv in enumerate(levels, 1))
    return TruncatedTensorSeries(n, N, (np.ones(1), *words))


def path_signature_numeric(path: SampledPath, N: int) -> TruncatedTensorSeries:
    """Chordal signature of a sampled path, truncated at depth N: blocks of
    chords reduced by ``_block_signature`` and folded left to right."""
    n = path.model.dim
    _check_budget(n, N)
    u = chord_increments(path)
    step = max(1, _BLOCK_COEFFS // max(1, sum(n**k for k in range(1, N + 1))))
    blocks = np.split(u, range(step, len(u), step))
    return reduce(concat_product, (_block_signature(b, N) for b in blocks))


def sample_curve(model, curve, chords: int) -> SampledPath:
    """Sample a callable t -> group point at chords+1 uniform times."""
    times = np.linspace(0.0, 1.0, chords + 1)
    return SampledPath(model, times, tuple(curve(float(t)) for t in times))

