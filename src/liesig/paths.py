"""Signatures of group-valued paths.

For a geodesic from the identity to g the signature is exactly
``exp_tensor(model.log(g), N)``.  General C^1 paths are handled by a
chordal scheme: pull each sampled chord (g_i, g_{i+1}) back to the algebra
increment u_i = log(g_i^{-1} g_{i+1}), take the exact signature
exp_tensor(u_i) of the replacing geodesic chord, and Chen-multiply them in
order, pairwise in a tree (the product is associative).  Chord signatures
and Chen composition are exact, so the only error is the piecewise-geodesic
replacement of the path, first order in the mesh for C^1 paths.  The caller
picks the mesh: a chord that crosses the cut locus raises ``MeshError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .groups import CutLocusError
from .tensor import TruncatedTensorSeries, _check_budget, concat_product

_BLOCK_COEFFS = 1 << 22  # chords are reduced in blocks of at most this many coefficients

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


def chord_increments(path: SampledPath) -> list[np.ndarray]:
    """Algebra increments u_i = log(g_i^{-1} g_{i+1}) of consecutive chords."""
    model = path.model
    out = []
    for a, b in zip(path.points[:-1], path.points[1:]):
        try:
            out.append(model.log(model.multiply(model.inverse(a), b)))
        except CutLocusError as exc:
            raise MeshError(
                "a chord crosses the cut locus; refine the sampling mesh"
            ) from exc
    return out


def _block_signature(u: np.ndarray, N: int) -> TruncatedTensorSeries:
    """The in-order Chen product of exp_tensor(u_i, N) over the rows u_i of
    u: every chord exponentiated at once with exp_tensor's arithmetic,
    level k as one (m, n^k) block, then the neighbours (0, 1), (2, 3), ...
    multiplied in rounds by batched outer products, an odd last one carried."""
    m, levels, cur = len(u), [], np.ones((len(u), 1))
    for k in range(1, N + 1):
        cur = (cur[:, :, None] * u[:, None, :]).reshape(m, -1)
        cur /= k  # in place: one (m, n^k) block per level, not two
        levels.append(cur)
    while m > 1:
        h = m // 2
        a, b = [lv[0 : 2 * h : 2] for lv in levels], [lv[1 : 2 * h : 2] for lv in levels]
        out = []
        for k in range(N):
            acc = b[k] + a[k]
            for i in range(k):
                acc += (a[i][:, :, None] * b[k - 1 - i][:, None, :]).reshape(h, -1)
            out.append(np.concatenate([acc, levels[k][2 * h :]]) if m % 2 else acc)
        levels, m = out, m - h
    return TruncatedTensorSeries(u.shape[1], N, (np.ones(1), *(lv[0] for lv in levels)))


def path_signature_numeric(path: SampledPath, N: int) -> TruncatedTensorSeries:
    """Chordal signature of a sampled path, truncated at depth N: blocks of
    chords reduced by ``_block_signature`` and folded left to right."""
    n = path.model.dim
    _check_budget(n, N)
    u = np.array(chord_increments(path), dtype=np.float64)
    step = max(1, _BLOCK_COEFFS // max(1, sum(n**k for k in range(1, N + 1))))
    blocks = np.split(u, range(step, len(u), step))
    return reduce(concat_product, (_block_signature(b, N) for b in blocks))


def sample_curve(model, curve, chords: int) -> SampledPath:
    """Sample a callable t -> group point at chords+1 uniform times."""
    times = np.linspace(0.0, 1.0, chords + 1)
    return SampledPath(model, times, tuple(curve(float(t)) for t in times))

