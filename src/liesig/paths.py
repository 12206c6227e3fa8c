"""Signatures of group-valued paths.

For a geodesic from the identity the signature is exactly the tensor
exponential of the endpoint log.  General C^1 paths are handled by a
chordal scheme: pull each sampled chord (g_i, g_{i+1}) back to the algebra
increment u_i = log(g_i^{-1} g_{i+1}), take the exact signature
exp_tensor(u_i) of the replacing geodesic chord, and Chen-concatenate left
to right.  Chord signatures are exact and Chen composition is exact, so the
only error is the piecewise-geodesic replacement of the path, which is
first order in the mesh for C^1 paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import CutLocusError
from .tensor import TruncatedTensorSeries, concat_product, exp_tensor, unit_series

__all__ = [
    "SampledPath",
    "MeshError",
    "geodesic_signature",
    "path_signature_numeric",
    "sample_curve",
    "signature_of_curve",
]

DEFAULT_CHORDS = 1024
MAX_CHORDS = 1 << 16


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


def geodesic_signature(model, g, N: int) -> TruncatedTensorSeries:
    """Signature of the minimizing geodesic from the identity to g."""
    return exp_tensor(model.log(g), N)


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


def path_signature_numeric(path: SampledPath, N: int) -> TruncatedTensorSeries:
    """Chordal signature of a sampled path, truncated at depth N."""
    sig = unit_series(path.model.dim, N)
    for u in chord_increments(path):
        sig = concat_product(sig, exp_tensor(u, N))
    return sig


def sample_curve(model, curve, chords: int) -> SampledPath:
    """Sample a callable t -> group point at chords+1 uniform times."""
    times = np.linspace(0.0, 1.0, chords + 1)
    return SampledPath(model, times, tuple(curve(float(t)) for t in times))


def signature_of_curve(
    model, curve, N: int, chords: int = DEFAULT_CHORDS, max_chords: int = MAX_CHORDS
) -> TruncatedTensorSeries:
    """Chordal signature of a continuous curve, doubling the mesh on cut-locus
    crossings up to max_chords before giving up."""
    m = chords
    while True:
        try:
            return path_signature_numeric(sample_curve(model, curve, m), N)
        except MeshError:
            if 2 * m > max_chords:
                raise
            m *= 2
