"""Rescaled trace spectra of average signatures.

The rescaled trace at level 2k, rtr_{2k} = (2k)! tr(A_{2k}), equals the k-th
moment of the squared distance d(e, g)^2 under the normalised Haar measure.
That identity gives three independent routes to the same sequence:

  * contraction of an averaged tensor series (``rtr_spectrum``),
  * direct evaluation of the radial moments the group model provides
    (``radial_moments`` and ``exact_radial_moments``),
  * Monte Carlo moments of sampled distances.

Deterministic constructors also carry high-precision (mpmath) values of the
same numbers.  Those are required by the polynomial moment inversion in
``recovery``: pairing degree-d monomials against moments amplifies relative
input error by roughly 10^(0.77 d), so float64 spectra are unusable there
beyond small degrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

from .average import AverageSignatureResult, _is_torus
# su2_radial_integrals_mp lives with SU2Group and is re-exported here,
# where the benchmark's tracer looks it up
from .groups import GAUSS_LEGENDRE_NODES, _store_dps, map_chunks, mean_stderr, stream, su2_radial_integrals_mp
from .tensor import trace_level

__all__ = [
    "TraceSpectrum",
    "rtr_spectrum",
    "spectrum_closed_form",
    "spectrum_quadrature",
    "spectrum_monte_carlo",
    "su2_radial_integrals_mp",
]

# draws per chunk of the iid stream; recovery's iid radial CDF lays out the
# same chunks, so chunk c of either holds the same draws
IID_CHUNK = 1 << 16
# largest relative gap a quadrature spectrum's float values may have from
# its exact moments
QUADRATURE_TOL = 1e-6


@dataclass(frozen=True)
class TraceSpectrum:
    """The sequence r_{2k} = rtr(A_{2k}) for k = 0..K.

    values[k] is r_{2k} in float64; mp_values, when present, holds the same
    numbers as mpmath floats with enough digits for high-degree moment
    pairing.  provenance records how the sequence was produced.
    """

    values: np.ndarray
    K: int
    provenance: dict = field(default_factory=dict)
    mp_values: tuple | None = None
    stderr: np.ndarray | None = None

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if v.shape != (self.K + 1,):
            raise ValueError("expected K+1 spectrum values")
        if self.mp_values is not None and len(self.mp_values) != self.K + 1:
            raise ValueError("expected K+1 mp_values")
        if self.stderr is not None and np.shape(self.stderr) != (self.K + 1,):
            raise ValueError("expected K+1 stderr values")
        if abs(v[0] - 1.0) > 1e-12:
            raise ValueError("r_0 must equal 1")
        _require_finite(v, "r_2k")
        if self.stderr is not None:
            _require_finite(self.stderr, "stderr")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def to_json_dict(self) -> dict:
        out = {"K": self.K, "rtr": self.values.tolist()}
        out.update({k: v for k, v in self.provenance.items()})
        if self.stderr is not None:
            out["stderr"] = self.stderr.tolist()
        return out


def _require_finite(values: np.ndarray, name: str) -> None:
    finite = np.isfinite(values)
    if not np.all(finite):
        raise ValueError(f"first non-finite {name} at k = {int(np.argmin(finite))}")


def rtr_spectrum(avg: AverageSignatureResult, K: int) -> TraceSpectrum:
    """Contract an averaged tensor: r_{2k} = (2k)! tr(level 2k)."""
    if avg.tensor.depth < 2 * K:
        raise ValueError(f"need depth >= {2 * K}, have {avg.tensor.depth}")
    vals = np.array(
        [math.factorial(2 * k) * trace_level(avg.tensor, 2 * k) for k in range(K + 1)]
    )
    prov = {"method": avg.method, "samples": avg.samples, "seed": avg.seed}
    return TraceSpectrum(vals, K, prov)


def spectrum_closed_form(model, K: int) -> TraceSpectrum:
    """Exact spectrum for the circle and products of circles.

    Circle: r_{2k} = pi^{2k} / (2k+1); products by the binomial convolution
    rtr(C_{2N}) = sum_k C(N,k) rtr(A_{2k}) rtr(B_{2N-2k}).
    """
    if not _is_torus(model):
        raise ValueError("closed form spectrum covers the circle and circle products")
    mp_vals = model.exact_radial_moments(K, _store_dps(K))
    vals = np.array([float(v) for v in mp_vals])
    return TraceSpectrum(vals, K, {"method": "closed_form"}, mp_values=mp_vals)


def spectrum_quadrature(model, K: int, nodes: int = GAUSS_LEGENDRE_NODES) -> TraceSpectrum:
    """Deterministic spectrum of any model with radial moments.

    float64 values are the model's Gauss-Legendre ``radial_moments``; the
    attached mp values are its ``exact_radial_moments``, built only once
    the float values are known to be finite.  The largest relative gap
    between the two is recorded as ``quadrature_residual``; above
    ``QUADRATURE_TOL`` (too few nodes for K) the spectrum is refused.
    """
    # an overflowing power is refused below, so numpy need not warn of it
    with np.errstate(over="ignore"):
        vals = model.radial_moments(K, nodes)
    vals[0] = 1.0
    _require_finite(vals, "r_2k")
    exact = model.exact_radial_moments(K, _store_dps(K))
    with mp.workprec(53):  # a fixed precision, so the recorded residual is too
        residual = max(float(abs((v - e) / e)) for v, e in zip(vals.tolist(), exact))
    if residual > QUADRATURE_TOL:
        raise ValueError(
            f"quadrature with {nodes} nodes is {residual:.2g} off the exact moments "
            f"(relative, tolerance {QUADRATURE_TOL:g}); use a smaller K"
        )
    prov = {"method": "quadrature", "nodes": nodes, "quadrature_residual": residual}
    return TraceSpectrum(vals, K, prov, mp_values=exact)


def spectrum_monte_carlo(
    model,
    K: int,
    samples: int,
    seed: int,
    threads: int = 1,
) -> TraceSpectrum:
    """Spectrum as empirical moments of d(e, g)^2 over chunked Haar draws.

    Chunk c takes ``IID_CHUNK`` draws from stream(seed, c), as the tensor
    Monte Carlo does in chunks of ``mc_chunk_size``; where the two sizes
    agree, both read the identical sample stream.
    """

    def chunk_sums(c, _start, size):
        v = model.sample_log_batch(stream(seed, c), size)
        d2 = np.einsum("bi,bi->b", v, v)
        # powers d2^k by running products, two contiguous rows at a time,
        # not a (K + 1)-row table: numpy sums each row of a 2-D block the
        # same way for any row count above one, so the sums are bitwise
        # those of the whole table.  A lone last row K goes with row K - 1.
        s, q = np.empty(K + 1), np.empty(K + 1)
        pw = np.ones((min(K + 1, 2), size))
        lo = 0
        while True:
            if len(pw) == 2:
                np.multiply(pw[0], d2, out=pw[1])
            hi = lo + len(pw)
            s[lo:hi], q[lo:hi] = pw.sum(axis=1), np.einsum("kb,kb->k", pw, pw)
            if hi > K:
                return s, q
            lo = min(hi, K - 1)
            if lo == hi:
                np.multiply(pw[1], d2, out=pw[0])
            else:
                pw[0] = pw[1]

    tot = np.zeros(K + 1)
    tsq = np.zeros(K + 1)
    for s, q in map_chunks(chunk_sums, samples, IID_CHUNK, threads):
        tot += s
        tsq += q
    # sums of d^4k overflow first at high k; TraceSpectrum refuses the
    # non-finite stderr that follows, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        vals, se = mean_stderr(tot, tsq, samples)
    prov = {"method": "monte_carlo", "samples": samples, "seed": seed}
    return TraceSpectrum(vals, K, prov, stderr=se)
