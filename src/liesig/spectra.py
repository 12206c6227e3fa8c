"""Rescaled trace spectra of average signatures.

The rescaled trace at level 2k, rtr_{2k} = (2k)! tr(A_{2k}), equals the k-th
moment of the squared distance d(e, g)^2 under the normalised Haar measure.
That identity gives three independent routes to the same sequence:

  * contraction of an averaged tensor series (``rtr_spectrum``),
  * direct evaluation of the radial moments -- closed form for the circle,
    radial quadrature for SU(2), a binomial convolution for products,
  * Monte Carlo moments of sampled distances.

Deterministic constructors also carry high-precision (mpmath) values of the
same numbers.  Those are required by the polynomial moment inversion in
``recovery``: pairing degree-d monomials against moments amplifies relative
input error by roughly 10^(0.77 d), so float64 spectra are unusable there
beyond small degrees.

For SU(2) the radial integrals I_m = int_0^pi r^m sin^2 r dr satisfy

    I_0 = pi/2,  I_1 = pi^2/4,
    I_m = pi^(m+1) / (2(m+1)) - m(m-1)/4 * I_{m-2},

which the test suite checks against adaptive quadrature.  The forward
recursion is numerically unstable (relative error grows like (K!)^2 /
pi^(2K)), so it is evaluated with working precision scaled to K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import mpmath as mp

from .average import AverageSignatureResult, radial_moments
from .groups import CircleGroup, ProductGroup, SU2Group, map_chunks, mean_stderr, stream
from .tensor import trace_level

__all__ = [
    "TraceSpectrum",
    "rtr_spectrum",
    "spectrum_closed_form",
    "spectrum_quadrature",
    "spectrum_monte_carlo",
    "su2_radial_integrals_mp",
]


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
        if abs(v[0] - 1.0) > 1e-12:
            raise ValueError("r_0 must equal 1")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def to_json_dict(self) -> dict:
        out = {"K": self.K, "rtr": self.values.tolist()}
        out.update({k: v for k, v in self.provenance.items()})
        if self.stderr is not None:
            out["stderr"] = self.stderr.tolist()
        return out


def rtr_spectrum(avg: AverageSignatureResult, K: int) -> TraceSpectrum:
    """Contract an averaged tensor: r_{2k} = (2k)! tr(level 2k)."""
    if avg.tensor.depth < 2 * K:
        raise ValueError(f"need depth >= {2 * K}, have {avg.tensor.depth}")
    vals = np.array(
        [math.factorial(2 * k) * trace_level(avg.tensor, 2 * k) for k in range(K + 1)]
    )
    prov = {"method": avg.method, "samples": avg.samples, "seed": avg.seed}
    return TraceSpectrum(vals, K, prov)


def _store_dps(K: int) -> int:
    # enough digits to survive monomial pairing up to degree K later on
    return 60 + 2 * K


def _su2_recursion_dps(K: int, target_dps: int) -> int:
    lost = 2.0 * sum(math.log10(k) for k in range(1, K + 1)) - 2 * K * math.log10(math.pi)
    return target_dps + max(0, int(lost)) + 10


def su2_radial_integrals_mp(max_m: int, dps: int | None = None) -> list:
    """I_m = int_0^pi r^m sin^2 r dr for m = 0..max_m, exact to ``dps`` digits."""
    target = dps if dps is not None else _store_dps(max_m // 2)
    with mp.workdps(_su2_recursion_dps(max_m // 2 + 1, target)):
        out = [mp.pi / 2, mp.pi**2 / 4]
        for m in range(2, max_m + 1):
            out.append(mp.pi ** (m + 1) / (2 * (m + 1)) - mp.mpf(m * (m - 1)) / 4 * out[m - 2])
        return out[: max_m + 1]


def _exact_mp_values(model, K: int):
    """High-precision r_{2k} for circle / su2 / products thereof, or None."""
    dps = _store_dps(K)
    with mp.workdps(dps):
        if isinstance(model, CircleGroup):
            return tuple(mp.pi ** (2 * k) / (2 * k + 1) for k in range(K + 1))
        if isinstance(model, SU2Group):
            I = su2_radial_integrals_mp(2 * K, dps)
            return tuple(2 / mp.pi * I[2 * k] for k in range(K + 1))
        if isinstance(model, ProductGroup):
            parts = [_exact_mp_values(f, K) for f in model.factors]
            if any(p is None for p in parts):
                return None
            acc = parts[0]
            for nxt in parts[1:]:
                acc = tuple(
                    mp.fsum(
                        mp.mpf(math.comb(N, k)) * acc[k] * nxt[N - k]
                        for k in range(N + 1)
                    )
                    for N in range(K + 1)
                )
            return acc
    return None


def spectrum_closed_form(model, K: int) -> TraceSpectrum:
    """Exact spectrum for the circle and products of circles.

    Circle: r_{2k} = pi^{2k} / (2k+1); products by the binomial convolution
    rtr(C_{2N}) = sum_k C(N,k) rtr(A_{2k}) rtr(B_{2N-2k}).
    """
    circle_only = isinstance(model, CircleGroup) or (
        isinstance(model, ProductGroup)
        and all(isinstance(f, CircleGroup) for f in model.factors)
    )
    if not circle_only:
        raise ValueError("closed form spectrum covers the circle and circle products")
    mp_vals = _exact_mp_values(model, K)
    vals = np.array([float(v) for v in mp_vals])
    return TraceSpectrum(vals, K, {"method": "closed_form"}, mp_values=mp_vals)


def spectrum_quadrature(model, K: int, nodes: int = 64) -> TraceSpectrum:
    """Deterministic spectrum for circle, SU(2), and their products.

    float64 values are the Gauss-Legendre radial moments of
    ``average.radial_moments``; the attached mp values come from the exact
    closed forms / radial recursion.
    """
    vals = radial_moments(model, K, nodes)
    vals[0] = 1.0
    return TraceSpectrum(
        vals,
        K,
        {"method": "quadrature", "nodes": nodes},
        mp_values=_exact_mp_values(model, K),
    )


def spectrum_monte_carlo(
    model,
    K: int,
    samples: int,
    seed: int,
    threads: int = 1,
    chunk: int = 1 << 16,
) -> TraceSpectrum:
    """Spectrum as empirical moments of d(e, g)^2 over chunked Haar draws.

    Chunk c uses stream(seed, c), exactly like the tensor Monte Carlo; pass
    ``chunk=mc_chunk_size(dim, 2K)`` to replay the identical sample stream
    that ``average_monte_carlo`` at depth 2K consumes.
    """

    def chunk_sums(c, _start, size):
        v = model.sample_log_batch(stream(seed, c), size)
        d2 = np.einsum("bi,bi->b", v, v)
        # powers d2^k by running products, one contiguous row per k
        pw = np.empty((K + 1, size))
        pw[0] = 1.0
        for k in range(1, K + 1):
            np.multiply(pw[k - 1], d2, out=pw[k])
        return pw.sum(axis=1), np.einsum("kb,kb->k", pw, pw)

    tot = np.zeros(K + 1)
    tsq = np.zeros(K + 1)
    for s, q in map_chunks(chunk_sums, samples, chunk, threads):
        tot += s
        tsq += q
    vals, se = mean_stderr(tot, tsq, samples)
    prov = {"method": "monte_carlo", "samples": samples, "seed": seed}
    return TraceSpectrum(vals, K, prov, stderr=se)
