"""Haar averages of geodesic signatures.

The average of exp_tensor(log g) over the normalised Haar measure is
computed four ways:

  * closed form -- circle (level 2k is pi^{2k}/(2k+1)! on the only word,
    odd levels vanish) and tori assembled from it,
  * deterministic quadrature -- circle by Gauss-Legendre, SU(2) by the
    radial x spherical split: level k is (m_k / k!) M_k with m_k the k-th
    moment of the radial density (2/pi) sin^2 r on [0, pi] and M_k the
    normalised moment tensor of the uniform measure on S^2,
  * Monte Carlo -- chunked, seeded, thread-count independent, with
    per-coefficient standard errors,
  * the product rule -- the level-N average of a Riemannian product is
    sum_k [k!(N-k)!/N!] (A_k shuffle B_{N-k}), each shuffle taken on the
    factors' own blocks and written into the product's level block by block.

Per-sample signatures are exact tensor exponentials of Haar logs, so Monte
Carlo error is purely statistical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .groups import CircleGroup, ProductGroup, SU2Group, map_chunks, mean_stderr, stream
from .tensor import TruncatedTensorSeries, _check_budget, _interleavings

__all__ = [
    "AverageSignatureResult",
    "average_closed_form",
    "average_quadrature",
    "average_monte_carlo",
    "product_average_shuffle",
    "sphere_moment_level",
    "su2_radial_moments",
    "radial_moments",
    "mc_chunk_size",
]


@dataclass(frozen=True)
class AverageSignatureResult:
    """Estimate of the average signature up to the tensor's depth.

    stderr_per_level is the per-level Euclidean norm of the coordinate-wise
    standard errors (Monte Carlo only); stderr_coeffs keeps the coordinate
    SEs themselves for per-coefficient comparisons.
    """

    tensor: TruncatedTensorSeries
    method: str
    samples: int | None = None
    seed: int | None = None
    stderr_per_level: np.ndarray | None = None
    stderr_coeffs: tuple[np.ndarray, ...] | None = None

    def to_json_dict(self) -> dict:
        out = self.tensor.to_json_dict()
        out["method"] = self.method
        out["samples"] = self.samples
        out["seed"] = self.seed
        out["stderr"] = None if self.stderr_per_level is None else self.stderr_per_level.tolist()
        return out


def average_closed_form(model, N: int) -> AverageSignatureResult:
    """Exact average signature for the circle and for products of circles."""
    if isinstance(model, CircleGroup):
        levels = [np.zeros(1) for _ in range(N + 1)]
        for k in range(0, N + 1, 2):
            levels[k][0] = math.pi**k / math.factorial(k + 1)
        tensor = TruncatedTensorSeries(1, N, tuple(levels))
        return AverageSignatureResult(tensor, "closed_form")
    if isinstance(model, ProductGroup) and all(
        isinstance(f, CircleGroup) for f in model.factors
    ):
        _check_budget(model.dim, N)
        acc = average_closed_form(model.factors[0], N)
        for f in model.factors[1:]:
            acc = product_average_shuffle(acc, average_closed_form(f, N), N)
        return AverageSignatureResult(acc.tensor, "closed_form")
    raise ValueError("closed form is available for the circle and circle products only")


def su2_radial_moments(max_k: int, nodes: int = 64) -> np.ndarray:
    """Moments m_k = int_0^pi r^k (2/pi) sin^2 r dr, k=0..max_k, by Gauss-Legendre.

    Each row is summed on its own, so m_k depends only on k and ``nodes``,
    never on ``max_k``.
    """
    x, w = leggauss(nodes)
    r = 0.5 * math.pi * (x + 1.0)
    w = 0.5 * math.pi * w
    dens = (2.0 / math.pi) * np.sin(r) ** 2
    powers = r[None, :] ** np.arange(max_k + 1)[:, None]
    return (powers * (w * dens)).sum(axis=1)


def radial_moments(model, K: int, nodes: int = 64) -> np.ndarray:
    """E[d^{2k}], k = 0..K, of the Haar distance d = d(e, g), by quadrature.

    Circle by Gauss-Legendre on [-pi, pi], SU(2) from ``su2_radial_moments``;
    squared distances add over product factors, so products convolve:
    E[(a + b)^N] = sum_k C(N, k) E[a^k] E[b^(N-k)].
    """
    if isinstance(model, CircleGroup):
        x, w = leggauss(nodes)
        theta = math.pi * x
        return (theta[None, :] ** (2 * np.arange(K + 1)[:, None])) @ (w / 2.0)
    if isinstance(model, SU2Group):
        return su2_radial_moments(2 * K, nodes)[::2]
    if isinstance(model, ProductGroup):
        parts = [radial_moments(f, K, nodes) for f in model.factors]
        acc = parts[0]
        for nxt in parts[1:]:
            acc = np.array(
                [sum(math.comb(N, k) * acc[k] * nxt[N - k] for k in range(N + 1)) for N in range(K + 1)]
            )
        return acc
    raise ValueError("radial moments cover circle, su2, and their products")


_DOUBLE_FACT = {0: 1.0}


def _double_factorial(m: int) -> float:
    # (m)!! for odd m >= -1, cached
    if m not in _DOUBLE_FACT:
        _DOUBLE_FACT[m] = 1.0 if m <= 0 else m * _double_factorial(m - 2)
    return _DOUBLE_FACT[m]


def sphere_moment_level(k: int) -> np.ndarray:
    """Flat moment tensor of the uniform unit measure on S^2 in R^3 at level k.

    Entry (i_1..i_k) is E[v_{i_1} ... v_{i_k}]: zero unless every coordinate
    appears an even number of times, in which case it equals
    prod_j (a_j - 1)!! / (k+1)!! for the occurrence counts a_j.
    """
    if k % 2 == 1:
        return np.zeros(3**k)
    if k == 0:
        return np.ones(1)
    norm = _double_factorial(k + 1)
    table = np.zeros((k + 1, k + 1))
    for a in range(0, k + 1, 2):
        for b in range(0, k + 1 - a, 2):
            c = k - a - b
            if c % 2 == 0:
                table[a, b] = (
                    _double_factorial(a - 1)
                    * _double_factorial(b - 1)
                    * _double_factorial(c - 1)
                    / norm
                )
    out = np.empty(3**k)
    slab = 1 << 22
    for start in range(0, 3**k, slab):
        stop = min(start + slab, 3**k)
        idx = np.arange(start, stop, dtype=np.int64)
        a = np.zeros(stop - start, dtype=np.int64)
        b = np.zeros(stop - start, dtype=np.int64)
        for _ in range(k):
            d = idx % 3
            a += d == 0
            b += d == 1
            idx //= 3
        out[start:stop] = table[a, b]
    return out


def average_quadrature(model, N: int, nodes: int = 64) -> AverageSignatureResult:
    """Deterministic average signature for the circle or SU(2).

    Even level k is (m_k / k!) times the direction's moment tensor; odd
    levels vanish analytically (sign-flip symmetry) and are pinned to zero.
    """
    if isinstance(model, CircleGroup):
        n, direction = 1, lambda k: np.ones(1)
    elif isinstance(model, SU2Group):
        n, direction = 3, sphere_moment_level
    else:
        raise ValueError("quadrature is available for circle and su2 models only")
    _check_budget(n, N)
    m = radial_moments(model, N // 2, nodes)
    levels = [np.ones(1)]
    for k in range(1, N + 1):
        if k % 2 == 1:
            levels.append(np.zeros(n**k))
        else:
            levels.append((m[k // 2] / math.factorial(k)) * direction(k))
    return AverageSignatureResult(TruncatedTensorSeries(n, N, tuple(levels)), "quadrature")


def mc_chunk_size(dim: int, depth: int) -> int:
    """Chunk length for Monte Carlo accumulation.

    Depends only on (dim, depth), never on the worker count, so the chunked
    stream layout -- and therefore every sampled value -- is fixed by the
    run configuration alone.
    """
    total = sum(dim**k for k in range(depth + 1))
    return max(256, min(1 << 16, (1 << 22) // max(total, 1)))


def average_monte_carlo(
    model, N: int, samples: int, seed: int, threads: int = 1
) -> AverageSignatureResult:
    """Mean of exact geodesic signatures over chunked Haar draws.

    The result is bitwise identical for any thread count: chunk c always uses
    stream(seed, c) and ``map_chunks`` hands partial sums over in chunk order.
    """
    n = model.dim
    _check_budget(n, N)

    def chunk_sums(c, _start, size):
        v = model.sample_log_batch(stream(seed, c), size)
        sums = [np.full(1, float(size))]
        sqs = [np.full(1, float(size))]
        cur = np.ones((size, 1))
        for k in range(1, N + 1):
            cur = (cur[:, :, None] * v[:, None, :]).reshape(size, -1) / k
            sums.append(cur.sum(axis=0))
            sqs.append(np.einsum("bi,bi->i", cur, cur))
        return sums, sqs

    tot = [np.zeros(n**k) for k in range(N + 1)]
    tsq = [np.zeros(n**k) for k in range(N + 1)]
    for sums, sqs in map_chunks(chunk_sums, samples, mc_chunk_size(n, N), threads):
        for k in range(N + 1):
            tot[k] += sums[k]
            tsq[k] += sqs[k]
    mean, se = zip(*(mean_stderr(t, q, samples) for t, q in zip(tot, tsq)))
    return AverageSignatureResult(
        TruncatedTensorSeries(n, N, mean),
        "monte_carlo",
        samples=samples,
        seed=seed,
        stderr_per_level=np.array([math.sqrt(float(s @ s)) for s in se]),
        stderr_coeffs=se,
    )


def product_average_shuffle(
    a: AverageSignatureResult, b: AverageSignatureResult, N: int
) -> AverageSignatureResult:
    """Average signature of a product group from its factors' averages.

    Level N of the product is sum_k [k!(N-k)!/N!] (A_k shuffle B_{N-k}),
    with the first factor's basis first.  Each interleaving of the k slots
    of A_k with the N-k slots of B_{N-k} writes the outer product of the
    factors' own blocks into the sub-block where the first factor's slots
    range over 0..n1-1 and the others over n1..n1+n2-1.  Those sub-blocks
    are disjoint, so every word of the product receives exactly one term.
    """
    n1, n2 = a.tensor.dim, b.tensor.dim
    if a.tensor.depth < N or b.tensor.depth < N:
        raise ValueError("factor averages must be truncated at depth >= N")
    n = n1 + n2
    _check_budget(n, N)
    first, second = slice(0, n1), slice(n1, n)
    out = [np.zeros((n,) * lvl) for lvl in range(N + 1)]
    for lvl in range(N + 1):
        for k in range(lvl + 1):
            x, y = a.tensor.levels[k], b.tensor.levels[lvl - k]
            if not (np.any(x) and np.any(y)):
                continue
            weight = (
                math.factorial(k) * math.factorial(lvl - k) / math.factorial(lvl)
            )
            # axes: k slots of the first factor, then lvl - k of the second
            outer = np.multiply.outer(x.reshape((n1,) * k), y.reshape((n2,) * (lvl - k)))
            for slots, axes in _interleavings(k, lvl - k):
                block = tuple(first if t in slots else second for t in range(lvl))
                out[lvl][block] += weight * outer.transpose(axes)
    return AverageSignatureResult(
        TruncatedTensorSeries(n, N, tuple(lv.ravel() for lv in out)), "product_shuffle"
    )
