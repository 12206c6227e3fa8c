"""Haar averages of geodesic signatures.

The average of exp_tensor(log g) over the normalised Haar measure is
computed four ways:

  * closed form -- circle (level 2k is pi^{2k}/(2k+1)! on the only word,
    odd levels vanish) and tori assembled from it by ``average_product``,
  * deterministic quadrature -- the radial x direction split: level k is
    (m_k / k!) M_k with m_k = E[d^k] from the model's ``radial_moments``
    (Gauss-Legendre) and M_k its ``direction_moment(k)``, the moment
    tensor of v/|v| (for SU(2) the uniform measure on S^2),
  * Monte Carlo -- chunked, seeded, thread-count independent, with
    per-coefficient standard errors.  Level k is the symmetric tensor
    E[v^{(x)k}]/k!, so each chunk sums the C(n+k-1, k) monomials
    v^alpha/k! and their squares instead of the n^k words; the means and
    standard errors expand to words once, at the end
    (``tensor.expand_words``),
  * the product rule -- the level-N average of a Riemannian product is
    sum_k [k!(N-k)!/N!] (A_k shuffle B_{N-k}), each shuffle taken on the
    factors' own blocks and written into the product's level block by block;
    ``average_product`` folds it over a product's factors.

Per-sample signatures are exact tensor exponentials of Haar logs, so Monte
Carlo error is purely statistical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# sphere_moment_level and su2_radial_moments live with SU2Group and are
# re-exported here, where the benchmark's tracer looks them up
from .groups import CircleGroup, map_chunks, mean_stderr, sphere_moment_level, stream, su2_radial_moments
from .tensor import TruncatedTensorSeries, _check_budget, _interleavings, expand_words, monomial_levels

__all__ = [
    "AverageSignatureResult",
    "average_closed_form",
    "average_quadrature",
    "average_monte_carlo",
    "average_product",
    "product_average_shuffle",
    "sphere_moment_level",
    "su2_radial_moments",
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


def _is_torus(model) -> bool:
    """True for the circle and for products of circles only."""
    return all(isinstance(f, CircleGroup) for f in getattr(model, "factors", (model,)))


def _power_over_factorial(x: float, p: int, k: int) -> float:
    """x^p / k! for finite x.

    Up to 170! this is the float division ``x**p / math.factorial(k)``.
    Past it k! is no float (and x^p may not be one either), so the quotient
    is taken exactly in rationals and rounded once, to 0.0 where it
    underflows.
    """
    if k <= 170:
        return x**p / math.factorial(k)
    return float(Fraction(x) ** p / math.factorial(k))


def average_closed_form(model, N: int) -> AverageSignatureResult:
    """Exact average signature for the circle and for products of circles.

    Circle level 2k is pi^{2k}/(2k+1)! and odd levels vanish; a torus is
    ``average_product`` over its circles.
    """
    if not _is_torus(model):
        raise ValueError("closed form is available for the circle and circle products only")
    if model.dim > 1:
        return AverageSignatureResult(average_product(model, N).tensor, "closed_form")
    _check_budget(1, N)
    levels = [np.zeros(1) for _ in range(N + 1)]
    for k in range(0, N + 1, 2):
        levels[k][0] = _power_over_factorial(math.pi, k, k + 1)
    return AverageSignatureResult(TruncatedTensorSeries(1, N, tuple(levels)), "closed_form")


def average_quadrature(model, N: int) -> AverageSignatureResult:
    """Deterministic average signature for models with direction moments.

    Even level k is (m_k / k!) times the direction's moment tensor; odd
    levels vanish analytically (sign-flip symmetry) and are pinned to zero.
    """
    # level 0 is M_0 = 1; asking for it first refuses a model without
    # direction moments (a product) before any other work
    levels = [model.direction_moment(0)]
    n = model.dim
    _check_budget(n, N)
    # an overflowing power is refused below, so numpy need not warn of it
    with np.errstate(over="ignore"):
        m = model.radial_moments(N // 2)
    if not np.all(np.isfinite(m)):
        raise ValueError(f"radial moments up to depth {N} overflow float64")
    for k in range(1, N + 1):
        if k % 2 == 1:
            levels.append(np.zeros(n**k))
        else:
            # scaled in place: the moment tensor is a fresh array, and a deep
            # level (344 MB for su2 at depth 16) is then never held twice
            level = model.direction_moment(k)
            level *= _power_over_factorial(m[k // 2], 1, k)
            levels.append(level)
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
    levels = monomial_levels(n, N)

    def chunk_sums(c, _start, size):
        v = np.ascontiguousarray(model.sample_log_batch(stream(seed, c), size).T)
        sums = [np.full(1, float(size))]
        sqs = [np.full(1, float(size))]
        cur = np.ones((1, size))
        for k, lvl in enumerate(levels[1:], 1):
            cur = cur[lvl.parent] * v[lvl.last] / k
            sums.append(cur.sum(axis=1))
            sqs.append(np.einsum("mb,mb->m", cur, cur))
        return sums, sqs

    tot = [np.zeros(len(lvl.parent)) for lvl in levels]
    tsq = [np.zeros(len(lvl.parent)) for lvl in levels]
    for sums, sqs in map_chunks(chunk_sums, samples, mc_chunk_size(n, N), threads):
        for k in range(N + 1):
            tot[k] += sums[k]
            tsq[k] += sqs[k]
    # a word's per-sample value is its monomial's, so its mean and SE are too
    mean, se = [], []
    for k, (t, q) in enumerate(zip(tot, tsq)):
        m, s = mean_stderr(t, q, samples)
        mean.append(expand_words(levels, k, m))
        se.append(expand_words(levels, k, s))
    return AverageSignatureResult(
        TruncatedTensorSeries(n, N, tuple(mean)),
        "monte_carlo",
        samples=samples,
        seed=seed,
        stderr_per_level=np.array([math.sqrt(float(s @ s)) for s in se]),
        stderr_coeffs=tuple(se),
    )


def average_product(model, N: int) -> AverageSignatureResult:
    """Product rule folded over a product's factors from the left, each
    factor averaged in closed form (circles) or by quadrature (the rest)."""
    if not hasattr(model, "factors"):
        raise ValueError("product_shuffle needs a product group")
    _check_budget(model.dim, N)  # before any factor is built
    acc = None
    for f in model.factors:
        nxt = average_closed_form(f, N) if _is_torus(f) else average_quadrature(f, N)
        acc = nxt if acc is None else product_average_shuffle(acc, nxt, N)
    return acc


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
