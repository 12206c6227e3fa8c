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
    per-monomial standard errors,
  * the product rule -- the level-N average of a Riemannian product is
    sum_k [k!(N-k)!/N!] (A_k shuffle B_{N-k}), one outer product of the
    factors' monomial values per split k; ``average_product`` folds it
    over a product's factors.

Level k is the symmetric tensor E[v^{(x)k}]/k!, so every method computes
its C(n+k-1, k) monomial values, never its n^k words: only writers and the
test oracle ``AverageSignatureResult.tensor`` expand them.  Per-sample
signatures are exact tensor exponentials of Haar logs, so Monte Carlo error
is purely statistical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import pairwise

import numpy as np

# sphere_moment_level and su2_radial_moments live with SU2Group and are
# re-exported here, where the benchmark's tracer looks them up
from .groups import CircleGroup, map_chunks, mean_stderr, sphere_moment_level, stream, su2_radial_moments
from .tensor import SymmetricLevel, TruncatedTensorSeries, _check_budget, monomial_levels

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
    """Average signature up to depth ``len(values) - 1``: values[k] holds the
    C(dim+k-1, k) monomial values of level k (``monomial_levels`` order) and
    ``tensor`` its n^k words, built when first read.  Monte Carlo adds each
    monomial's standard error (stderr_values) and its words' norm per level.
    """

    dim: int
    values: tuple[np.ndarray, ...]
    method: str
    samples: int | None = None
    seed: int | None = None
    stderr_per_level: np.ndarray | None = None
    stderr_values: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        for k, v in enumerate(self.values):
            if not np.all(np.isfinite(v)):
                raise ValueError(f"level {k} contains non-finite coefficients")
            v.flags.writeable = False

    @property
    def depth(self) -> int:
        return len(self.values) - 1

    @cached_property
    def levels(self) -> list[SymmetricLevel]:
        mono = monomial_levels(self.dim, self.depth)
        return [SymmetricLevel(mono, k, v) for k, v in enumerate(self.values)]

    @cached_property
    def tensor(self) -> TruncatedTensorSeries:
        return TruncatedTensorSeries(self.dim, self.depth, tuple(lv.words() for lv in self.levels))

    def to_json_dict(self) -> dict:
        stderr = None if self.stderr_per_level is None else self.stderr_per_level.tolist()
        return {"n": self.dim, "N": self.depth, "levels": self.levels, "method": self.method,
                "samples": self.samples, "seed": self.seed, "stderr": stderr}


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
        return AverageSignatureResult(model.dim, average_product(model, N).values, "closed_form")
    _check_budget(1, N)
    levels = [np.zeros(1) for _ in range(N + 1)]
    for k in range(0, N + 1, 2):
        levels[k][0] = _power_over_factorial(math.pi, k, k + 1)
    return AverageSignatureResult(1, tuple(levels), "closed_form")


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
            levels.append(np.zeros(math.comb(n + k - 1, k)))
        else:
            levels.append(model.direction_moment(k) * _power_over_factorial(m[k // 2], 1, k))
    return AverageSignatureResult(n, tuple(levels), "quadrature")


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
    # colex: the level-k rows ending in letter j, rows lo..hi, are the first
    # hi - lo rows of level k-1 times v_j
    spans = [list(pairwise(lvl.table[0].tolist() + [len(lvl.last)])) for lvl in levels]
    start = np.cumsum([0] + [len(lvl.last) for lvl in levels])

    def chunk_sums(c, _start, size):
        v = np.ascontiguousarray(model.sample_log_batch(stream(seed, c), size).T)
        out = np.empty((2, start[-1]))
        out[:, 0] = size
        cur = np.ones((1, size))
        for k, lvl in enumerate(levels[1:], 1):
            cur, prev = np.empty((len(lvl.last), size)), cur
            for j, (lo, hi) in enumerate(spans[k]):
                np.multiply(prev[:hi - lo], v[j], out=cur[lo:hi])
            cur /= k
            cur.sum(axis=1, out=out[0, start[k]:start[k + 1]])
            np.einsum("mb,mb->m", cur, cur, out=out[1, start[k]:start[k + 1]])
        return out

    tot, tsq = sum(map_chunks(chunk_sums, samples, mc_chunk_size(n, N), threads))
    mean, se = mean_stderr(tot, tsq, samples)
    mean, se = np.split(mean, start[1:-1]), np.split(se, start[1:-1])
    # a word's per-sample value is its monomial's, so its mean and SE are too
    norm = [math.sqrt(float(lvl.multiplicity @ (s * s))) for lvl, s in zip(levels, se)]
    return AverageSignatureResult(n, tuple(mean), "monte_carlo", samples=samples, seed=seed,
                                  stderr_per_level=np.array(norm), stderr_values=tuple(se))


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
    with the first factor's basis first.  A product monomial is a monomial
    alpha of A_k followed by one, beta, of B_{N-k} shifted by n1, with the
    value [k!(N-k)!/N!] a_alpha b_beta.  In colex order alpha keeps its
    index and beta's letters add an offset at[beta], so each split k is one
    outer product written at ``alpha + at[beta]``.
    """
    n1, n = a.dim, a.dim + b.dim
    if a.depth < N or b.depth < N:
        raise ValueError("factor averages must be truncated at depth >= N")
    _check_budget(n, N)
    levels, second = monomial_levels(n, N), b.levels[0].monomials
    out = [np.zeros(len(lvl.parent)) for lvl in levels]
    for k in range(N + 1):
        alpha = np.arange(len(a.values[k]))[:, None]
        at = np.zeros(1, dtype=np.intp)
        for m in range(N + 1 - k):
            if m:
                # the letter j is past every letter so far: T[p, j] = T[0, j] + p
                at = at[second[m].parent] + levels[k + m].table[0, second[m].last + n1]
            weight = math.factorial(k) * math.factorial(m) / math.factorial(k + m)
            # + 0.0 as a word of the dense sum started at 0.0: a -0.0 product reads 0.0
            out[k + m][alpha + at] = weight * np.multiply.outer(a.values[k], b.values[m]) + 0.0
    return AverageSignatureResult(n, tuple(out), "product_shuffle")
