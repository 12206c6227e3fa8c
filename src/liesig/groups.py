"""Compact Lie group models with bi-invariant metrics.

Three concrete models: the circle (angles in (-pi, pi]), SU(2) as unit
quaternions, and flat Riemannian products of those.  Each model exposes

  * ``exp`` / ``log`` between the Lie algebra (coordinates in a fixed
    orthonormal basis) and the group, with ``log`` principal and refusing
    points within ``CUT_TOLERANCE`` of the cut locus of the identity; the
    identity is ``exp(0)`` and its distance to g is ``|log g|``; both
    raise ``ValueError`` on non-finite input,
  * group multiplication and inversion.  ``exp`` takes one algebra vector;
    ``log``, ``multiply`` and ``inverse`` also broadcast over leading batch
    axes: a stack of circle points is an array of angles, of SU(2) points
    a (..., 4) array of quaternions, of product points a tuple of its
    factors' stacks, and ``log`` of a stack is a (..., dim) array,
  * seeded Haar sampling, vectorised as ``sample_log_batch`` which returns
    the algebra vectors v = log(g) of Haar draws directly, and
    ``distance_from_uniforms`` which maps uniforms to Haar distances (on
    SU(2) both take |v| from one inverse CDF; v/|v| is a normalised Gaussian).
    Monte Carlo that reads distances only (spectra, the iid radial CDF)
    draws them with ``haar_distances`` and never builds a direction,
  * the radial law of d = d(e, g) = |log g| and the direction of v/|v|,
    which is all the deterministic layers read:
    ``radial_moments(K, nodes)`` gives E[d^2k], k = 0..K, in float64 by
    Gauss-Legendre, ``exact_radial_moments(K, dps)`` the same numbers in
    mpmath, and ``direction_moment(k)`` the level-k moment tensor of v/|v|
    as its monomial values (``tensor.monomial_levels`` order).  Products
    compose their factors' radial moments through one binomial convolution.
    They refuse ``direction_moment``: the direction of (v_1, v_2) depends on
    both factors' radii, so it does not factor, and their averages come
    from the product rule instead.

For SU(2) the basis {e1, e2, e3} is orthonormal with bracket relations
[e1,e2] = 2 e3, [e1,e3] = -2 e2, [e2,e3] = 2 e1; with that normalisation
SU(2) is the unit round 3-sphere (diameter pi, volume 2 pi^2, scalar
curvature 6).

Reproducibility contract: every sampler draws from a numpy PCG64 generator.
Monte Carlo runs partition work into fixed-size chunks and chunk c of a run
seeded with s uses the stream ``stream(s, c)`` = PCG64(SeedSequence((s, c))).
All Monte Carlo, the radial CDF included, runs through ``map_chunks`` and
reduces in chunk order, so no output depends on the worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import numpy as np
from numpy.polynomial.legendre import leggauss

from .tensor import monomial_levels

__all__ = [
    "CutLocusError",
    "CUT_TOLERANCE",
    "stream",
    "map_chunks",
    "mean_stderr",
    "haar_distances",
    "CircleGroup",
    "SU2Group",
    "ProductGroup",
    "parse_group",
    "su2_radial_moments",
    "su2_radial_integrals_mp",
    "sphere_moment_level",
]

CUT_TOLERANCE = 1e-9
# Gauss-Legendre nodes of ``radial_moments``, exact on polynomials to degree 127
GAUSS_LEGENDRE_NODES = 64

_TWO_PI = 2.0 * math.pi


class CutLocusError(ValueError):
    """Point is at (or numerically on) the cut locus of the identity."""


def stream(seed: int, chunk: int | None = None) -> np.random.Generator:
    """Named RNG stream: PCG64 seeded by SeedSequence((seed, chunk)).

    With ``chunk=None`` this is the plain per-run stream; chunked Monte Carlo
    derives one independent stream per chunk index.
    """
    entropy = (int(seed),) if chunk is None else (int(seed), int(chunk))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def map_chunks(fn, samples: int, chunk: int, threads: int = 1):
    """Yield ``fn(c, start, size)`` for the chunks of ``samples`` draws, in order.

    Chunk c starts at draw c * chunk; only the last may be short.  Workers
    are capped at min(threads, os.cpu_count(), chunks): one worker runs the
    chunks inline, more run them on a thread pool.  Every chunk is submitted
    at once, so ``fn`` should return partial sums or write its own slice.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    nchunks = (samples + chunk - 1) // chunk

    def run(c):
        start = c * chunk
        return fn(c, start, min(chunk, samples - start))

    workers = min(threads, os.cpu_count() or 1, nchunks)
    if workers <= 1:
        yield from map(run, range(nchunks))
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(run, range(nchunks))


def mean_stderr(tot, tsq, samples: int):
    """Mean and standard error of the mean from sums and sums of squares."""
    m = float(samples)
    mean = tot / m
    var = np.maximum(tsq / m - mean**2, 0.0) * (m / max(m - 1.0, 1.0))
    return mean, np.sqrt(var / m)


def haar_distances(model, rng: np.random.Generator, size: int) -> np.ndarray:
    """Distances d(e, g) of ``size`` Haar draws, from ``rng``'s uniforms alone.

    The uniforms are laid out factor by factor, ``size`` of each of the
    ``model.radial_uniform_dim`` coordinates in turn, as ``sample_log_batch``
    draws them.  So the circle's and SU(2)'s radii are those of
    ``sample_log_batch`` on the same stream, and so are a product's factors
    up to its first SU(2) factor: that factor's directions come next in
    ``sample_log_batch``'s stream, not here.
    """
    return model.distance_from_uniforms(rng.random((model.radial_uniform_dim, size)).T)


def _wrap_angle(theta):
    """Reduce an angle, or an array of them, to the principal range (-pi, pi]."""
    t = np.fmod(np.add(theta, math.pi), _TWO_PI)
    return t + np.where(t <= 0.0, _TWO_PI, 0.0) - math.pi


def _require_finite(x, what: str) -> None:
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{what} must be finite")


def _norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis."""
    return np.sqrt(np.einsum("...i,...i->...", x, x))


class CircleGroup:
    """Unit circle; points are angles in (-pi, pi], identity at 0."""

    kind = "circle"
    dim = 1
    # number of uniforms consumed per distance-only draw
    radial_uniform_dim = 1

    def exp(self, v) -> float:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (1,):
            raise ValueError("circle algebra vectors have one coordinate")
        _require_finite(v, "circle algebra vectors")
        return float(_wrap_angle(v[0]))

    def log(self, g) -> np.ndarray:
        g = np.asarray(g, dtype=np.float64)
        _require_finite(g, "angles")
        theta = _wrap_angle(g)
        if np.any(math.pi - np.abs(theta) < CUT_TOLERANCE):
            raise CutLocusError("angle within tolerance of the antipode")
        return theta[..., None]

    def multiply(self, a, b):
        return _wrap_angle(np.add(a, b))

    def inverse(self, a):
        return _wrap_angle(np.negative(a))

    def sample_log_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        # theta in (-pi, pi]: a log of a Haar draw even within CUT_TOLERANCE
        # of pi, where ``log`` refuses the group point
        return (math.pi - _TWO_PI * rng.random(size))[:, None]

    def distance_from_uniforms(self, u: np.ndarray) -> np.ndarray:
        return np.abs(math.pi - _TWO_PI * u[:, 0])

    def radial_moments(self, K: int, nodes: int = GAUSS_LEGENDRE_NODES) -> np.ndarray:
        # d = |theta| with theta uniform on (-pi, pi): Gauss-Legendre there
        x, w = leggauss(nodes)
        theta = math.pi * x
        return (theta[None, :] ** (2 * np.arange(K + 1)[:, None])) @ (w / 2.0)

    def exact_radial_moments(self, K: int, dps: int) -> tuple:
        with mp.workdps(dps):
            return tuple(mp.pi ** (2 * k) / (2 * k + 1) for k in range(K + 1))

    def direction_moment(self, k: int) -> np.ndarray:
        # v/|v| = +-1 with equal weight
        return np.array([1.0 - k % 2])


_SU2_BLOCK = 1 << 16
# s/y as a polynomial in x = y^2, y = t^(1/3), for the root s in [0, pi/2] of
# g(s) = s - sin s cos s = t: the degree-23 interpolant at the 24 Chebyshev
# points of [0, (pi/2)^(2/3)], constant term first.  s/y is an even function
# of y, analytic in x there, so the fit keeps its relative error near s = 0.
# tests/test_groups.py rebuilds these from mpmath roots.
_SU2_GUESS = (
    1.1447142425533319,
    0.10000000000000793,
    0.02246349766352611,
    0.006541224306160101,
    0.002153986993355416,
    0.000762222258431597,
    0.0002823270541948126,
    0.00011206801552202286,
    1.9546171840980243e-05,
    0.00012917412671750202,
    -0.00041485505818123153,
    0.0012533238564902804,
    -0.0029502847253484927,
    0.005585912204798579,
    -0.00850386171239468,
    0.01041805741207716,
    -0.010231621171565586,
    0.00799168346094654,
    -0.004896614179776365,
    0.002302478022077071,
    -0.0008022123951923358,
    0.00019520606032925178,
    -2.9643350215566204e-05,
    2.1188513885489976e-06,
)


def _su2_half_radius_poly(target: np.ndarray) -> np.ndarray:
    """Root s in [0, pi/2] of g(s) = s - sin s cos s = target, to relative error below 5e-16."""
    y = np.cbrt(target)
    x = np.multiply(y, y)
    s = np.full_like(x, _SU2_GUESS[-1])
    for c in _SU2_GUESS[-2::-1]:
        s *= x
        s += c
    s *= y
    return s


def _su2_radius_block(u: np.ndarray) -> np.ndarray:
    target = np.subtract(1.0, u)
    np.minimum(u, target, out=target)
    target *= math.pi
    s = _su2_half_radius_poly(target)
    upper = np.flatnonzero(u > 0.5)
    s[upper] = math.pi - s[upper]
    return s


def _su2_radius_from_uniform(u: np.ndarray) -> np.ndarray:
    """Invert the SU(2) radial CDF (r - sin r cos r)/pi = u on [0, pi].

    The CDF is symmetric under r -> pi - r, so the solve runs on the half
    w = min(u, 1 - u) (``1 - u`` is exact for u >= 1/2): s in [0, pi/2]
    with s - sin s cos s = pi w is one polynomial, ``_SU2_GUESS``, in
    x = y^2 times y = (pi w)^(1/3), and pi - s is returned where u > 1/2.
    No equation is solved, and every entry takes the same arithmetic.

    Contract: the result is within 1e-15 of the exact root for every u in
    [0, 1], and within 3e-16 relative where that root lies below 1/2.
    ``tests/test_groups.py`` checks both against mpmath brackets, densest
    where the error peaks (r in [1.3, 1.7], and u within 1e-12 of 1), and
    rebuilds the coefficients.

    ``u`` is one-dimensional.  Work is elementwise, over fixed blocks of
    2^16 entries that bound the size of temporaries, so each output depends
    on its own input alone and never on how the input was batched.  Monte
    Carlo outputs therefore stay byte-identical at any thread count.
    """
    out = np.empty(len(u))
    for i in range(0, len(u), _SU2_BLOCK):
        out[i : i + _SU2_BLOCK] = _su2_radius_block(u[i : i + _SU2_BLOCK])
    return out


def su2_radial_moments(max_k: int, nodes: int = GAUSS_LEGENDRE_NODES) -> np.ndarray:
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


def _store_dps(K: int) -> int:
    # enough digits to survive monomial pairing up to degree K later on
    return 60 + 2 * K


def _su2_recursion_dps(K: int, target_dps: int) -> int:
    lost = 2.0 * sum(math.log10(k) for k in range(1, K + 1)) - 2 * K * math.log10(math.pi)
    return target_dps + max(0, int(lost)) + 10


def su2_radial_integrals_mp(max_m: int, dps: int | None = None) -> list:
    """I_m = int_0^pi r^m sin^2 r dr for m = 0..max_m, exact to ``dps`` digits.

    The integrals satisfy

        I_0 = pi/2,  I_1 = pi^2/4,
        I_m = pi^(m+1) / (2(m+1)) - m(m-1)/4 * I_{m-2},

    which the test suite checks against adaptive quadrature.  The forward
    recursion is numerically unstable (relative error grows like (K!)^2 /
    pi^(2K)), so it is evaluated with working precision scaled to K.
    """
    target = dps if dps is not None else _store_dps(max_m // 2)
    with mp.workdps(_su2_recursion_dps(max_m // 2 + 1, target)):
        out = [mp.pi / 2, mp.pi**2 / 4]
        for m in range(2, max_m + 1):
            out.append(mp.pi ** (m + 1) / (2 * (m + 1)) - mp.mpf(m * (m - 1)) / 4 * out[m - 2])
        return out[: max_m + 1]


_DOUBLE_FACT = {0: 1.0}


def _double_factorial(m: int) -> float:
    # (m)!! for odd m >= -1, cached
    if m not in _DOUBLE_FACT:
        _DOUBLE_FACT[m] = 1.0 if m <= 0 else m * _double_factorial(m - 2)
    return _DOUBLE_FACT[m]


def sphere_moment_level(k: int) -> np.ndarray:
    """Level-k moment tensor of the uniform measure on S^2 in R^3, as its
    monomial values in ``monomial_levels(3, k)`` order.

    Entry (i_1..i_k) is E[v_{i_1} ... v_{i_k}]: zero unless every coordinate
    appears an even number of times, else prod_j (a_j - 1)!! / (k+1)!! for
    the occurrence counts a_j.
    """
    if k % 2 == 1:
        return np.zeros((k + 1) * (k + 2) // 2)
    # occurrence counts of letters 0 and 1 in each monomial, a level at a time
    a = b = np.zeros(1, dtype=np.intp)
    for lvl in monomial_levels(3, k)[1:]:
        a = a[lvl.parent] + (lvl.last == 0)
        b = b[lvl.parent] + (lvl.last == 1)
    df = _double_factorial  # with k even, even counts of 0 and 1 leave an even count of 2
    return np.array([df(i - 1) * df(j - 1) * df(k - i - j - 1) / df(k + 1)
                     if i % 2 == j % 2 == 0 else 0.0 for i, j in zip(a.tolist(), b.tolist())])


class SU2Group:
    """SU(2) as unit quaternions (w, x, y, z); identity (1, 0, 0, 0).

    The imaginary units map to the orthonormal algebra basis e1, e2, e3,
    so exp(v) = (cos r, sin(r) v / r) with r = |v|, and the antipode -1
    (the cut locus of the identity) sits at distance pi.
    """

    kind = "su2"
    dim = 3
    radial_uniform_dim = 1

    def exp(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (3,):
            raise ValueError("su(2) algebra vectors have three coordinates")
        x, y, z = v.tolist()
        r = math.hypot(x, y, z)
        if not math.isfinite(r):  # hypot is inf or nan if any coordinate is
            raise ValueError("su(2) algebra vectors must be finite")
        k = math.sin(r) / r if r > 0.0 else 1.0
        q = (math.cos(r), x * k, y * k, z * k)
        n = math.hypot(*q)
        return np.array([c / n for c in q])

    def log(self, g) -> np.ndarray:
        q = np.asarray(g, dtype=np.float64)
        # written so that a nan norm fails the unit check
        if q.shape[-1:] != (4,) or not np.all(np.abs(_norm(q) - 1.0) <= 1e-12):
            raise ValueError("expected finite unit quaternions (w, x, y, z)")
        v = q[..., 1:]
        s = _norm(v)
        r = np.arctan2(s, q[..., 0])
        if np.any(math.pi - r < CUT_TOLERANCE):
            raise CutLocusError("quaternion within tolerance of -1")
        scale = np.divide(r, s, out=np.zeros_like(s), where=s >= 1e-300)
        return v * scale[..., None]

    def multiply(self, a, b) -> np.ndarray:
        aw, ax, ay, az = np.moveaxis(np.asarray(a, dtype=np.float64), -1, 0)
        bw, bx, by, bz = np.moveaxis(np.asarray(b, dtype=np.float64), -1, 0)
        out = np.stack(
            [
                aw * bw - (ax * bx + ay * by + az * bz),
                aw * bx + bw * ax + (ay * bz - az * by),
                aw * by + bw * ay + (az * bx - ax * bz),
                aw * bz + bw * az + (ax * by - ay * bx),
            ],
            axis=-1,
        )
        return out / _norm(out)[..., None]

    def inverse(self, a) -> np.ndarray:
        q = np.array(a, dtype=np.float64)
        q[..., 1:] = -q[..., 1:]
        return q

    def sample_log_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        # radius by inverse CDF, drawn first (pi - r >= 8e-6: test_su2_radius_clear_of_cut_locus);
        # direction a normalised Gaussian (Muller 1959), all zero with probability ~2^-156
        r = _su2_radius_from_uniform(rng.random(size))
        v = rng.standard_normal((size, 3))
        v *= (r / np.sqrt(np.einsum("bi,bi->b", v, v)))[:, None]
        return v

    def distance_from_uniforms(self, u: np.ndarray) -> np.ndarray:
        return _su2_radius_from_uniform(u[:, 0])

    def radial_moments(self, K: int, nodes: int = GAUSS_LEGENDRE_NODES) -> np.ndarray:
        return su2_radial_moments(2 * K, nodes)[::2]

    def exact_radial_moments(self, K: int, dps: int) -> tuple:
        I = su2_radial_integrals_mp(2 * K, dps)
        with mp.workdps(dps):
            return tuple(2 / mp.pi * I[2 * k] for k in range(K + 1))

    def direction_moment(self, k: int) -> np.ndarray:
        return sphere_moment_level(k)


class ProductGroup:
    """Flat Riemannian product of primitive factors; points are tuples."""

    kind = "product"

    def __init__(self, factors):
        factors = tuple(factors)
        if len(factors) < 2:
            raise ValueError("a product needs at least two factors")
        self.factors = factors
        self.dim = sum(f.dim for f in factors)
        self.radial_uniform_dim = sum(f.radial_uniform_dim for f in factors)
        self._slices = []
        off = 0
        for f in factors:
            self._slices.append(slice(off, off + f.dim))
            off += f.dim

    def exp(self, v):
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} coordinates")
        return tuple(f.exp(v[s]) for f, s in zip(self.factors, self._slices))

    def log(self, g) -> np.ndarray:
        return np.concatenate([f.log(gi) for f, gi in zip(self.factors, g)], axis=-1)

    def multiply(self, a, b):
        return tuple(f.multiply(ai, bi) for f, ai, bi in zip(self.factors, a, b))

    def inverse(self, a):
        return tuple(f.inverse(ai) for f, ai in zip(self.factors, a))

    def sample_log_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        out = np.empty((size, self.dim))
        for f, s in zip(self.factors, self._slices):
            out[:, s] = f.sample_log_batch(rng, size)
        return out

    def distance_from_uniforms(self, u: np.ndarray) -> np.ndarray:
        total = np.zeros(u.shape[0])
        off = 0
        for f in self.factors:
            d = f.radial_uniform_dim
            total += f.distance_from_uniforms(u[:, off : off + d]) ** 2
            off += d
        return np.sqrt(total)

    def radial_moments(self, K: int, nodes: int = GAUSS_LEGENDRE_NODES) -> np.ndarray:
        return np.array(_convolve([f.radial_moments(K, nodes) for f in self.factors], sum))

    def exact_radial_moments(self, K: int, dps: int) -> tuple:
        with mp.workdps(dps):
            parts = [f.exact_radial_moments(K, dps) for f in self.factors]
            return tuple(_convolve(parts, mp.fsum))

    def direction_moment(self, k: int) -> np.ndarray:
        raise ValueError("quadrature is available for circle and su2 models only")


def _convolve(parts, total) -> list:
    """Moments E[(x_1 + ... + x_m)^N] of a sum of independent variables.

    ``parts[i][k]`` is E[x_i^k] for k = 0..K.  Factors fold in left to
    right by E[(a + b)^N] = sum_k C(N, k) E[a^k] E[b^(N-k)], each row summed
    by ``total``: ``sum`` for floats, ``mp.fsum`` for mpmath numbers.
    Squared distances add over product factors, so this turns the factors'
    E[d^2k] into the product's.
    """
    acc = parts[0]
    for nxt in parts[1:]:
        acc = [
            total(math.comb(N, k) * acc[k] * nxt[N - k] for k in range(N + 1))
            for N in range(len(acc))
        ]
    return acc


def _flatten(spec: str):
    spec = spec.strip().lower()
    if spec == "circle":
        return [CircleGroup()]
    if spec == "su2":
        return [SU2Group()]
    if spec.startswith("torus:"):
        k = int(spec.split(":", 1)[1])
        if k < 1:
            raise ValueError("torus:<k> needs k >= 1")
        return [CircleGroup() for _ in range(k)]
    if spec.startswith("product:"):
        parts = spec.split(":", 1)[1].split(",")
        out = []
        for p in parts:
            out.extend(_flatten(p))
        return out
    raise ValueError(f"unknown group selection {spec!r}")


def parse_group(spec: str):
    """Parse a selection string: circle | su2 | torus:<k> | product:<a>,<b>,...

    Products are associative and are flattened to a single list of primitive
    factors, ordered left to right.
    """
    factors = _flatten(spec)
    if len(factors) == 1:
        return factors[0]
    return ProductGroup(factors)
