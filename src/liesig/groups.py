"""Compact Lie group models with bi-invariant metrics.

Three concrete models: the circle (angles in (-pi, pi]), SU(2) as unit
quaternions, and flat Riemannian products of those.  Each model exposes

  * ``exp`` / ``log`` between the Lie algebra (coordinates in a fixed
    orthonormal basis) and the group, with ``log`` principal and refusing
    points within ``CUT_TOLERANCE`` of the cut locus of the identity,
  * group multiplication and inversion,
  * seeded Haar sampling, vectorised as ``sample_log_batch`` which returns
    the algebra vectors v = log(g) of Haar draws directly,
  * the density w(v) on the star-shaped domain D in the algebra whose
    pushforward under exp is the normalised Haar measure.

For SU(2) the basis {e1, e2, e3} is orthonormal with bracket relations
[e1,e2] = 2 e3, [e1,e3] = -2 e2, [e2,e3] = 2 e1; with that normalisation
SU(2) is the unit round 3-sphere (diameter pi, volume 2 pi^2, scalar
curvature 6).

Reproducibility contract: every sampler draws from a numpy PCG64 generator.
Monte Carlo runs partition work into fixed-size chunks and chunk c of a run
seeded with s uses the stream ``stream(s, c)`` = PCG64(SeedSequence((s, c))),
so the multiset of samples is independent of the worker count.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "CutLocusError",
    "DomainError",
    "CUT_TOLERANCE",
    "stream",
    "CircleGroup",
    "SU2Group",
    "ProductGroup",
    "parse_group",
    "haar_sample",
]

CUT_TOLERANCE = 1e-9

_TWO_PI = 2.0 * math.pi


class CutLocusError(ValueError):
    """Point is at (or numerically on) the cut locus of the identity."""


class DomainError(ValueError):
    """Algebra vector lies outside the principal star-shaped domain."""


def stream(seed: int, chunk: int | None = None) -> np.random.Generator:
    """Named RNG stream: PCG64 seeded by SeedSequence((seed, chunk)).

    With ``chunk=None`` this is the plain per-run stream; chunked Monte Carlo
    derives one independent stream per chunk index.
    """
    entropy = (int(seed),) if chunk is None else (int(seed), int(chunk))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def _wrap_angle(theta: float) -> float:
    """Reduce to the principal range (-pi, pi]."""
    t = math.fmod(theta + math.pi, _TWO_PI)
    if t <= 0.0:
        t += _TWO_PI
    return t - math.pi


class CircleGroup:
    """Unit circle; points are angles in (-pi, pi], identity at 0."""

    kind = "circle"
    dim = 1
    # number of uniforms consumed per distance-only draw
    radial_uniform_dim = 1

    def identity(self):
        return 0.0

    def exp(self, v) -> float:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (1,):
            raise ValueError("circle algebra vectors have one coordinate")
        return _wrap_angle(float(v[0]))

    def log(self, g: float) -> np.ndarray:
        theta = _wrap_angle(float(g))
        if math.pi - abs(theta) < CUT_TOLERANCE:
            raise CutLocusError("angle within tolerance of the antipode")
        return np.array([theta])

    def multiply(self, a: float, b: float) -> float:
        return _wrap_angle(float(a) + float(b))

    def inverse(self, a: float) -> float:
        return _wrap_angle(-float(a))

    def distance(self, g: float) -> float:
        return abs(_wrap_angle(float(g)))

    def sample_log_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        theta = math.pi - _TWO_PI * rng.random(size)
        bad = math.pi - np.abs(theta) < CUT_TOLERANCE
        while np.any(bad):
            theta[bad] = math.pi - _TWO_PI * rng.random(int(bad.sum()))
            bad = math.pi - np.abs(theta) < CUT_TOLERANCE
        return theta[:, None]

    def distance_from_uniforms(self, u: np.ndarray) -> np.ndarray:
        return np.abs(math.pi - _TWO_PI * u[:, 0])

    def pullback_density(self, v) -> float:
        v = np.asarray(v, dtype=np.float64)
        if abs(float(v[0])) >= math.pi:
            raise DomainError("outside the principal interval (-pi, pi)")
        return 1.0 / _TWO_PI

    def diameter_hint(self) -> float:
        return math.pi

    def volume(self) -> float:
        return _TWO_PI

    def point_coords(self, g) -> list[float]:
        return [float(g)]

    def point_from_coords(self, coords) -> float:
        return _wrap_angle(float(coords[0]))

    def descriptor(self) -> dict:
        return {"kind": "circle", "dim": 1}


_SU2_BLOCK = 1 << 16
_SU2_NEWTON_STEPS = 4
# (t - sin t)/2 = sum_k (-1)^(k+1) t^(2k+1) / (2 (2k+1)!), k = 1..8; for
# t = 2s <= 1 the first dropped term is below 1e-16 of the sum.
_SU2_TAYLOR = tuple((-1) ** (k + 1) / (2.0 * math.factorial(2 * k + 1)) for k in range(1, 9))
# g(1/2): half-radii s below 1/2 take the series, since s - sin s cos s
# loses digits there to cancellation
_SU2_TAYLOR_BELOW = 0.5 - math.sin(0.5) * math.cos(0.5)


def _su2_g_direct(s: np.ndarray, sin_s: np.ndarray) -> np.ndarray:
    return s - sin_s * np.cos(s)


def _su2_g_series(s: np.ndarray, _sin_s: np.ndarray) -> np.ndarray:
    t2 = 4.0 * s * s
    acc = np.full_like(s, _SU2_TAYLOR[-1])
    for c in _SU2_TAYLOR[-2::-1]:
        acc *= t2
        acc += c
    return acc * t2 * (2.0 * s)


def _su2_half_radius(target: np.ndarray, g) -> np.ndarray:
    """Solve g(s) = s - sin s cos s = target on [0, pi/2] by clamped Newton."""
    s = np.minimum(np.cbrt(1.5 * target), 0.5 * math.pi)
    for _ in range(_SU2_NEWTON_STEPS):
        sin_s = np.sin(s)
        slope = 2.0 * sin_s * sin_s
        step = np.divide(g(s, sin_s) - target, slope, out=np.zeros_like(s), where=slope > 0.0)
        s = np.clip(s - step, 0.0, 0.5 * math.pi)
    return s


def _su2_radius_block(u: np.ndarray) -> np.ndarray:
    target = math.pi * np.minimum(u, 1.0 - u)
    s = _su2_half_radius(target, _su2_g_direct)
    small = np.flatnonzero(target < _SU2_TAYLOR_BELOW)
    s[small] = _su2_half_radius(target[small], _su2_g_series)
    upper = np.flatnonzero(u > 0.5)
    s[upper] = math.pi - s[upper]
    return s


def _su2_radius_from_uniform(u: np.ndarray) -> np.ndarray:
    """Invert the SU(2) radial CDF (r - sin r cos r)/pi = u on [0, pi].

    The CDF is symmetric under r -> pi - r, so the solve runs on the half
    w = min(u, 1 - u) (``1 - u`` is exact for u >= 1/2): find s in
    [0, pi/2] with g(s) = s - sin s cos s = pi w, and return pi - s where
    u > 1/2.  On that half g is increasing and convex (g' = 2 sin^2 s) and
    g(s) <= 2 s^3 / 3, so s0 = min((3 pi w / 2)^(1/3), pi/2) starts at or
    left of the root, and 4 Newton steps, each clamped into [0, pi/2],
    converge from there.  Where the root lies below 1/2, g is summed from
    its Taylor series instead of s - sin s cos s, which cancels for small
    s; the reflection keeps that cancellation away from r = pi as well.
    The result is within 1e-15 of the exact root for every u in [0, 1].

    ``u`` is one-dimensional.  Work is elementwise with a fixed step count,
    over fixed blocks of 2^16 entries that bound the size of temporaries,
    so each output depends on its own input alone and never on how the
    input was batched.  Monte Carlo outputs therefore stay byte-identical
    at any thread count.
    """
    out = np.empty(len(u))
    for i in range(0, len(u), _SU2_BLOCK):
        out[i : i + _SU2_BLOCK] = _su2_radius_block(u[i : i + _SU2_BLOCK])
    return out


class SU2Group:
    """SU(2) as unit quaternions (w, x, y, z); identity (1, 0, 0, 0).

    The imaginary units map to the orthonormal algebra basis e1, e2, e3,
    so exp(v) = (cos r, sin(r) v / r) with r = |v|, and the antipode -1
    (the cut locus of the identity) sits at distance pi.
    """

    kind = "su2"
    dim = 3
    radial_uniform_dim = 1

    def identity(self):
        return np.array([1.0, 0.0, 0.0, 0.0])

    def exp(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (3,):
            raise ValueError("su(2) algebra vectors have three coordinates")
        r = float(np.linalg.norm(v))
        q = np.empty(4)
        q[0] = math.cos(r)
        q[1:] = v * np.sinc(r / math.pi)  # sin(r)/r, exact limit 1 at r=0
        return q / np.linalg.norm(q)

    def log(self, g) -> np.ndarray:
        q = np.asarray(g, dtype=np.float64)
        if q.shape != (4,) or abs(np.linalg.norm(q) - 1.0) > 1e-12:
            raise ValueError("expected a unit quaternion (w, x, y, z)")
        s = float(np.linalg.norm(q[1:]))
        r = math.atan2(s, float(q[0]))
        if math.pi - r < CUT_TOLERANCE:
            raise CutLocusError("quaternion within tolerance of -1")
        if s < 1e-300:
            return np.zeros(3)
        return q[1:] * (r / s)

    def multiply(self, a, b) -> np.ndarray:
        aw, av = a[0], np.asarray(a[1:])
        bw, bv = b[0], np.asarray(b[1:])
        out = np.empty(4)
        out[0] = aw * bw - av @ bv
        out[1:] = aw * bv + bw * av + np.cross(av, bv)
        return out / np.linalg.norm(out)

    def inverse(self, a) -> np.ndarray:
        q = np.asarray(a, dtype=np.float64).copy()
        q[1:] = -q[1:]
        return q

    def distance(self, g) -> float:
        q = np.asarray(g, dtype=np.float64)
        return math.atan2(float(np.linalg.norm(q[1:])), float(q[0]))

    def sample_log_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        # radius by inverse CDF of (2/pi) sin^2 r; direction uniform on S^2
        r = _su2_radius_from_uniform(rng.random(size))
        z = 1.0 - 2.0 * rng.random(size)
        phi = _TWO_PI * rng.random(size)
        bad = math.pi - r < CUT_TOLERANCE
        while np.any(bad):
            k = int(bad.sum())
            r[bad] = _su2_radius_from_uniform(rng.random(k))
            z[bad] = 1.0 - 2.0 * rng.random(k)
            phi[bad] = _TWO_PI * rng.random(k)
            bad = math.pi - r < CUT_TOLERANCE
        s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        v = np.empty((size, 3))
        v[:, 0] = r * s * np.cos(phi)
        v[:, 1] = r * s * np.sin(phi)
        v[:, 2] = r * z
        return v

    def distance_from_uniforms(self, u: np.ndarray) -> np.ndarray:
        return _su2_radius_from_uniform(u[:, 0])

    def pullback_density(self, v) -> float:
        v = np.asarray(v, dtype=np.float64)
        r = float(np.linalg.norm(v))
        if r >= math.pi:
            raise DomainError("outside the open ball of radius pi")
        if r < 1e-8:
            return 1.0 / (2.0 * math.pi**2)
        return (math.sin(r) / r) ** 2 / (2.0 * math.pi**2)

    def diameter_hint(self) -> float:
        return math.pi

    def volume(self) -> float:
        return 2.0 * math.pi**2

    def point_coords(self, g) -> list[float]:
        return [float(c) for c in g]

    def point_from_coords(self, coords) -> np.ndarray:
        q = np.asarray(coords, dtype=np.float64)
        if q.shape != (4,):
            raise ValueError("expected four quaternion components")
        return q / np.linalg.norm(q)

    def descriptor(self) -> dict:
        return {"kind": "su2", "dim": 3}


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

    def identity(self):
        return tuple(f.identity() for f in self.factors)

    def exp(self, v):
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} coordinates")
        return tuple(f.exp(v[s]) for f, s in zip(self.factors, self._slices))

    def log(self, g) -> np.ndarray:
        out = np.empty(self.dim)
        for f, s, gi in zip(self.factors, self._slices, g):
            out[s] = f.log(gi)
        return out

    def multiply(self, a, b):
        return tuple(f.multiply(ai, bi) for f, ai, bi in zip(self.factors, a, b))

    def inverse(self, a):
        return tuple(f.inverse(ai) for f, ai in zip(self.factors, a))

    def distance(self, g) -> float:
        return math.sqrt(sum(f.distance(gi) ** 2 for f, gi in zip(self.factors, g)))

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

    def pullback_density(self, v) -> float:
        v = np.asarray(v, dtype=np.float64)
        out = 1.0
        for f, s in zip(self.factors, self._slices):
            out *= f.pullback_density(v[s])
        return out

    def diameter_hint(self) -> float:
        return math.sqrt(sum(f.diameter_hint() ** 2 for f in self.factors))

    def volume(self) -> float:
        return math.prod(f.volume() for f in self.factors)

    def point_coords(self, g) -> list[float]:
        out: list[float] = []
        for f, gi in zip(self.factors, g):
            out.extend(f.point_coords(gi))
        return out

    def point_from_coords(self, coords):
        coords = list(coords)
        out = []
        off = 0
        for f in self.factors:
            width = 4 if f.kind == "su2" else 1
            out.append(f.point_from_coords(coords[off : off + width]))
            off += width
        return tuple(out)

    def descriptor(self) -> dict:
        return {
            "kind": "product",
            "dim": self.dim,
            "factors": [f.descriptor() for f in self.factors],
        }


def haar_sample(model, rng: np.random.Generator):
    """One Haar draw as a group point (exp of one log-batch row)."""
    return model.exp(model.sample_log_batch(rng, 1)[0])


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
