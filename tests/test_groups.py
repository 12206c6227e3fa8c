import itertools
import math
import os
import threading
import time

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from liesig.groups import (
    CUT_TOLERANCE,
    CircleGroup,
    CutLocusError,
    ProductGroup,
    SU2Group,
    _SU2_GUESS,
    _su2_half_radius_poly,
    _su2_radius_from_uniform,
    map_chunks,
    parse_group,
    sphere_moment_level,
    stream,
)

PI = math.pi

# su(2) basis as 2x2 complex matrices, fixed by the bracket relations
# [e1,e2] = 2 e3, [e1,e3] = -2 e2, [e2,e3] = 2 e1 and orthonormality
E1 = np.array([[1j, 0], [0, -1j]])
E2 = np.array([[0, 1], [-1, 0]], dtype=complex)
E3 = np.array([[0, 1j], [1j, 0]])


def quat_to_matrix(q):
    return q[0] * np.eye(2) + q[1] * E1 + q[2] * E2 + q[3] * E3


def test_su2_basis_brackets():
    def br(a, b):
        return a @ b - b @ a

    assert np.allclose(br(E1, E2), 2 * E3)
    assert np.allclose(br(E1, E3), -2 * E2)
    assert np.allclose(br(E2, E3), 2 * E1)


# -- circle --------------------------------------------------------------------


def test_circle_exp_wraps():
    c = CircleGroup()
    assert c.exp(np.array([0.0])) == 0.0
    assert abs(c.exp(np.array([2 * PI + 0.5])) - 0.5) < 1e-12
    assert c.exp(np.array([PI])) == PI  # principal range is half-open at -pi


def test_circle_log_principal():
    c = CircleGroup()
    assert np.allclose(c.log(2.0), [2.0])
    with pytest.raises(CutLocusError):
        c.log(PI)
    with pytest.raises(CutLocusError):
        c.log(PI - 1e-12)


def test_circle_group_ops():
    c = CircleGroup()
    assert abs(c.multiply(2.0, 2.0) - (4.0 - 2 * PI)) < 1e-12
    assert c.inverse(0.5) == -0.5
    assert c.multiply(c.inverse(1.2), 1.2) == 0.0


def test_circle_haar_moments():
    c = CircleGroup()
    n = 10**6
    th = c.sample_log_batch(stream(123), n)[:, 0]
    se1 = PI / math.sqrt(3 * n)  # std of uniform(-pi,pi) over sqrt(n)
    assert abs(th.mean()) < 3 * se1
    m2 = PI**2 / 3
    se2 = math.sqrt((PI**4 / 5 - m2**2) / n)
    assert abs((th**2).mean() - m2) < 3 * se2


def test_circle_log_radius_is_distance_at_cut_locus():
    # uniform 0.0 gives theta = pi: kept as drawn, not redrawn, so the log's
    # radius is the distance that haar_distances reads from the same uniform
    class Uniforms:
        def __init__(self):
            self.calls = iter([np.array([0.0, 0.3, 0.7])])

        def random(self, size):
            return next(self.calls, np.full(size, 0.5))

    c = CircleGroup()
    u = np.array([0.0, 0.3, 0.7])
    th = c.sample_log_batch(Uniforms(), 3)[:, 0]
    assert np.abs(th).tobytes() == c.distance_from_uniforms(u[:, None]).tobytes()
    assert th[0] == PI


# -- su2 -----------------------------------------------------------------------


def test_su2_exp_diagonal_generator():
    s = SU2Group()
    q = s.exp(np.array([PI / 2, 0.0, 0.0]))
    assert np.allclose(q, [0.0, 1.0, 0.0, 0.0], atol=1e-15)
    assert np.allclose(quat_to_matrix(q), np.array([[1j, 0], [0, -1j]]))


def test_su2_exp_matches_matrix_exponential():
    s = SU2Group()
    rng = np.random.default_rng(42)
    for _ in range(12):
        v = rng.standard_normal(3) * rng.uniform(0.1, 0.9 * PI)
        v *= min(1.0, 3.0 / np.linalg.norm(v))
        q = s.exp(v)
        m_oracle = expm(v[0] * E1 + v[1] * E2 + v[2] * E3)
        assert np.allclose(quat_to_matrix(q), m_oracle, atol=1e-12)


def test_su2_log_examples():
    s = SU2Group()
    v = s.log(np.array([0.0, 1.0, 0.0, 0.0]))
    assert np.allclose(v, [PI / 2, 0.0, 0.0])
    assert abs(np.linalg.norm(v) - PI / 2) < 1e-15
    with pytest.raises(CutLocusError):
        s.log(np.array([-1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        s.log(np.array([2.0, 0.0, 0.0, 0.0]))  # not unit


def test_su2_log_near_identity():
    s = SU2Group()
    v = np.array([1e-9, -2e-9, 0.5e-9])
    assert np.allclose(s.log(s.exp(v)), v, atol=1e-18)
    assert np.allclose(s.log(s.exp(np.zeros(3))), np.zeros(3))


def test_su2_group_ops():
    s = SU2Group()
    rng = np.random.default_rng(1)
    a = s.exp(rng.standard_normal(3))
    b = s.exp(rng.standard_normal(3))
    assert np.allclose(
        quat_to_matrix(s.multiply(a, b)), quat_to_matrix(a) @ quat_to_matrix(b), atol=1e-12
    )
    assert np.allclose(s.multiply(a, s.inverse(a)), s.exp(np.zeros(3)), atol=1e-12)


def test_su2_haar_r2_moment():
    s = SU2Group()
    n = 10**6
    v = s.sample_log_batch(stream(321), n)
    r2 = np.einsum("bi,bi->b", v, v)
    mean = PI**2 / 3 - 0.5
    # var of r^2 from the radial density, E r^4 = (2/pi) I_4
    i4, _ = quad(lambda r: r**4 * (2 / PI) * math.sin(r) ** 2, 0, PI)
    se = math.sqrt((i4 - mean**2) / n)
    assert abs(r2.mean() - mean) < 3 * se


def test_su2_direction_is_uniform():
    # every moment E[u_i1 ... u_ik] of u = v/|v| up to level 4, each within
    # 5 standard errors of the uniform measure on S^2
    s = SU2Group()
    n = 200000
    v = s.sample_log_batch(stream(11), n)
    u = v / np.linalg.norm(v, axis=1, keepdims=True)
    for k in range(1, 5):
        exact = sphere_moment_level(k)
        for word, m in zip(itertools.product(range(3), repeat=k), exact):
            x = np.prod(u[:, list(word)], axis=1)
            se = x.std() / math.sqrt(n)
            assert abs(x.mean() - m) < 5 * se, (word, x.mean(), m, se)


@pytest.mark.parametrize("chunk,size", [(3, 1 << 16), (4, 1000)])
def test_su2_log_radius_is_first_draw(chunk, size):
    # |v| is the inverse CDF of the chunk stream's first `size` uniforms, so
    # the iid sampler and distance_from_uniforms share one radial law
    v = SU2Group().sample_log_batch(stream(5, chunk), size)
    r = _su2_radius_from_uniform(stream(5, chunk).random(size))
    assert np.all(np.abs(np.linalg.norm(v, axis=1) - r) <= 4 * np.spacing(r))


def test_su2_radius_clear_of_cut_locus():
    # numpy's largest uniform, 1 - 2^-53, maps to a radius far from the
    # cut locus at pi, so sample_log_batch needs no redraw
    r = _su2_radius_from_uniform(np.array([1.0 - 2.0**-53]))[0]
    assert PI - r >= 8e-6 > CUT_TOLERANCE


# -- sampler determinism and round trips ----------------------------------------


@pytest.mark.parametrize("spec", ["circle", "su2", "torus:2", "product:circle,su2"])
def test_sampler_determinism(spec):
    model = parse_group(spec)
    a = model.sample_log_batch(stream(7), 64)
    b = model.sample_log_batch(stream(7), 64)
    assert np.array_equal(a, b)
    g1 = model.exp(model.sample_log_batch(stream(9), 1)[0])
    g2 = model.exp(model.sample_log_batch(stream(9), 1)[0])
    assert np.linalg.norm(model.log(model.multiply(model.inverse(g1), g2))) == 0.0


DIAMETER = {"circle": PI, "su2": PI, "torus:3": PI * math.sqrt(3), "product:su2,circle": PI * math.sqrt(2)}


@pytest.mark.parametrize("spec", list(DIAMETER))
def test_exp_log_round_trip(spec):
    model = parse_group(spec)
    v = model.sample_log_batch(stream(13), 10**4)
    for i in range(0, 10**4, 7):
        g = model.exp(v[i])
        w = model.log(g)
        assert np.allclose(w, v[i], atol=1e-10)
        d = np.linalg.norm(w)
        assert abs(d - np.linalg.norm(v[i])) < 1e-10
        assert d <= DIAMETER[spec] + 1e-9


def test_product_log_splits():
    model = parse_group("product:circle,su2")
    g = model.exp(model.sample_log_batch(stream(17), 1)[0])
    v = model.log(g)
    assert np.allclose(v[:1], model.factors[0].log(g[0]))
    assert np.allclose(v[1:], model.factors[1].log(g[1]))


# -- radial CDF agreement --------------------------------------------------------


@pytest.mark.parametrize(
    "spec,density",
    [
        ("circle", lambda r: 1.0 / PI),
        ("su2", lambda r: (2.0 / PI) * math.sin(r) ** 2),
    ],
)
def test_sampler_matches_quadrature_cdf(spec, density):
    model = parse_group(spec)
    n = 10**6
    v = model.sample_log_batch(stream(2024), n)
    r = np.sort(np.linalg.norm(v, axis=1))
    grid = np.linspace(1e-6, PI - 1e-6, 101)
    cdf = np.array([quad(density, 0.0, g, epsabs=1e-12)[0] for g in grid])
    emp = np.searchsorted(r, grid, side="right") / n
    ks = np.abs(emp - cdf).max()
    assert ks < 0.002


def _su2_cdf_mp(r):
    return (r - mpmath.sin(r) * mpmath.cos(r)) / mpmath.pi


def _ulps_around(x, k=64):
    lo = hi = x
    out = [x]
    for _ in range(k):
        lo, hi = np.nextafter(lo, -1.0), np.nextafter(hi, 2.0)
        out += [lo, hi]
    return out


# u of the root r = 1/2, where the radius's relative bound starts
SU2_SEAM_U = (0.5 - math.sin(0.5) * math.cos(0.5)) / PI


def test_su2_radius_matches_mpmath_root():
    # the CDF is increasing on [0, pi], so evaluating it at r -+ tol (in
    # mpmath, where nothing cancels) brackets u exactly when the true root
    # lies within tol of r
    rng = np.random.default_rng(5)
    tails = [0.0, 1e-300, 1e-20, 1e-12, 0.5, 1 - 1e-4, 1 - 2.0**-53, 1.0]
    # subnormal u, and u = 1/2, where the root is nearest the pi/2 clamp
    edges = [5e-324, 1e-320, 1e-310, np.nextafter(2.0**-1022, 0.0), 2.0**-1022] + _ulps_around(0.5)
    u = np.concatenate(
        [
            tails,
            edges,
            _ulps_around(SU2_SEAM_U),
            _ulps_around(1.0 - SU2_SEAM_U),
            rng.random(2000),
            10.0 ** rng.uniform(-300, -1, 500),
            1.0 - 10.0 ** rng.uniform(-16, -1, 500),
        ]
    )
    r = _su2_radius_from_uniform(u)
    tol = mpmath.mpf("1e-15")
    with mpmath.workdps(80):
        for ui, ri in zip(u, r):
            lo = max(mpmath.mpf(ri) - tol, mpmath.mpf(0))
            hi = min(mpmath.mpf(ri) + tol, +mpmath.pi)
            assert _su2_cdf_mp(lo) <= ui <= _su2_cdf_mp(hi), (ui, ri)


def test_su2_radius_dense_where_error_peaks():
    # the absolute error peaks near r = 1.5, and u next to 1 takes the
    # smallest half-radii through pi - s: every float u whose root lies in
    # [1.3, 1.7] on a 2e-4 grid and its neighbours, and every float u within
    # 1e-12 of 1, bracketed at the 1e-15 bound
    with mpmath.workdps(40):
        grid = [float(_su2_cdf_mp(mpmath.mpf(r))) for r in np.linspace(1.3, 1.7, 2001)]
    u = np.concatenate([grid, np.nextafter(grid, 0.0), np.nextafter(grid, 1.0),
                        1.0 - 2.0**-53 * np.arange(1, int(1e-12 * 2.0**53) + 1)])
    r = _su2_radius_from_uniform(u)
    tol = mpmath.mpf("1e-15")
    with mpmath.workdps(40):
        for ui, ri in zip(u, r):
            lo, hi = mpmath.mpf(ri) - tol, min(mpmath.mpf(ri) + tol, +mpmath.pi)
            assert _su2_cdf_mp(lo) <= ui <= _su2_cdf_mp(hi), (ui, ri)


def _mp_digits_for(r):
    # s - sin s cos s ~ 2 s^3 / 3 cancels about -2 log10(s) digits; allow 3 a decade
    return 40 - 3 * min(0, math.floor(math.log10(r)))


def test_su2_small_radius_relative_error():
    # below r = 1/2 the radius is within about one ulp, relative:
    # the same bracket as above with tol = 3e-16 r
    rng = np.random.default_rng(6)
    u = np.concatenate(
        [
            _ulps_around(SU2_SEAM_U),
            SU2_SEAM_U * rng.uniform(0.05, 1.0, 300),
            10.0 ** rng.uniform(-300, -2, 200),
        ]
    )
    r = _su2_radius_from_uniform(u)
    for ui, ri in zip(u, r):
        with mpmath.workdps(_mp_digits_for(ri)):
            r_mp = mpmath.mpf(ri)
            tol = r_mp * mpmath.mpf("3e-16")
            assert _su2_cdf_mp(r_mp - tol) <= ui <= _su2_cdf_mp(r_mp + tol), (ui, ri)


def test_su2_guess_within_stated_bound():
    # the docstring's bound, on a dense grid of half-radii s; t = g(s) comes
    # from mpmath, so no root is solved
    s = np.concatenate([np.geomspace(1e-100, 0.1, 200), np.linspace(0.0, PI / 2, 4001)[1:]])
    t = []
    for si in s:
        with mpmath.workdps(_mp_digits_for(si)):
            t.append(float(mpmath.mpf(si) - mpmath.sin(si) * mpmath.cos(si)))
    half = _su2_half_radius_poly(np.array(t))
    assert np.max(np.abs(half / s - 1.0)) < 5e-16


def test_su2_guess_coefficients_from_mpmath():
    # s/t^(1/3) interpolated as a polynomial in x = t^(2/3) at the Chebyshev
    # points of [0, (pi/2)^(2/3)], from roots solved in mpmath
    n = len(_SU2_GUESS)
    with mpmath.workdps(40):
        a = (mpmath.pi / 2) ** (mpmath.mpf(2) / 3)
        xs = [a / 2 * (1 + mpmath.cos(mpmath.pi * (k + 0.5) / n)) for k in range(n)]
        ts = [x**1.5 for x in xs]
        roots = [mpmath.findroot(lambda s: s - mpmath.sin(s) * mpmath.cos(s) - t, mpmath.cbrt(1.5 * t)) for t in ts]
        vandermonde = mpmath.matrix([[x**j for j in range(n)] for x in xs])
        values = mpmath.matrix([s / mpmath.cbrt(t) for s, t in zip(roots, ts)])
        coeffs = mpmath.lu_solve(vandermonde, values)
    assert [float(c) for c in coeffs] == pytest.approx(_SU2_GUESS, rel=1e-12, abs=0.0)


def test_su2_radius_batch_invariant():
    block = 1 << 16
    u = stream(3).random(3 * block + 11)
    full = _su2_radius_from_uniform(u)
    for i, j in [(block - 3, block + 3), (5, block + 7), (2 * block - 1, 3 * block + 2), (0, len(u))]:
        assert full[i:j].tobytes() == _su2_radius_from_uniform(u[i:j]).tobytes()
    # the strided column that distance_from_uniforms passes
    cols = np.stack([u, u], axis=1)
    assert SU2Group().distance_from_uniforms(cols).tobytes() == full.tobytes()


# -- radial-law protocol ------------------------------------------------------------


@pytest.mark.parametrize("model", [CircleGroup(), SU2Group()])
def test_direction_moments(model):
    n = model.dim
    assert np.array_equal(model.direction_moment(0), np.ones(1))
    assert not np.any(model.direction_moment(3))
    # v/|v| is a unit vector: the level-2 tensor has trace 1 and is isotropic
    assert np.allclose(model.direction_moment(2).reshape(n, n), np.eye(n) / n, atol=1e-15)


# -- parsing -------------------------------------------------------------------------


def test_parse_group_shapes():
    assert parse_group("circle").dim == 1
    assert parse_group("su2").dim == 3
    t3 = parse_group("torus:3")
    assert isinstance(t3, ProductGroup) and t3.dim == 3
    p = parse_group("product:torus:2,su2")
    assert p.dim == 5
    assert [f.kind for f in p.factors] == ["circle", "circle", "su2"]
    with pytest.raises(ValueError):
        parse_group("so3")
    with pytest.raises(ValueError):
        parse_group("torus:0")


def test_map_chunks_order_and_worker_cap():
    # three chunks can start at most three threads, so a broken cap shows
    # on any machine with fewer than three CPUs
    workers = set()

    def fn(c, start, size):
        workers.add(threading.get_ident())
        time.sleep(0.05)
        return c, start, size

    got = list(map_chunks(fn, 25, 10, threads=64))
    assert got == [(0, 0, 10), (1, 10, 10), (2, 20, 5)]
    assert len(workers) <= min(os.cpu_count(), 3)


@pytest.mark.parametrize("chunk", [0, -1])
def test_map_chunks_rejects_bad_chunk(chunk):
    with pytest.raises(ValueError, match="chunk must be >= 1"):
        list(map_chunks(lambda c, start, size: size, 100, chunk))


def test_cut_tolerance_constant():
    assert CUT_TOLERANCE == 1e-9


# -- property tests ----------------------------------------------------------------


from hypothesis import given, settings, strategies as st


@settings(max_examples=100, deadline=None)
@given(st.floats(-1e6, 1e6))
def test_circle_exp_lands_in_principal_range(theta):
    c = CircleGroup()
    w = c.exp(np.array([theta]))
    assert -PI < w <= PI
    # differs from the input by a whole number of turns
    k = (theta - w) / (2 * PI)
    assert abs(k - round(k)) < 1e-6


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
def test_su2_exp_log_round_trip_property(coords):
    s = SU2Group()
    v = np.asarray(coords)
    w = s.log(s.exp(v))
    assert np.allclose(w, v, atol=1e-12)
