import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from liesig.groups import (
    CUT_TOLERANCE,
    CircleGroup,
    CutLocusError,
    DomainError,
    ProductGroup,
    SU2Group,
    _su2_radius_from_uniform,
    haar_sample,
    parse_group,
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
    assert c.distance(2.0) == 2.0
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
    assert np.allclose(s.log(s.identity()), np.zeros(3))


def test_su2_group_ops():
    s = SU2Group()
    rng = np.random.default_rng(1)
    a = s.exp(rng.standard_normal(3))
    b = s.exp(rng.standard_normal(3))
    assert np.allclose(
        quat_to_matrix(s.multiply(a, b)), quat_to_matrix(a) @ quat_to_matrix(b), atol=1e-12
    )
    assert np.allclose(s.multiply(a, s.inverse(a)), s.identity(), atol=1e-12)


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
    s = SU2Group()
    v = s.sample_log_batch(stream(11), 200000)
    u = v / np.linalg.norm(v, axis=1, keepdims=True)
    assert np.abs(u.mean(axis=0)).max() < 0.01
    # second moments of a uniform direction are 1/3 on the diagonal
    assert np.abs((u[:, 0] ** 2).mean() - 1 / 3) < 0.01


# -- sampler determinism and round trips ----------------------------------------


@pytest.mark.parametrize("spec", ["circle", "su2", "torus:2", "product:circle,su2"])
def test_sampler_determinism(spec):
    model = parse_group(spec)
    a = model.sample_log_batch(stream(7), 64)
    b = model.sample_log_batch(stream(7), 64)
    assert np.array_equal(a, b)
    g1 = haar_sample(model, stream(9))
    g2 = haar_sample(model, stream(9))
    assert model.distance(model.multiply(model.inverse(g1), g2)) == 0.0


@pytest.mark.parametrize("spec", ["circle", "su2", "torus:3", "product:su2,circle"])
def test_exp_log_round_trip(spec):
    model = parse_group(spec)
    v = model.sample_log_batch(stream(13), 10**4)
    hint = model.diameter_hint()
    for i in range(0, 10**4, 7):
        g = model.exp(v[i])
        w = model.log(g)
        assert np.allclose(w, v[i], atol=1e-10)
        d = model.distance(g)
        assert abs(d - np.linalg.norm(v[i])) < 1e-10
        assert d <= hint + 1e-9


def test_product_log_splits():
    model = parse_group("product:circle,su2")
    rng = stream(17)
    g = haar_sample(model, rng)
    v = model.log(g)
    assert np.allclose(v[:1], model.factors[0].log(g[0]))
    assert np.allclose(v[1:], model.factors[1].log(g[1]))
    assert abs(model.distance(g) ** 2 - sum(f.distance(gi) ** 2 for f, gi in zip(model.factors, g))) < 1e-12


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


def test_su2_radius_matches_mpmath_root():
    # the CDF is increasing on [0, pi], so evaluating it at r -+ tol (in
    # mpmath, where nothing cancels) brackets u exactly when the true root
    # lies within tol of r
    rng = np.random.default_rng(5)
    tails = [0.0, 1e-300, 1e-20, 1e-12, 0.5, 1 - 1e-4, 1 - 2.0**-53, 1.0]
    u = np.concatenate(
        [
            tails,
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


def test_su2_radius_batch_invariant():
    block = 1 << 16
    u = stream(3).random(3 * block + 11)
    full = _su2_radius_from_uniform(u)
    for i, j in [(block - 3, block + 3), (5, block + 7), (2 * block - 1, 3 * block + 2), (0, len(u))]:
        assert full[i:j].tobytes() == _su2_radius_from_uniform(u[i:j]).tobytes()
    # the strided column that distance_from_uniforms passes
    cols = np.stack([u, u], axis=1)
    assert SU2Group().distance_from_uniforms(cols).tobytes() == full.tobytes()


# -- pullback densities -----------------------------------------------------------


def test_pullback_density_values():
    c = CircleGroup()
    assert c.pullback_density(np.array([1.0])) == 1.0 / (2 * PI)
    with pytest.raises(DomainError):
        c.pullback_density(np.array([PI]))
    s = SU2Group()
    assert abs(s.pullback_density(np.array([PI / 2, 0, 0])) - 2.0 / PI**4) < 1e-15
    assert abs(s.pullback_density(np.zeros(3)) - 1.0 / (2 * PI**2)) < 1e-15
    with pytest.raises(DomainError):
        s.pullback_density(np.array([PI, 0.0, 0.0]))
    p = parse_group("product:circle,su2")
    val = p.pullback_density(np.array([0.5, PI / 2, 0, 0]))
    assert abs(val - (1 / (2 * PI)) * (2 / PI**4)) < 1e-18


def test_pullback_density_normalisation():
    # radial reduction of the su2 density evaluated through the public op
    s = SU2Group()

    def radial(r):
        if r == 0.0:
            return 0.0
        w = s.pullback_density(np.array([r, 0.0, 0.0]))
        return w * 4.0 * PI * r**2

    total, _ = quad(radial, 0.0, PI, epsabs=1e-10, limit=200)
    assert abs(total - 1.0) < 1e-8
    c = CircleGroup()
    total_c, _ = quad(lambda t: c.pullback_density(np.array([t])), -PI + 1e-12, PI - 1e-12)
    assert abs(total_c - 1.0) < 1e-8


# -- parsing and descriptors -------------------------------------------------------


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


def test_descriptors():
    assert parse_group("circle").descriptor() == {"kind": "circle", "dim": 1}
    assert parse_group("su2").descriptor() == {"kind": "su2", "dim": 3}
    d = parse_group("torus:2").descriptor()
    assert d["kind"] == "product" and d["dim"] == 2 and len(d["factors"]) == 2


def test_point_coords_round_trip():
    for spec in ("circle", "su2", "product:circle,su2"):
        model = parse_group(spec)
        g = haar_sample(model, stream(3))
        back = model.point_from_coords(model.point_coords(g))
        assert model.distance(model.multiply(model.inverse(g), back)) < 1e-12


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
