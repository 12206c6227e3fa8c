import math

import mpmath as mp
import numpy as np
import pytest

from liesig.average import average_monte_carlo, average_quadrature, mc_chunk_size
from liesig.groups import CircleGroup, SU2Group, parse_group, su2_radial_integrals_mp
from liesig.spectra import (
    TraceSpectrum,
    rtr_spectrum,
    spectrum_closed_form,
    spectrum_monte_carlo,
    spectrum_quadrature,
)

PI = math.pi


def test_circle_rtr_examples():
    spec = spectrum_closed_form(CircleGroup(), 6)
    assert spec.values[0] == 1.0
    assert abs(spec.values[1] - PI**2 / 3) < 1e-14
    for k in range(7):
        assert abs(spec.values[k] - PI ** (2 * k) / (2 * k + 1)) < 1e-12 * spec.values[k]


def test_su2_quadrature_r2():
    spec = spectrum_quadrature(SU2Group(), 4)
    assert abs(spec.values[1] - (PI**2 / 3 - 0.5)) < 1e-12


def test_rtr_spectrum_from_tensor():
    q = average_quadrature(SU2Group(), 6, nodes=64)
    spec = rtr_spectrum(q, 3)
    direct = spectrum_quadrature(SU2Group(), 3)
    assert np.allclose(spec.values, direct.values, rtol=1e-12)
    with pytest.raises(ValueError):
        rtr_spectrum(q, 4)  # needs depth 8


def test_r0_validation():
    with pytest.raises(ValueError):
        TraceSpectrum(np.array([2.0, 1.0]), 1)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_values_refused(bad):
    with pytest.raises(ValueError, match="non-finite r_2k at k = 2"):
        TraceSpectrum(np.array([1.0, 3.0, bad, bad]), 3)
    with pytest.raises(ValueError, match="non-finite stderr at k = 1"):
        TraceSpectrum(np.array([1.0, 3.0, 9.0]), 2, stderr=np.array([0.0, bad, 0.1]))


def test_product_spectrum_convolution():
    t2 = spectrum_closed_form(parse_group("torus:2"), 5)
    c = spectrum_closed_form(CircleGroup(), 5).values
    for N in range(6):
        expect = sum(math.comb(N, k) * c[k] * c[N - k] for k in range(N + 1))
        assert abs(t2.values[N] - expect) < 1e-12 * expect
    assert abs(t2.values[1] - 2 * PI**2 / 3) < 1e-13


def test_mixed_product_quadrature_spectrum():
    spec = spectrum_quadrature(parse_group("product:circle,su2"), 4)
    c = spectrum_closed_form(CircleGroup(), 4).values
    s = spectrum_quadrature(SU2Group(), 4).values
    for N in range(5):
        expect = sum(math.comb(N, k) * c[k] * s[N - k] for k in range(N + 1))
        assert abs(spec.values[N] - expect) < 1e-10 * expect


def test_spectrum_closed_form_rejects_su2():
    with pytest.raises(ValueError):
        spectrum_closed_form(SU2Group(), 4)


def test_mp_values_match_floats():
    for spec in (
        spectrum_closed_form(CircleGroup(), 12),
        spectrum_quadrature(SU2Group(), 12),
        spectrum_quadrature(parse_group("torus:2"), 8),
        spectrum_quadrature(parse_group("product:su2,circle"), 8),
    ):
        assert spec.mp_values is not None
        for v, m in zip(spec.values, spec.mp_values):
            assert abs(v - float(m)) <= 1e-12 * float(m)


def test_su2_radial_integrals_recursion_vs_mpmath_quad():
    I = su2_radial_integrals_mp(40)
    with mp.workdps(40):
        for n in (0, 1, 2, 7, 20, 40):
            oracle = mp.quad(lambda r: r**n * mp.sin(r) ** 2, [0, mp.pi])
            assert abs(I[n] - oracle) / oracle < mp.mpf("1e-30")


def test_su2_i2_minus_sign():
    I = su2_radial_integrals_mp(2)
    assert abs(float(I[2]) - (PI**3 / 6 - PI / 4)) < 1e-14
    assert abs(float(I[2]) - (PI**3 / 6 + PI / 4)) > 1.0


# -- Monte Carlo spectra -----------------------------------------------------------


def test_mc_spectrum_r0_and_stderr():
    spec = spectrum_monte_carlo(CircleGroup(), 4, 10**5, seed=2)
    assert spec.values[0] == 1.0
    assert spec.stderr is not None and spec.stderr[0] == 0.0
    exact = spectrum_closed_form(CircleGroup(), 4).values
    z = np.abs(spec.values[1:] - exact[1:]) / spec.stderr[1:]
    assert np.all(z <= 4.0)


def test_moment_duality_same_stream():
    # tensor route and moment route must be the same sums rearranged
    model = SU2Group()
    N, K, samples, seed = 6, 3, 10**5, 8
    avg = average_monte_carlo(model, N, samples, seed)
    tensor_route = rtr_spectrum(avg, K).values
    moment_route = spectrum_monte_carlo(
        model, K, samples, seed, chunk=mc_chunk_size(model.dim, N)
    ).values
    assert np.allclose(tensor_route, moment_route, rtol=1e-12, atol=0.0)


def test_mc_spectrum_cross_stream_4sigma():
    a = spectrum_monte_carlo(SU2Group(), 3, 10**5, seed=100)
    b = spectrum_monte_carlo(SU2Group(), 3, 10**5, seed=200)
    se = np.sqrt(a.stderr**2 + b.stderr**2)
    assert np.all(np.abs(a.values[1:] - b.values[1:]) <= 4 * se[1:])


def test_mc_spectrum_threads_bitwise():
    a = spectrum_monte_carlo(parse_group("torus:2"), 5, 70001, seed=6, threads=1)
    b = spectrum_monte_carlo(parse_group("torus:2"), 5, 70001, seed=6, threads=8)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.stderr, b.stderr)


@pytest.mark.parametrize("samples, chunk", [(100, 0), (100, -1), (0, 1 << 16)])
def test_mc_spectrum_rejects_bad_chunk(samples, chunk):
    with pytest.raises(ValueError):
        spectrum_monte_carlo(CircleGroup(), 2, samples, seed=0, chunk=chunk)


def test_log_convexity_exact_spectra():
    # moments of a nonnegative variable: r_{2k}^2 <= r_{2k-2} r_{2k+2}
    for spec in (
        spectrum_closed_form(CircleGroup(), 10),
        spectrum_quadrature(SU2Group(), 10),
        spectrum_closed_form(parse_group("torus:2"), 10),
    ):
        v = spec.values
        for k in range(1, 10):
            assert v[k] ** 2 <= v[k - 1] * v[k + 1] * (1 + 1e-12)


def test_json_dict():
    spec = spectrum_monte_carlo(CircleGroup(), 3, 1000, seed=4)
    d = spec.to_json_dict()
    assert d["K"] == 3 and d["method"] == "monte_carlo"
    assert len(d["rtr"]) == 4 and len(d["stderr"]) == 4


def test_mc_spectrum_log_convexity_within_noise():
    # moments of a nonnegative variable are log-convex; MC estimates may
    # violate the inequality only within propagated noise
    spec = spectrum_monte_carlo(SU2Group(), 6, 10**5, seed=55)
    v, se = spec.values, spec.stderr
    for k in range(1, 6):
        gap = v[k] ** 2 - v[k - 1] * v[k + 1]
        sigma = math.sqrt(
            (2 * v[k] * se[k]) ** 2
            + (v[k + 1] * se[k - 1]) ** 2
            + (v[k - 1] * se[k + 1]) ** 2
        )
        assert gap <= 4.0 * sigma
