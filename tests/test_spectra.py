import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from liesig import spectra
from liesig.average import (
    average_closed_form,
    average_monte_carlo,
    average_product,
    average_quadrature,
    mc_chunk_size,
)
from liesig.groups import (
    CircleGroup,
    ProductGroup,
    SU2Group,
    mean_stderr,
    parse_group,
    stream,
    su2_radial_integrals_mp,
)
from liesig.spectra import (
    TraceSpectrum,
    rtr_spectrum,
    spectrum_closed_form,
    spectrum_monte_carlo,
    spectrum_quadrature,
)
from liesig.tensor import trace_level

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
    q = average_quadrature(SU2Group(), 6)
    spec = rtr_spectrum(q, 3)
    direct = spectrum_quadrature(SU2Group(), 3)
    assert np.allclose(spec.values, direct.values, rtol=1e-12)
    with pytest.raises(ValueError):
        rtr_spectrum(q, 4)  # needs depth 8


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(["circle", "su2"]), min_size=1, max_size=3), st.integers(0, 6))
@example(["su2"], 6)
@example(["su2", "circle"], 5)
@example(["su2", "su2"], 4)
@example(["su2", "su2", "su2"], 3)
@example(["circle", "circle", "circle"], 6)
def test_rtr_spectrum_matches_dense_trace(factors, K):
    model = parse_group(factors[0] if len(factors) == 1 else "product:" + ",".join(factors))
    # the dense oracle holds level 2K's words: at most 2e6 of them (16 MB)
    while model.dim ** (2 * K) > 2 * 10**6:
        K -= 1
    torus = set(factors) == {"circle"}
    avgs = [average_quadrature(model, 2 * K) if len(factors) == 1 else average_product(model, 2 * K)]
    if torus:
        avgs.append(average_closed_form(model, 2 * K))
    exact = (spectrum_closed_form if torus else spectrum_quadrature)(model, K).values
    for avg in avgs:
        got = rtr_spectrum(avg, K).values
        dense = np.array([math.factorial(2 * k) * trace_level(avg.tensor, 2 * k) for k in range(K + 1)])
        # the monomial sum adds in another order than the contraction; over
        # every case drawn here the gap is at most 3 ulp
        assert np.all(np.abs(got - dense) <= 4 * np.spacing(dense))
        assert np.all(np.abs(got - exact) <= 1e-12 * exact)


def test_rtr_spectrum_reads_no_dense_level():
    # level 16 of su2 has 3^16 words (344 MB as float64); the trace reads
    # 153 monomial values of it
    avg = average_quadrature(SU2Group(), 16)
    tracemalloc.start()
    try:
        spec = rtr_spectrum(avg, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 10**6
    assert np.allclose(spec.values, spectrum_quadrature(SU2Group(), 8).values, rtol=1e-12, atol=0.0)


def test_r0_validation():
    with pytest.raises(ValueError):
        TraceSpectrum(np.array([2.0, 1.0]), 1)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_values_refused(bad):
    with pytest.raises(ValueError, match="non-finite r_2k at k = 2"):
        TraceSpectrum(np.array([1.0, 3.0, bad, bad]), 3)
    with pytest.raises(ValueError, match="non-finite stderr at k = 1"):
        TraceSpectrum(np.array([1.0, 3.0, 9.0]), 2, stderr=np.array([0.0, bad, 0.1]))


def test_mp_values_and_stderr_lengths_refused():
    # a K = 12 spectrum with 5 mp values crashed the moment pairing, and its
    # 3 standard errors went into the payload
    exact = spectrum_closed_form(CircleGroup(), 12)
    for n in (5, 12, 14):
        with pytest.raises(ValueError, match="expected K\\+1 mp_values"):
            TraceSpectrum(exact.values, 12, mp_values=(exact.mp_values * 2)[:n])
    for n in (3, 12, 14):
        with pytest.raises(ValueError, match="expected K\\+1 stderr values"):
            TraceSpectrum(exact.values, 12, stderr=np.zeros(n))
    with pytest.raises(ValueError, match="expected K\\+1 stderr values"):
        TraceSpectrum(exact.values, 12, stderr=np.zeros((13, 1)))
    ok = TraceSpectrum(exact.values, 12, mp_values=exact.mp_values, stderr=np.zeros(13))
    assert len(ok.to_json_dict()["stderr"]) == 13


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


def max_relative_gap(spec) -> float:
    with mp.workdps(50):
        return float(max(abs(mp.mpf(v) / m - 1) for v, m in zip(spec.values, spec.mp_values)))


@pytest.mark.parametrize("group,K,nodes,bound", [
    ("su2", 60, 128, 1e-13),  # moments-mp and criterion 7's settings
    ("circle", 60, 64, 1e-12),
    ("circle", 16, 16, 1e-7),
    ("su2", 16, 64, 1e-14),
])
def test_quadrature_residual_recorded(group, K, nodes, bound):
    spec = spectrum_quadrature(parse_group(group), K, nodes)
    residual = spec.provenance["quadrature_residual"]
    assert residual == spec.to_json_dict()["quadrature_residual"]
    assert residual <= bound
    assert math.isclose(residual, max_relative_gap(spec), rel_tol=1e-9)


@pytest.mark.parametrize("group,K,nodes,gap", [
    ("su2", 16, 4, "0.67"),
    ("su2", 16, 8, "0.036"),
    ("circle", 16, 8, "0.081"),
])
def test_quadrature_with_too_few_nodes_refused(group, K, nodes, gap):
    # these returned float values this far off the exact moments, silently
    message = f"quadrature with {nodes} nodes is {gap} off .*; use a smaller K$"
    with pytest.raises(ValueError, match=message):
        spectrum_quadrature(parse_group(group), K, nodes)


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


def test_moment_duality_same_stream(monkeypatch):
    # tensor route and moment route must be the same sums rearranged
    model = SU2Group()
    N, K, samples, seed = 6, 3, 10**5, 8
    avg = average_monte_carlo(model, N, samples, seed)
    tensor_route = rtr_spectrum(avg, K).values
    monkeypatch.setattr(spectra, "IID_CHUNK", mc_chunk_size(model.dim, N))
    moment_route = spectrum_monte_carlo(model, K, samples, seed).values
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


def power_table_spectrum(model, K, samples, seed):
    # spectrum_monte_carlo as it summed each chunk from a (K + 1)-row table
    # of powers, one row per k, single-threaded
    tot, tsq = np.zeros(K + 1), np.zeros(K + 1)
    for start in range(0, samples, spectra.IID_CHUNK):
        size = min(spectra.IID_CHUNK, samples - start)
        v = model.sample_log_batch(stream(seed, start // spectra.IID_CHUNK), size)
        d2 = np.einsum("bi,bi->b", v, v)
        pw = np.empty((K + 1, size))
        pw[0] = 1.0
        for k in range(1, K + 1):
            np.multiply(pw[k - 1], d2, out=pw[k])
        tot += pw.sum(axis=1)
        tsq += np.einsum("kb,kb->k", pw, pw)
    with np.errstate(over="ignore", invalid="ignore"):
        return mean_stderr(tot, tsq, samples)


@pytest.mark.parametrize("K", [1, 2, 7, 8, 40])
def test_mc_spectrum_matches_power_table_bitwise(K):
    # a full chunk (65536 draws, past numpy's 8192-element buffer) and a short one
    model, samples, seed = CircleGroup(), spectra.IID_CHUNK + 4465, 11
    values, stderr = power_table_spectrum(model, K, samples, seed)
    spec = spectrum_monte_carlo(model, K, samples, seed)
    assert spec.values.tobytes() == values.tobytes()
    assert spec.stderr.tobytes() == stderr.tobytes()


@pytest.mark.parametrize("group", ["su2", "torus:2", "torus:3", "product:circle,su2"])
def test_mc_spectrum_draws_distances_not_logs(monkeypatch, group):
    # the spectrum reads the radii of the logs' stream without drawing a log;
    # d * d may differ from |v|^2 in the last place (the circle's is bitwise,
    # above), so the log route is an oracle to a few ulp
    model, K, samples, seed = parse_group(group), 8, 300_001, 12
    values, stderr = power_table_spectrum(model, K, samples, seed)

    def refuse(self, rng, size):
        raise AssertionError("a Haar log drawn for a spectrum")

    for cls in (CircleGroup, SU2Group, ProductGroup):
        monkeypatch.setattr(cls, "sample_log_batch", refuse)
    spec = spectrum_monte_carlo(model, K, samples, seed, threads=2)
    np.testing.assert_allclose(spec.values, values, rtol=4 * np.finfo(float).eps, atol=0.0)
    np.testing.assert_allclose(spec.stderr, stderr, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("group", ["product:su2,circle", "product:su2,su2"])
def test_mc_spectrum_su2_first_product_within_4se(group):
    # these draw a later factor's radius from other uniforms than the logs
    # do, so only the statistics can be checked
    model = parse_group(group)
    spec = spectrum_monte_carlo(model, 8, 300_001, 12)
    exact = spectrum_quadrature(model, 8).values
    z = np.abs(spec.values[1:] - exact[1:]) / spec.stderr[1:]
    assert np.all(z <= 4.0)


def test_mc_spectrum_rejects_no_samples():
    with pytest.raises(ValueError, match="samples must be >= 1"):
        spectrum_monte_carlo(CircleGroup(), 2, 0, seed=0)


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
