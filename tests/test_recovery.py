import functools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from liesig import recovery
from liesig.groups import CircleGroup, ProductGroup, SU2Group, parse_group
from liesig.recovery import (
    AmbiguousDimension,
    FitFailure,
    RadialCdfEstimator,
    ball_volume_from_moments,
    diameter_estimate,
    lk_norm,
    recover,
    small_ball_recovery,
    unit_ball_volume,
)
from liesig.spectra import TraceSpectrum, spectrum_closed_form, spectrum_monte_carlo, spectrum_quadrature

PI = math.pi


def circle_F(R):
    return min(R / PI, 1.0)


def su2_F(R):
    return (R - math.sin(R) * math.cos(R)) / PI if R < PI else 1.0


# -- Lk norms -------------------------------------------------------------------


def test_lk_norm_circle_values():
    spec = spectrum_closed_form(CircleGroup(), 8)
    assert abs(lk_norm(spec, 1) - PI**2 / 3) < 1e-13
    assert abs(lk_norm(spec, 2) - PI**2 / math.sqrt(5)) < 1e-12


def test_lk_norm_monotone():
    for spec in (
        spectrum_closed_form(CircleGroup(), 10),
        spectrum_quadrature(SU2Group(), 10),
    ):
        norms = [lk_norm(spec, k) for k in range(1, 11)]
        assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))


def test_lk_norm_range_check():
    spec = spectrum_closed_form(CircleGroup(), 4)
    with pytest.raises(ValueError):
        lk_norm(spec, 5)
    with pytest.raises(ValueError):
        lk_norm(spec, 0)


# -- diameter --------------------------------------------------------------------


def test_diameter_estimates():
    est = diameter_estimate(spectrum_closed_form(CircleGroup(), 32))
    assert abs(est.value - PI) / PI < 0.01
    est2 = diameter_estimate(spectrum_quadrature(SU2Group(), 32))
    assert abs(est2.value - PI) / PI < 0.02
    est3 = diameter_estimate(spectrum_closed_form(parse_group("torus:2"), 32))
    assert abs(est3.value - PI * math.sqrt(2)) / (PI * math.sqrt(2)) < 0.02


def test_diameter_raw_sequence_monotone():
    est = diameter_estimate(spectrum_quadrature(SU2Group(), 24))
    assert np.all(np.diff(est.raw_sequence) >= -1e-12)


def test_diameter_needs_k4():
    spec = spectrum_closed_form(CircleGroup(), 3)
    with pytest.raises(ValueError):
        diameter_estimate(spec)


# -- unit ball volume --------------------------------------------------------------


def test_unit_ball_volume_values():
    assert abs(unit_ball_volume(1) - 2.0) < 1e-14
    assert abs(unit_ball_volume(2) - PI) < 1e-14
    assert abs(unit_ball_volume(3) - 4 * PI / 3) < 1e-14
    with pytest.raises(ValueError):
        unit_ball_volume(0)


# -- moment-based ball volume -------------------------------------------------------


def test_moment_cdf_circle_midpoint():
    spec = spectrum_closed_form(CircleGroup(), 60)
    F, info = ball_volume_from_moments(spec, PI / 2, 60, full_output=True)
    assert abs(F - 0.5) < 0.02
    assert info["exact_moments"]
    assert info["amplification"] > 1e6  # float64 moments would be hopeless here


def test_moment_cdf_endpoints():
    spec = spectrum_closed_form(CircleGroup(), 60)
    dmax = diameter_estimate(spec).value
    assert ball_volume_from_moments(spec, 0.0, 60, dmax=dmax) <= 0.02
    assert ball_volume_from_moments(spec, dmax, 60, dmax=dmax) >= 0.98


def test_moment_cdf_su2():
    spec = spectrum_quadrature(SU2Group(), 60, nodes=128)
    F = ball_volume_from_moments(spec, PI / 2, 60)
    assert abs(F - 0.5) < 0.02


def test_moment_cdf_agrees_with_empirical_on_grid():
    # moment route vs empirical CDF across (0.1 D, 0.9 D)
    cases = [
        (spectrum_closed_form(CircleGroup(), 40), CircleGroup()),
        (spectrum_quadrature(SU2Group(), 40, nodes=96), SU2Group()),
    ]
    for spec, model in cases:
        dmax = diameter_estimate(spec).value
        cdf = RadialCdfEstimator(model, 10**6, seed=5, scheme="iid")
        for R in np.linspace(0.1 * dmax, 0.9 * dmax, 9):
            Fm = ball_volume_from_moments(spec, float(R), 40, dmax=dmax)
            Fe, _ = cdf(float(R))
            assert abs(Fm - Fe) < 0.025


def test_moment_cdf_monotone_and_clamped():
    spec = spectrum_closed_form(CircleGroup(), 30)
    dmax = diameter_estimate(spec).value
    vals = [ball_volume_from_moments(spec, r, 30, dmax=dmax) for r in np.linspace(0, dmax, 12)]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b - a >= -5e-3 for a, b in zip(vals, vals[1:]))


def reference_monomials(c, sigma, degree):
    # the direct formulation: one mp.cos per (m, node) and an mpf recurrence
    # re-expanding sum b_m T_m(2u - 1) in powers of u
    rt2s = mp.sqrt(2) * sigma

    def f(u):
        return (mp.erfc((u - c) / rt2s) - mp.erfc((u + c) / rt2s)) / 2

    M = 2 * degree + 33
    ang = [mp.pi * (j + mp.mpf(1) / 2) / M for j in range(M)]
    fv = [f((mp.cos(t) + 1) / 2) for t in ang]
    b = []
    for m_idx in range(degree + 1):
        s = mp.fsum(fv[j] * mp.cos(m_idx * ang[j]) for j in range(M))
        b.append(s * 2 / M if m_idx else s / M)
    a = [mp.mpf(0)] * (degree + 1)
    t_prev, t_cur = [mp.mpf(1)], [mp.mpf(-1), mp.mpf(2)]
    a[0] += b[0]
    a[0] += b[1] * t_cur[0]
    a[1] += b[1] * t_cur[1]
    for m_idx in range(2, degree + 1):
        t_next = [mp.mpf(0)] * (m_idx + 1)
        for j, cj in enumerate(t_cur):
            t_next[j + 1] += 4 * cj
            t_next[j] -= 2 * cj
        for j, cj in enumerate(t_prev):
            t_next[j] -= cj
        for j, cj in enumerate(t_next):
            a[j] += b[m_idx] * cj
        t_prev, t_cur = t_cur, t_next
    return a


@pytest.mark.parametrize("degree", [1, 2, 5, 11, 30, 60])
def test_monomials_match_direct_formulation(degree):
    dps = 50 + 2 * degree
    with mp.workdps(dps):
        sigma = mp.mpf(1) / (4 * degree)
        for c in ("0", "0.01", "0.5", "0.99"):
            a, wp = recovery._mollified_indicator_monomials(mp.mpf(c), sigma, degree)
            got = [mp.ldexp(x, -wp) for x in a]
            want = reference_monomials(mp.mpf(c), sigma, degree)
            assert len(got) == len(want) == degree + 1
            scale = max(abs(x) for x in want)
            assert max(abs(g - w) for g, w in zip(got, want)) <= mp.mpf(10) ** -(dps - 20) * scale


def direct_monomials_fixed(c, sigma, degree):
    # reference_monomials rounded to the fixed-point seam's units
    wp = mp.mp.prec + 32
    return [mp.libmp.to_fixed(x._mpf_, wp) for x in reference_monomials(c, sigma, degree)], wp


@pytest.mark.parametrize("group", ["circle", "su2"])
def test_moment_cdf_bitwise_equal_to_direct_formulation(monkeypatch, group):
    spec = (
        spectrum_closed_form(CircleGroup(), 40)
        if group == "circle"
        else spectrum_quadrature(SU2Group(), 40, nodes=128)
    )
    radii = [float(R) for R in np.linspace(0.1 * PI, 0.9 * PI, 8)]
    got = [ball_volume_from_moments(spec, R, 40, dmax=PI) for R in radii]
    monkeypatch.setattr(recovery, "_mollified_indicator_monomials", direct_monomials_fixed)
    assert got == [ball_volume_from_moments(spec, R, 40, dmax=PI) for R in radii]


@functools.lru_cache(maxsize=None)
def reference_tables(degree, prec):
    # mpf nodes and cosine rows from one table of 4M entries, as the pairing
    # built them before it moved to fixed point
    M = 2 * degree + 33
    with mp.workprec(prec):
        quarter = [mp.cos(mp.pi * k / (2 * M)) for k in range(M)] + [mp.mpf(0)]
        half = quarter + [-quarter[k] for k in range(M - 1, -1, -1)]
        table = half + half[2 * M - 1 : 0 : -1]
        nodes = [(1 + table[2 * j + 1]) / 2 for j in range(M)]
    cos_rows = [[table[m * (2 * j + 1) % (4 * M)] for j in range(M)] for m in range(degree + 1)]
    int_rows = [[1], [-1, 2]]
    for _ in range(2, degree + 1):
        prev, cur = int_rows[-2], int_rows[-1]
        nxt = [0] + [4 * cj for cj in cur]
        for j, cj in enumerate(cur):
            nxt[j] -= 2 * cj
        for j, cj in enumerate(prev):
            nxt[j] -= cj
        int_rows.append(nxt)
    return nodes, cos_rows, int_rows


@functools.lru_cache(maxsize=None)
def reference_table_monomials(c, sigma, degree, prec):
    # cached: spectra paired at the same R and dmax share c and sigma
    nodes, cos_rows, int_rows = reference_tables(degree, prec)
    M = len(nodes)
    rt2s = mp.sqrt(2) * sigma

    def erfc(x):
        return 2 - mp.erfc(-x) if x < 0 else mp.erfc(x)

    fv = [(erfc((u - c) / rt2s) - erfc((u + c) / rt2s)) / 2 for u in nodes]
    b = [mp.fdot(fv, row) * (2 if m else 1) / M for m, row in enumerate(cos_rows)]
    a = [mp.mpf(0)] * (degree + 1)
    for bm, row in zip(b, int_rows):
        for j, cj in enumerate(row):
            a[j] += bm * cj
    return a


def reference_pairing(spec, R, degree, dmax=None, full_output=False):
    """ball_volume_from_moments as an mpf computation throughout: mpf cosine
    rows, mpmath erfc at the working precision, fdot and fsum."""
    if dmax is None:
        dmax = diameter_estimate(spec).value
    dps = 50 + 2 * degree
    with mp.workdps(dps):
        B = (mp.mpf("1.05") * mp.mpf(dmax)) ** 2
        if spec.mp_values is not None:
            mom = [spec.mp_values[j] / B**j for j in range(degree + 1)]
        else:
            mom = [mp.mpf(float(spec.values[j])) / B**j for j in range(degree + 1)]
        c = mp.mpf(R) ** 2 / B
        sigma = mp.mpf(1) / (4 * degree)
        a = reference_table_monomials(c, sigma, degree, mp.mp.prec)
        F = mp.fsum(a[j] * mom[j] for j in range(degree + 1))
        amplification = mp.fsum(abs(a[j]) * mom[j] for j in range(degree + 1))
        rounding = mp.mpf(10) ** -dps if spec.mp_values is not None else mp.mpf(2) ** -52
        error_bound = float(amplification * rounding)
        out = min(1.0, max(0.0, float(F)))
    if error_bound > recovery.PAIRING_TOL:
        raise FitFailure(
            f"degree {degree} pairing amplifies moment rounding by {float(amplification):.3g}: "
            f"error bound {error_bound:.3g} exceeds {recovery.PAIRING_TOL}"
        )
    info = {
        "domain": float(B),
        "sigma_u": float(sigma),
        "amplification": float(amplification),
        "exact_moments": spec.mp_values is not None,
        "dps": dps,
        "error_bound": error_bound,
    }
    return (out, info) if full_output else out


@pytest.fixture(scope="module")
def grid_spectra():
    return {
        "circle": spectrum_closed_form(CircleGroup(), 60),
        "su2": spectrum_quadrature(SU2Group(), 60, nodes=128),
        "float_circle": spectrum_monte_carlo(CircleGroup(), 60, 10**5, seed=0),
    }


def pairing_outcome(pair, *args):
    # F and every info value as bit patterns, or the refusal's text
    try:
        F, info = pair(*args, full_output=True)
    except FitFailure as exc:
        return "FitFailure", str(exc)
    return F.hex(), {k: v.hex() if isinstance(v, float) else v for k, v in info.items()}


@pytest.mark.parametrize("degree", [1, 2, 5, 11, 12, 24, 30, 40, 60])
def test_moment_cdf_bitwise_equal_to_mpf_pairing(grid_spectra, degree):
    # R on the 12-point table grid and the benchmark's 8 radii, dmax = pi,
    # plus the default dmax (the diameter estimate) at pi / 2
    radii = [float(R) for R in np.linspace(0, PI, 12)]
    radii += [float(R) for R in np.linspace(0.1 * PI, 0.9 * PI, 8)]
    calls = [(R, PI) for R in radii] + [(PI / 2, None)]
    refused = 0
    for spec in grid_spectra.values():
        for R, dmax in calls:
            want = pairing_outcome(reference_pairing, spec, R, degree, dmax)
            assert pairing_outcome(ball_volume_from_moments, spec, R, degree, dmax) == want
            refused += want[0] == "FitFailure"
    # from degree 30 the float64 spectrum is refused at every R but 0, where
    # every node value and so the amplification is 0
    if degree >= 30:
        assert refused == len(calls) - 1


def test_moment_cdf_float_spectrum_guard():
    spec = spectrum_monte_carlo(CircleGroup(), 40, 10**5, seed=0)
    F, info = ball_volume_from_moments(spec, PI / 2, 12, dmax=PI, full_output=True)
    assert abs(F - 0.5) < 0.02
    assert not info["exact_moments"]
    assert info["error_bound"] == pytest.approx(info["amplification"] * 2.0**-52)
    assert info["error_bound"] < recovery.PAIRING_TOL
    with pytest.raises(FitFailure, match="degree 40"):
        ball_volume_from_moments(spec, PI / 2, 40, dmax=PI)


def test_moment_cdf_refuses_exact_values_stored_as_float():
    exact = spectrum_closed_form(CircleGroup(), 60)
    _, info = ball_volume_from_moments(exact, PI / 2, 60, full_output=True)
    assert info["error_bound"] < 1e-100
    with pytest.raises(FitFailure, match="degree 60"):
        ball_volume_from_moments(TraceSpectrum(exact.values, 60), PI / 2, 60)


def test_moment_cdf_degree_check():
    spec = spectrum_closed_form(CircleGroup(), 10)
    with pytest.raises(ValueError):
        ball_volume_from_moments(spec, 1.0, 11)
    with pytest.raises(ValueError):
        ball_volume_from_moments(spec, -0.5, 5)


@pytest.mark.parametrize("dmax", [math.inf, -math.inf, math.nan, 0.0, -1.0])
def test_moment_cdf_refuses_bad_dmax(dmax):
    spec = spectrum_closed_form(CircleGroup(), 30)
    with pytest.raises(ValueError, match="dmax must be finite and positive"):
        ball_volume_from_moments(spec, 0.5, 30, dmax=dmax)


@pytest.mark.parametrize("dmax", [1.0, 2.0, 2.8])
def test_moment_cdf_refuses_dmax_below_support(dmax):
    # the circle's support is [0, pi]; these once returned 0.0 or 1.0 for
    # the true F(0.5) = 0.159, with error bounds below 1e-60
    spec = spectrum_closed_form(CircleGroup(), 30)
    with pytest.raises(FitFailure, match="understates the support"):
        ball_volume_from_moments(spec, 0.5, 30, dmax=dmax)


def test_moment_cdf_refuses_unordered_error_bound(monkeypatch):
    # a NaN error bound must be refused: the check is "bound <= tolerance"
    spec = spectrum_closed_form(CircleGroup(), 30)
    monkeypatch.setattr(recovery, "PAIRING_TOL", math.nan)
    with pytest.raises(FitFailure, match="error bound"):
        ball_volume_from_moments(spec, 0.5, 30, dmax=PI)


# the working precisions of the pairing grid's degrees 1 ... 60, plus 100 and 330
PAIRING_WPS = [100, 208, 215, 235, 275, 281, 330, 361, 401, 467, 600]


def erfc_seams(wp):
    # every anchor of _erfc_fixed below its saturation point x^2 log2(e) =
    # wp + 8, 2^-40 to either side, and the midpoint to the next anchor,
    # with the sign alternating by anchor
    step = 2.0 ** -recovery._ERFC_STEP
    top = int(math.sqrt((wp + 8) / math.log2(math.e)) / step)
    return [(-1) ** j * (j * step + off) for j in range(top + 1) for off in (0, 2**-40, -(2**-40), step / 2)]


@settings(max_examples=300, deadline=None)
@given(
    wp=st.sampled_from(PAIRING_WPS),
    x=st.one_of(
        st.floats(-40, 40),
        st.floats(2, 21),
        st.floats(-1e-3, 1e-3),
        st.sampled_from([0.0, -0.0, 5e-324]),
        st.sampled_from(erfc_seams(600)),
    ),
)
@example(wp=600, x=0.0)
def test_erfc_fixed_absolute_accuracy(wp, x):
    got = recovery._erfc_fixed(mp.mpf(x), wp)
    with mp.workprec(2 * wp):
        assert abs(got - mp.ldexp(mp.erfc(x), wp)) <= 1


@functools.lru_cache(maxsize=None)
def erfc_oracle(x):
    # at twice the largest wp: the seams of all wp share their oracle values
    with mp.workprec(2 * max(PAIRING_WPS)):
        return mp.erfc(x)


@pytest.mark.parametrize("wp", PAIRING_WPS)
def test_erfc_fixed_at_seams(wp):
    for x in erfc_seams(wp):
        got = recovery._erfc_fixed(mp.mpf(x), wp)
        with mp.workprec(2 * wp):
            assert abs(got - mp.ldexp(erfc_oracle(x), wp)) <= 1, x


def clear_recovery_caches():
    for obj in vars(recovery).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()


def test_pairing_calls_no_mpmath_erf(grid_spectra, monkeypatch):
    want = pairing_outcome(ball_volume_from_moments, grid_spectra["su2"], PI / 2, 60, PI)

    def refuse(*args, **kwargs):
        raise AssertionError("mpmath erf or erfc called")

    for owner in (mp, mp.mp):
        for name in ("erf", "erfc"):
            monkeypatch.setattr(owner, name, refuse)
    for name in ("_erf", "_erfc"):
        monkeypatch.setattr(mp.mp, name, refuse)
    clear_recovery_caches()
    assert pairing_outcome(ball_volume_from_moments, grid_spectra["su2"], PI / 2, 60, PI) == want


def test_pairing_same_bits_cold_and_warm(grid_spectra):
    for spec in grid_spectra.values():
        for R in (0.3, PI / 2, 2.9):
            clear_recovery_caches()
            cold = pairing_outcome(ball_volume_from_moments, spec, R, 60, PI)
            assert pairing_outcome(ball_volume_from_moments, spec, R, 60, PI) == cold


@pytest.mark.parametrize("wp", [100, 208, 600])
@pytest.mark.parametrize("side", [1, -1])
def test_erfc_fixed_around_saturation(wp, side):
    # half-bit steps of x^2 log2(e) through the saturation point wp + 8
    for t in np.arange(wp - 24, wp + 24.5, 0.5):
        x = mp.mpf(side * math.sqrt(t / math.log2(math.e)))
        with mp.workprec(2 * wp):
            assert abs(recovery._erfc_fixed(x, wp) - mp.ldexp(mp.erfc(x), wp)) <= 1


# -- empirical ball volume ------------------------------------------------------------


def test_ball_volume_empirical_circle():
    F, se = RadialCdfEstimator(CircleGroup(), 10**6, seed=1, scheme="iid")(PI / 2)
    assert abs(F - 0.5) <= 4 * se
    assert 4e-4 < se < 6e-4


def test_ball_volume_empirical_su2():
    F, se = RadialCdfEstimator(SU2Group(), 10**5, seed=2, scheme="iid")(PI / 2)
    assert abs(F - 0.5) <= 4 * se


def test_ball_volume_full_radius():
    F, _ = RadialCdfEstimator(CircleGroup(), 10**4, seed=3, scheme="iid")(PI)
    assert F == 1.0


def test_radial_cdf_estimator_monotone_and_deterministic():
    cdf1 = RadialCdfEstimator(SU2Group(), 10**5, seed=4, scheme="qmc")
    cdf2 = RadialCdfEstimator(SU2Group(), 10**5, seed=4, scheme="qmc")
    grid = np.linspace(0.1, 3.0, 12)
    v1 = [cdf1(float(r))[0] for r in grid]
    v2 = [cdf2(float(r))[0] for r in grid]
    assert v1 == v2
    assert all(b >= a for a, b in zip(v1, v1[1:]))
    with pytest.raises(ValueError):
        RadialCdfEstimator(SU2Group(), 100, seed=0, scheme="bogus")


@pytest.mark.parametrize("scheme", ["iid", "qmc"])
def test_radial_cdf_threads_bitwise(monkeypatch, scheme):
    # small chunks so a modest run spans several of them
    monkeypatch.setattr(recovery, "QMC_CHUNK", 1 << 12)
    monkeypatch.setattr(recovery, "IID_CHUNK", 1 << 10)
    model = parse_group("product:su2,circle")
    one = RadialCdfEstimator(model, 10_001, seed=7, scheme=scheme, threads=1)
    two = RadialCdfEstimator(model, 10_001, seed=7, scheme=scheme, threads=2)
    assert np.array_equal(one._radii, two._radii)


def test_qmc_beats_iid_on_circle_cdf():
    n = 10**5
    worst_qmc = worst_iid = 0.0
    for seed in range(3):
        q = RadialCdfEstimator(CircleGroup(), n, seed=seed, scheme="qmc")
        i = RadialCdfEstimator(CircleGroup(), n, seed=seed, scheme="iid")
        for R in np.linspace(0.2, 3.0, 8):
            worst_qmc = max(worst_qmc, abs(q(float(R))[0] - circle_F(R)))
            worst_iid = max(worst_iid, abs(i(float(R))[0] - circle_F(R)))
    assert worst_qmc < worst_iid / 5


# -- small-ball fit --------------------------------------------------------------------


def exact_handle(F, n_samples=10**7):
    def handle(R):
        v = F(R)
        return v, math.sqrt(max(v * (1 - v), 1e-12) / n_samples)

    return handle


def test_small_ball_exact_circle():
    fit = small_ball_recovery(exact_handle(circle_F))
    assert fit.dimension == 1
    assert abs(fit.volume - 2 * PI) / (2 * PI) < 1e-6
    assert abs(fit.scalar_curvature) < 1e-6


def test_small_ball_exact_su2():
    fit = small_ball_recovery(exact_handle(su2_F))
    assert fit.dimension == 3
    assert abs(fit.volume - 2 * PI**2) / (2 * PI**2) < 0.01
    assert abs(fit.scalar_curvature - 6.0) < 0.2  # eps^4 truncation bias only


def test_small_ball_empirical_circle():
    cdf = RadialCdfEstimator(CircleGroup(), 10**6, seed=6, scheme="qmc")
    fit = small_ball_recovery(cdf)
    assert fit.dimension == 1
    assert abs(fit.volume - 2 * PI) / (2 * PI) < 0.01
    assert abs(fit.scalar_curvature) < 0.35


def test_small_ball_errors():
    with pytest.raises(AmbiguousDimension):
        small_ball_recovery(exact_handle(lambda R: R**1.5 / 10))
    with pytest.raises(FitFailure):
        small_ball_recovery(exact_handle(lambda R: 0.0))


# -- full pipeline -----------------------------------------------------------------------


def test_recover_circle_small_run():
    rep = recover(CircleGroup(), samples=10**6, seed=3, K=8)
    assert rep.dimension == 1
    assert abs(rep.dimension_raw - 1.0) < 0.2
    assert abs(rep.volume - 2 * PI) / (2 * PI) < 0.02
    assert abs(rep.diameter - PI) / PI < 0.02
    Fs = [f for _, f in rep.ball_volume_table]
    assert all(b >= a - 1e-12 for a, b in zip(Fs, Fs[1:]))
    assert Fs[-1] > 0.97  # F(diameter) within 0.03 of 1
    d = rep.to_json_dict()
    assert set(d) == {"diameter", "dimension", "volume", "scalar_curvature", "F_table", "diagnostics"}
    assert d["dimension"]["rounded"] == 1
    rows = rep.csv_rows()
    assert rows[0] == ["kind", "index", "x", "value"]
    assert any(r[0] == "diameter_raw" for r in rows)


def test_recover_refuses_small_K_before_sampling(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("Monte Carlo spectrum drawn for a K the diameter fit refuses")

    monkeypatch.setattr(recovery, "spectrum_monte_carlo", unreachable)
    with pytest.raises(ValueError, match=r"^diameter estimation needs K >= 4$"):
        recover(SU2Group(), K=3)


def test_recover_product_dimension_additivity():
    rep = recover(parse_group("product:circle,su2"), samples=4 * 10**6, seed=7, K=8)
    assert rep.dimension == 4
    assert abs(rep.dimension_raw - rep.dimension) <= 0.2  # report invariant


def test_iid_radii_read_the_spectrum_stream():
    # the iid CDF and the Monte Carlo spectrum share IID_CHUNK, so they draw
    # the same samples: the mean squared radius is the spectrum's r_2
    radii = recovery._radii(SU2Group(), 200_001, 5, "iid", 1)
    r2 = spectrum_monte_carlo(SU2Group(), 1, 200_001, 5).values[1]
    assert np.mean(radii**2) == pytest.approx(r2, rel=1e-13, abs=0.0)


def test_iid_cdf_and_recover_draw_no_logs(monkeypatch):
    # both read distances only, so neither may pay for the logs' directions
    def refuse(self, rng, size):
        raise AssertionError("a Haar log drawn where distances suffice")

    for cls in (CircleGroup, SU2Group, ProductGroup):
        monkeypatch.setattr(cls, "sample_log_batch", refuse)
    for group in ("circle", "su2", "product:su2,circle"):
        RadialCdfEstimator(parse_group(group), 70_001, seed=2, scheme="iid", threads=2)
    F, se = RadialCdfEstimator(SU2Group(), 10**5, seed=2, scheme="iid")(PI / 2)
    assert abs(F - 0.5) <= 4 * se
    assert recover(SU2Group(), samples=10**6, seed=4, K=8).dimension == 3
