import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from liesig.average import (
    AverageSignatureResult,
    average_closed_form,
    average_monte_carlo,
    average_quadrature,
    mc_chunk_size,
    product_average_shuffle,
)
from liesig.groups import (
    CircleGroup,
    SU2Group,
    _double_factorial,
    map_chunks,
    mean_stderr,
    parse_group,
    sphere_moment_level,
    stream,
    su2_radial_moments,
)
from liesig.tensor import TruncatedTensorSeries, shuffle_levels, trace_level

PI = math.pi


# -- closed form ---------------------------------------------------------------


def test_circle_closed_form_values():
    avg = average_closed_form(CircleGroup(), 8)
    assert avg.method == "closed_form"
    assert avg.tensor.levels[0][0] == 1.0
    assert abs(avg.tensor.levels[2][0] - PI**2 / 6) < 1e-15
    assert avg.tensor.levels[3][0] == 0.0
    assert abs(avg.tensor.levels[8][0] - PI**8 / math.factorial(9)) < 1e-15


@pytest.mark.parametrize("depth", [169, 170, 172, 250, 700])
def test_circle_closed_form_past_float_factorials(depth):
    # (k+1)! leaves the float range at k = 170 and pi^k at k = 621; the
    # levels are still normal floats there, and 0.0 once they underflow
    levels = average_closed_form(CircleGroup(), depth).tensor.levels
    with mp.workdps(40):
        for k in range(0, depth + 1, 2):
            got = levels[k][0]
            if k <= 169:  # the float formula, bit for bit
                assert got == PI**k / math.factorial(k + 1)
            exact = mp.pi**k / mp.factorial(k + 1)
            assert abs(got - exact) <= mp.mpf("1e-13") * exact + mp.mpf(2) ** -1074
    if depth >= 170:
        assert levels[170][0] > 1e-230
    if depth == 700:
        assert levels[700][0] == 0.0


@pytest.mark.parametrize("depth", [170, 172, 250])
def test_circle_quadrature_past_float_factorials(depth):
    q = average_quadrature(CircleGroup(), depth).tensor.levels
    cf = average_closed_form(CircleGroup(), depth).tensor.levels
    # 64 nodes integrate theta^k exactly only to k = 127; beyond that the
    # levels keep the closed form's magnitude, down to where both underflow
    for k in range(128, depth + 1, 2):
        if cf[k][0] > 1e-300:
            assert abs(math.log(q[k][0] / cf[k][0])) < 1.0
        else:
            assert 0.0 <= q[k][0] < 1e-290


def test_closed_form_rejects_su2():
    with pytest.raises(ValueError):
        average_closed_form(SU2Group(), 4)
    with pytest.raises(ValueError):
        average_closed_form(parse_group("product:circle,su2"), 4)


def test_torus_closed_form_level2():
    avg = average_closed_form(parse_group("torus:2"), 4)
    lvl2 = avg.tensor.levels[2].reshape(2, 2)
    assert abs(lvl2[0, 0] - PI**2 / 6) < 1e-14
    assert abs(lvl2[1, 1] - PI**2 / 6) < 1e-14
    assert lvl2[0, 1] == 0.0 and lvl2[1, 0] == 0.0


# -- quadrature ------------------------------------------------------------------


def test_circle_quadrature_matches_closed_form():
    cf = average_closed_form(CircleGroup(), 10)
    q = average_quadrature(CircleGroup(), 10)
    assert all(np.allclose(a, b, atol=1e-12, rtol=0.0) for a, b in zip(q.tensor.levels, cf.tensor.levels))
    assert abs(q.tensor.levels[4][0] - PI**4 / 120) < 1e-12


def test_su2_quadrature_trace_and_odd_levels():
    q = average_quadrature(SU2Group(), 6)
    r2 = 2.0 * trace_level(q.tensor, 2)
    assert abs(r2 - (PI**2 / 3 - 0.5)) < 1e-12
    for k in (1, 3, 5):
        assert not np.any(q.tensor.levels[k])
    assert q.tensor.levels[0][0] == 1.0


def test_quadrature_rejects_products():
    with pytest.raises(ValueError):
        average_quadrature(parse_group("torus:2"), 4)


def test_su2_radial_moments_against_adaptive():
    from scipy.integrate import quad

    m = su2_radial_moments(6, nodes=64)
    for k in range(7):
        oracle, _ = quad(lambda r: r**k * (2 / PI) * math.sin(r) ** 2, 0, PI, epsabs=1e-13)
        assert abs(m[k] - oracle) < 1e-12


@pytest.mark.parametrize("nodes", [24, 64])
def test_su2_radial_moments_independent_of_max_k(nodes):
    # m_k is a function of k and nodes alone, bit for bit
    assert np.array_equal(su2_radial_moments(5, nodes), su2_radial_moments(12, nodes)[:6])


def test_sphere_moment_level_against_mc():
    # second and fourth moments of the uniform direction on S^2
    m2 = sphere_moment_level(2).reshape(3, 3)
    assert np.allclose(m2, np.eye(3) / 3.0)
    m4 = sphere_moment_level(4).reshape(3, 3, 3, 3)
    assert abs(m4[0, 0, 0, 0] - 1 / 5) < 1e-15  # E v1^4 = 1/5
    assert abs(m4[0, 0, 1, 1] - 1 / 15) < 1e-15  # E v1^2 v2^2 = 1/15
    assert m4[0, 0, 0, 1] == 0.0
    rng = stream(77)
    z = 1 - 2 * rng.random(200000)
    phi = 2 * PI * rng.random(200000)
    s = np.sqrt(1 - z * z)
    dirs = np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)
    emp4 = np.einsum("bi,bj,bk,bl->ijkl", dirs, dirs, dirs, dirs) / len(dirs)
    assert np.abs(emp4 - m4).max() < 0.01
    assert not np.any(sphere_moment_level(3))


def _sphere_moment_level_by_digits(k):
    # reference only: the per-word digit loop sphere_moment_level replaced
    if k % 2 == 1:
        return np.zeros(3**k)
    norm = _double_factorial(k + 1)
    table = np.zeros((k + 1, k + 1))
    for a in range(0, k + 1, 2):
        for b in range(0, k + 1 - a, 2):
            c = k - a - b
            if c % 2 == 0:
                table[a, b] = (
                    _double_factorial(a - 1) * _double_factorial(b - 1) * _double_factorial(c - 1) / norm
                )
    idx = np.arange(3**k)
    a = np.zeros(3**k, dtype=np.int64)
    b = np.zeros(3**k, dtype=np.int64)
    for _ in range(k):
        d = idx % 3
        a += d == 0
        b += d == 1
        idx //= 3
    return table[a, b]


def test_sphere_moment_level_matches_digit_loop():
    for k in range(11):
        ref = _sphere_moment_level_by_digits(k)
        assert sphere_moment_level(k).tobytes() == ref.tobytes()


# -- Monte Carlo -----------------------------------------------------------------


def test_mc_level0_exact_and_provenance():
    avg = average_monte_carlo(CircleGroup(), 4, 10**4, seed=5)
    assert avg.tensor.levels[0][0] == 1.0
    assert avg.method == "monte_carlo"
    assert avg.samples == 10**4 and avg.seed == 5
    assert avg.stderr_per_level is not None and avg.stderr_per_level[0] == 0.0


def test_mc_matches_quadrature_within_4se():
    for model, depth in ((CircleGroup(), 6), (SU2Group(), 4)):
        q = average_quadrature(model, depth)
        mc = average_monte_carlo(model, depth, 2 * 10**5, seed=31)
        for k in range(depth + 1):
            diff = np.abs(mc.tensor.levels[k] - q.tensor.levels[k])
            assert np.all(diff <= 4.0 * mc.stderr_coeffs[k] + 1e-14)


def test_mc_circle_level2_statistics():
    mc = average_monte_carlo(CircleGroup(), 2, 10**6, seed=42)
    se = mc.stderr_coeffs[2][0]
    assert abs(mc.tensor.levels[2][0] - PI**2 / 6) <= 4.0 * se


def test_mc_thread_counts_agree_bitwise():
    model = parse_group("torus:2")
    a = average_monte_carlo(model, 5, 3 * 10**4 + 17, seed=9, threads=1)
    b = average_monte_carlo(model, 5, 3 * 10**4 + 17, seed=9, threads=4)
    for la, lb in zip(a.tensor.levels, b.tensor.levels):
        assert np.array_equal(la, lb)
    assert np.array_equal(a.stderr_per_level, b.stderr_per_level)


def _dense_monte_carlo(model, N, samples, seed):
    """Reference only: the per-word accumulator average_monte_carlo replaced.

    Same streams and chunks; every one of the n^k words of level k is
    accumulated on its own.
    """
    n = model.dim

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
    for sums, sqs in map_chunks(chunk_sums, samples, mc_chunk_size(n, N), 1):
        for k in range(N + 1):
            tot[k] += sums[k]
            tsq[k] += sqs[k]
    return [mean_stderr(t, q, samples) for t, q in zip(tot, tsq)]


def _assert_symmetric(level, n, k):
    # words that are permutations of one another carry the same bits
    words = np.sort(np.indices((n,) * k).reshape(k, -1).T, axis=1)
    _, first, inverse = np.unique(words, axis=0, return_index=True, return_inverse=True)
    assert level.tobytes() == level[first[inverse.ravel()]].tobytes()


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["circle", "su2", "torus:2", "product:circle,su2"]),
    st.integers(0, 6),
    st.integers(1, 5000),
    st.integers(0, 2**32 - 1),
)
# the strategies favour small draws; pin the largest sizes in too
@example("product:circle,su2", 6, 5000, 7)
@example("su2", 6, 4999, 11)
@example("torus:2", 6, 5000, 3)
def test_mc_matches_dense_oracle(group, N, samples, seed):
    model = parse_group(group)
    got = average_monte_carlo(model, N, samples, seed)
    for k, (mean, se) in enumerate(_dense_monte_carlo(model, N, samples, seed)):
        for new, ref in ((got.tensor.levels[k], mean), (got.stderr_coeffs[k], se)):
            assert np.all(np.abs(new - ref) <= 1e-12 * np.abs(ref).max())
            if k:
                _assert_symmetric(new, model.dim, k)


def test_mc_chunk_size_rule():
    assert mc_chunk_size(1, 4) == 1 << 16
    assert 256 <= mc_chunk_size(3, 8) <= 1 << 16
    # depends only on (dim, depth)
    assert mc_chunk_size(3, 8) == mc_chunk_size(3, 8)


def test_mc_rejects_bad_samples():
    with pytest.raises(ValueError):
        average_monte_carlo(CircleGroup(), 2, 0, seed=0)


# -- product rule -----------------------------------------------------------------


def test_product_shuffle_level0_and_2():
    cf = average_closed_form(CircleGroup(), 6)
    prod = product_average_shuffle(cf, cf, 6)
    assert prod.tensor.levels[0][0] == 1.0
    lvl2 = prod.tensor.levels[2].reshape(2, 2)
    assert np.allclose(lvl2, np.diag([PI**2 / 6, PI**2 / 6]))
    assert prod.method == "product_shuffle"


def test_product_shuffle_rtr2_corollary():
    cf = average_closed_form(CircleGroup(), 4)
    prod = product_average_shuffle(cf, cf, 4)
    rtr2 = 2.0 * trace_level(prod.tensor, 2)
    assert abs(rtr2 - 2.0 * PI**2 / 3.0) < 1e-14


def test_product_shuffle_matches_direct_torus_mc():
    cf = average_closed_form(CircleGroup(), 6)
    prod = product_average_shuffle(cf, cf, 6)
    mc = average_monte_carlo(parse_group("torus:2"), 6, 10**5, seed=13)
    for k in range(7):
        diff = np.abs(prod.tensor.levels[k] - mc.tensor.levels[k])
        assert np.all(diff <= 4.0 * mc.stderr_coeffs[k] + 1e-14)


def test_product_shuffle_mixed_group():
    # circle x su2 against direct MC on the product model
    cfc = average_closed_form(CircleGroup(), 4)
    qs = average_quadrature(SU2Group(), 4)
    prod = product_average_shuffle(cfc, qs, 4)
    assert prod.tensor.dim == 4
    mc = average_monte_carlo(parse_group("product:circle,su2"), 4, 10**5, seed=21)
    for k in range(5):
        diff = np.abs(prod.tensor.levels[k] - mc.tensor.levels[k])
        assert np.all(diff <= 4.0 * mc.stderr_coeffs[k] + 1e-14)


def _embed_level(level, k, n_from, n_to, offset):
    # reference only: re-index a level over R^n_from as a level over R^n_to,
    # the source basis at coordinates offset..offset+n_from-1
    if k == 0:
        return level.copy()
    pad = (offset, n_to - n_from - offset)
    return np.pad(level.reshape((n_from,) * k), [pad] * k).ravel()


def _padded_product_levels(a, b, N):
    """The product rule on factors padded to R^(n1+n2), through shuffle_levels."""
    n1, n2 = a.tensor.dim, b.tensor.dim
    n = n1 + n2
    emb_a = [_embed_level(a.tensor.levels[k], k, n1, n, 0) for k in range(N + 1)]
    emb_b = [_embed_level(b.tensor.levels[k], k, n2, n, n1) for k in range(N + 1)]
    out = [np.zeros(n**lvl) for lvl in range(N + 1)]
    for lvl in range(N + 1):
        for k in range(lvl + 1):
            if not (np.any(emb_a[k]) and np.any(emb_b[lvl - k])):
                continue
            weight = math.factorial(k) * math.factorial(lvl - k) / math.factorial(lvl)
            out[lvl] += weight * shuffle_levels(emb_a[k], k, emb_b[lvl - k], lvl - k, n)
    return out


def _assert_bitwise(levels, reference):
    assert len(levels) == len(reference)
    for lv, ref in zip(levels, reference):
        assert np.array_equal(lv, ref)
        assert np.array_equal(np.signbit(lv), np.signbit(ref))  # -0.0 too


def _as_result(levels, n):
    return AverageSignatureResult(
        TruncatedTensorSeries(n, len(levels) - 1, tuple(levels)), "reference"
    )


def test_product_shuffle_matches_padded_oracle_su2_circle():
    q = average_quadrature(SU2Group(), 10)
    c = average_closed_form(CircleGroup(), 10)
    for a, b in ((q, c), (c, q)):
        _assert_bitwise(product_average_shuffle(a, b, 10).tensor.levels,
                        _padded_product_levels(a, b, 10))


def test_product_shuffle_matches_padded_oracle_mc_and_circles():
    mc = average_monte_carlo(SU2Group(), 5, 4000, seed=17)
    assert np.any(mc.tensor.levels[3])  # odd levels of a Monte Carlo factor are nonzero
    q = average_quadrature(SU2Group(), 5)
    for a, b in ((mc, q), (q, mc), (mc, mc)):
        _assert_bitwise(product_average_shuffle(a, b, 5).tensor.levels,
                        _padded_product_levels(a, b, 5))
    c = average_closed_form(CircleGroup(), 9)
    _assert_bitwise(product_average_shuffle(c, c, 9).tensor.levels,
                    _padded_product_levels(c, c, 9))


def test_product_shuffle_matches_padded_oracle_three_factors():
    c = average_closed_form(CircleGroup(), 6)
    q = average_quadrature(SU2Group(), 6)
    mc = average_monte_carlo(CircleGroup(), 6, 3000, seed=4)
    new = product_average_shuffle(product_average_shuffle(c, q, 6), mc, 6)
    ref = _padded_product_levels(_as_result(_padded_product_levels(c, q, 6), 4), mc, 6)
    assert new.tensor.dim == 5
    _assert_bitwise(new.tensor.levels, ref)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_product_shuffle_matches_padded_oracle_random_levels(n1, n2, N, seed):
    # signed, zero and sparse coefficients, so signed zeros are exercised too
    rng = np.random.default_rng(seed)

    def factor(n):
        levels = [rng.normal(size=n**k) * (rng.random(n**k) < 0.7) for k in range(N + 1)]
        if N >= 1 and rng.random() < 0.3:
            levels[1][:] = 0.0
        return _as_result(levels, n)

    a, b = factor(n1), factor(n2)
    _assert_bitwise(product_average_shuffle(a, b, N).tensor.levels,
                    _padded_product_levels(a, b, N))


def test_product_shuffle_depth_check():
    cf4 = average_closed_form(CircleGroup(), 4)
    with pytest.raises(ValueError):
        product_average_shuffle(cf4, cf4, 6)


# -- even-degree law across methods ----------------------------------------------


def test_odd_levels_mc_small():
    avg = average_monte_carlo(SU2Group(), 3, 10**5, seed=3)
    for k in (1, 3):
        norm = float(np.linalg.norm(avg.tensor.levels[k]))
        assert norm <= 4.0 * float(avg.stderr_per_level[k])


def test_json_payload():
    mc = average_monte_carlo(CircleGroup(), 3, 1000, seed=1)
    d = mc.to_json_dict()
    assert d["method"] == "monte_carlo" and d["samples"] == 1000 and d["seed"] == 1
    assert len(d["stderr"]) == 4 and len(d["levels"]) == 4
