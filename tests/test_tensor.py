import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liesig.tensor import (
    BudgetError,
    TruncatedTensorSeries,
    concat_product,
    exp_tensor,
    expand_words,
    monomial_levels,
    shuffle_levels,
    trace_level,
)

PI = math.pi


def random_series(rng, n, N, scale=1.0):
    levels = tuple(scale * rng.standard_normal(n**k) for k in range(N + 1))
    return TruncatedTensorSeries(n, N, levels)


def flat_index(word, n):
    """Row-major index of a basis word (1-based letters) within its level."""
    flat = 0
    for i in word:
        flat = flat * n + (i - 1)
    return flat


def word_series(word, n, N):
    """Series with coefficient 1 on a single basis word."""
    levels = [np.zeros(n**k) for k in range(N + 1)]
    levels[len(word)][flat_index(word, n)] = 1.0
    return TruncatedTensorSeries(n, N, tuple(levels))


def coeff(word, x):
    return float(x.levels[len(word)][flat_index(word, x.dim)])


def unit(n, N):
    return exp_tensor(np.zeros(n), N)


def allclose(a, b, atol=1e-12, rtol=0.0):
    assert (a.dim, a.depth) == (b.dim, b.depth)
    return all(np.allclose(x, y, atol=atol, rtol=rtol) for x, y in zip(a.levels, b.levels))


def shuffle_product(a, b):
    """Shuffle product of two series up to their shared depth, a level pair at a time."""
    assert (a.dim, a.depth) == (b.dim, b.depth)
    n, N = a.dim, a.depth
    out = [np.zeros(n**k) for k in range(N + 1)]
    for i, ai in enumerate(a.levels):
        for j in range(N + 1 - i):
            out[i + j] += shuffle_levels(ai, i, b.levels[j], j, n)
    return TruncatedTensorSeries(n, N, tuple(out))


# -- construction and invariants ---------------------------------------------


def _colex(n, k):
    # sorted index tuples by last letter, then by the rest in the same order
    return sorted(itertools.combinations_with_replacement(range(n), k), key=lambda m: m[::-1])


@pytest.mark.parametrize("n,N", [(1, 5), (2, 6), (3, 5), (5, 3)])
def test_monomial_levels_against_enumeration(n, N):
    levels = monomial_levels(n, N)
    for k, lvl in enumerate(levels):
        monos = _colex(n, k)
        assert len(lvl.parent) == len(lvl.last) == len(monos) == math.comb(n + k - 1, k)
        rank = {m: i for i, m in enumerate(monos)}
        if k:
            parents = _colex(n, k - 1)
            assert [parents[p] + (j,) for p, j in zip(lvl.parent, lvl.last)] == monos
            assert lvl.table.tolist() == [
                [rank[tuple(sorted(q + (j,)))] for j in range(n)] for q in parents
            ]
        words = itertools.product(range(n), repeat=k)
        expanded = expand_words(levels, k, np.arange(len(monos)))
        assert expanded.tolist() == [rank[tuple(sorted(w))] for w in words]


@pytest.mark.parametrize("n,N", [(1, 8), (2, 10), (3, 9), (4, 7), (7, 4)])
def test_monomial_multiplicity_counts_words(n, N):
    levels = monomial_levels(n, N)
    for k, lvl in enumerate(levels):
        words = expand_words(levels, k, np.arange(len(lvl.last)))
        assert lvl.multiplicity.dtype == np.float64
        assert lvl.multiplicity.tolist() == np.bincount(words, minlength=len(lvl.last)).tolist()
        assert lvl.multiplicity.sum() == n**k


def test_storage_shape_invariants():
    s = random_series(np.random.default_rng(0), 2, 4)
    assert len(s.levels) == 5
    assert [lv.size for lv in s.levels] == [1, 2, 4, 8, 16]
    with pytest.raises(ValueError):
        TruncatedTensorSeries(2, 2, (np.ones(1), np.ones(2), np.ones(3)))
    with pytest.raises(ValueError):
        TruncatedTensorSeries(2, 1, (np.ones(1), np.array([1.0, np.nan])))


def test_budget_guard():
    with pytest.raises(BudgetError):
        exp_tensor(np.zeros(3), 30)
    with pytest.raises(BudgetError):
        exp_tensor(np.ones(4), 20)


def test_levels_are_immutable():
    s = unit(2, 2)
    with pytest.raises(ValueError):
        s.levels[0][0] = 2.0


# -- concat (Chen) product ----------------------------------------------------


def test_concat_identity_law():
    rng = np.random.default_rng(1)
    x = random_series(rng, 2, 3)
    assert allclose(concat_product(unit(2, 3), x), x)
    assert allclose(concat_product(x, unit(2, 3)), x)


def test_concat_inverse_of_exponentials():
    v = np.array([0.3, -1.2, 0.7])
    prod = concat_product(exp_tensor(v, 5), exp_tensor(-v, 5))
    assert allclose(prod, unit(3, 5), atol=1e-12)


def test_concat_level2_expansion():
    e1 = exp_tensor(np.array([1.0, 0.0]), 2)
    e2 = exp_tensor(np.array([0.0, 1.0]), 2)
    out = concat_product(e1, e2)
    assert np.allclose(out.levels[1], [1.0, 1.0])
    # 1/2 e1e1 + e1e2 + 0 e2e1 + 1/2 e2e2
    assert np.allclose(out.levels[2], [0.5, 1.0, 0.0, 0.5])


def test_concat_mismatch_errors():
    with pytest.raises(ValueError):
        concat_product(unit(2, 3), unit(3, 3))
    with pytest.raises(ValueError):
        concat_product(unit(2, 3), unit(2, 4))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_concat_associativity(n, N, seed):
    rng = np.random.default_rng(seed)
    a, b, c = (random_series(rng, n, N) for _ in range(3))
    lhs = concat_product(concat_product(a, b), c)
    rhs = concat_product(a, concat_product(b, c))
    assert allclose(lhs, rhs, atol=1e-12)


def test_collinear_exponential_law():
    rng = np.random.default_rng(2)
    v = rng.standard_normal(3)
    for s, t in [(0.5, 0.25), (1.0, 1.0), (-0.7, 1.3)]:
        lhs = concat_product(exp_tensor(s * v, 6), exp_tensor(t * v, 6))
        assert allclose(lhs, exp_tensor((s + t) * v, 6), atol=1e-12)


# -- shuffle product -----------------------------------------------------------


def test_shuffle_single_letters():
    w1 = word_series((1,), 2, 2)
    w2 = word_series((2,), 2, 2)
    out = shuffle_product(w1, w2)
    assert coeff((1, 2), out) == 1.0
    assert coeff((2, 1), out) == 1.0
    assert coeff((1, 1), out) == 0.0


def test_shuffle_unit_is_identity():
    rng = np.random.default_rng(3)
    x = random_series(rng, 2, 3)
    assert allclose(shuffle_product(unit(2, 3), x), x)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 2), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_shuffle_commutative_associative(n, N, seed):
    rng = np.random.default_rng(seed)
    a, b, c = (random_series(rng, n, N) for _ in range(3))
    assert allclose(shuffle_product(a, b), shuffle_product(b, a), atol=1e-12)
    lhs = shuffle_product(shuffle_product(a, b), c)
    rhs = shuffle_product(a, shuffle_product(b, c))
    assert allclose(lhs, rhs, atol=1e-10)


def test_grouplike_shuffle_law():
    rng = np.random.default_rng(4)
    n, N = 3, 6
    v = rng.standard_normal(n)
    g = exp_tensor(v, N)
    for _ in range(8):
        k1 = rng.integers(0, 3)
        k2 = rng.integers(0, N - k1 + 1)
        w1 = tuple(rng.integers(1, n + 1) for _ in range(k1))
        w2 = tuple(rng.integers(1, n + 1) for _ in range(k2))
        sh = shuffle_product(word_series(w1, n, N), word_series(w2, n, N))
        lhs = coeff(w1, g) * coeff(w2, g)
        rhs = sum(
            c * g.levels[k][i]
            for k, lv in enumerate(sh.levels)
            for i, c in enumerate(lv)
            if c != 0.0
        )
        assert abs(lhs - rhs) < 1e-10


def test_shuffle_identity_on_exponential():
    # <e1, exp(v)> <e2, exp(v)> = <e1 sh e2, exp(v)> = v1 v2
    v = np.array([0.8, -0.6])
    g = exp_tensor(v, 4)
    sh = shuffle_product(word_series((1,), 2, 4), word_series((2,), 2, 4))
    val = coeff((1, 2), sh) * coeff((1, 2), g) + coeff((2, 1), sh) * coeff((2, 1), g)
    assert abs(val - v[0] * v[1]) < 1e-12
    assert abs(coeff((1,), g) * coeff((2,), g) - v[0] * v[1]) < 1e-12


# -- exponential ---------------------------------------------------------------


def test_unit_series_identity_values():
    # the unit series exp(0): 1 at level 0, zero elsewhere
    assert [lv.tolist() for lv in unit(1, 3).levels] == [[1.0], [0.0], [0.0], [0.0]]
    u0 = unit(3, 0)
    assert u0.levels[0].tolist() == [1.0] and u0.depth == 0


def test_exp_tensor_zero_vector():
    assert all(lv.tolist() == [float(k == 0)] * 3**k for k, lv in enumerate(unit(3, 4).levels))


def test_exp_tensor_circle_levels():
    s = exp_tensor(np.array([PI]), 4)
    expect = [1.0, PI, PI**2 / 2, PI**3 / 6, PI**4 / 24]
    got = [lv[0] for lv in s.levels]
    assert np.allclose(got, expect, rtol=1e-15)


def test_exp_tensor_rejects_nonfinite():
    with pytest.raises(ValueError):
        exp_tensor(np.array([np.inf, 0.0]), 3)


# -- Hilbert norm --------------------------------------------------------------


def test_hilbert_norm_exponential_bound():
    rng = np.random.default_rng(6)
    for _ in range(20):
        v = rng.standard_normal(3) * rng.uniform(0, 2)
        N = int(rng.integers(0, 9))
        norm = math.sqrt(sum(float(lv @ lv) for lv in exp_tensor(v, N).levels))
        assert norm <= math.exp(np.linalg.norm(v)) + 1e-12


# -- trace ---------------------------------------------------------------------


def test_trace_level_orthonormality():
    x = word_series((1, 1), 2, 2)
    y = word_series((1, 2), 2, 2)
    assert trace_level(x, 2) == 1.0
    assert trace_level(y, 2) == 0.0


def test_trace_rank_one_product():
    # trace(u x v x u x v) = <u, v>^2
    rng = np.random.default_rng(7)
    u = rng.standard_normal(3)
    v = rng.standard_normal(3)
    uv = np.multiply.outer(u, v).ravel()
    lvl = np.multiply.outer(uv, uv).ravel()
    s = TruncatedTensorSeries(3, 4, (np.zeros(1), np.zeros(3), np.zeros(9), np.zeros(27), lvl))
    assert abs(trace_level(s, 4) - (u @ v) ** 2) < 1e-12


def test_trace_exp_values_and_odd():
    v = np.array([3.0, 4.0])
    e = exp_tensor(v, 4)
    assert abs(trace_level(e, 2) - 12.5) < 1e-12
    assert trace_level(e, 3) == 0.0
    assert trace_level(e, 0) == 1.0
    with pytest.raises(ValueError):
        trace_level(e, 5)


def test_trace_moment_identity():
    rng = np.random.default_rng(8)
    v = rng.standard_normal(3) * 1.3
    e = exp_tensor(v, 8)
    r2 = float(v @ v)
    for k in range(1, 5):
        lhs = trace_level(e, 2 * k) * math.factorial(2 * k)
        assert abs(lhs - r2**k) < 1e-10 * max(1.0, r2**k)


def _trace_with_pairing(level, n, k, pairing):
    """Independent contraction oracle: sum over all slot values with the
    prescribed slot pairing equal."""
    letters = "abcdefghijklm"
    sub = [""] * k
    for idx, (i, j) in enumerate(pairing):
        sub[i] = letters[idx]
        sub[j] = letters[idx]
    return float(np.einsum("".join(sub) + "->", level.reshape((n,) * k)))


def test_pairing_invariance_on_symmetric_tensors():
    rng = np.random.default_rng(9)
    v = rng.standard_normal(3)
    k = 3
    e = exp_tensor(v, 2 * k)
    canonical = trace_level(e, 2 * k)
    slots = list(range(2 * k))
    for _ in range(3):
        perm = rng.permutation(slots)
        pairing = [(int(perm[2 * i]), int(perm[2 * i + 1])) for i in range(k)]
        alt = _trace_with_pairing(e.levels[2 * k], 3, 2 * k, pairing)
        assert abs(alt - canonical) < 1e-12 * max(1.0, abs(canonical))


def test_trace_basis_independence():
    rng = np.random.default_rng(10)
    v = rng.standard_normal(3)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    for k in (1, 2, 3):
        t1 = trace_level(exp_tensor(v, 2 * k), 2 * k)
        t2 = trace_level(exp_tensor(q @ v, 2 * k), 2 * k)
        assert abs(t1 - t2) < 1e-10 * max(1.0, abs(t1))


# -- shuffle_levels direct -----------------------------------------------------


def test_shuffle_levels_counts_interleavings():
    # x = e1 x e1, y = e1: shuffle has C(3,1)=3 copies of e1 x e1 x e1
    x = np.zeros(4)
    x[0] = 1.0
    y = np.array([1.0, 0.0])
    out = shuffle_levels(x, 2, y, 1, 2)
    assert out[0] == 3.0
    assert np.sum(out != 0) == 1
    with pytest.raises(ValueError):
        shuffle_levels(x, 1, y, 1, 2)


def test_shuffle_dim_one_counts_multiplicity():
    # n=1: every level is one coefficient; theta^p/p! sh theta^q/q! must
    # carry the C(p+q, p) interleaving count so the grouplike law holds
    theta = 1.7
    g = exp_tensor(np.array([theta]), 6)
    w2 = word_series((1, 1), 1, 6)
    w3 = word_series((1, 1, 1), 1, 6)
    sh = shuffle_product(w2, w3)
    assert sh.levels[5][0] == math.comb(5, 2)
    assert abs(coeff((1, 1), g) * coeff((1, 1, 1), g) - sh.levels[5][0] * g.levels[5][0]) < 1e-14
