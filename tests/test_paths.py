import math

import numpy as np
import pytest

import liesig.paths as paths
from liesig.groups import CircleGroup, CutLocusError, SU2Group, parse_group
from liesig.paths import (
    MeshError,
    SampledPath,
    chord_increments,
    path_signature_numeric,
    sample_curve,
)
from liesig.tensor import concat_product, exp_tensor, hilbert_distance

PI = math.pi


def su2_curve(a=0.4, b=0.3):
    model = SU2Group()

    def curve(t):
        return model.exp(np.array([a * math.sin(PI * t), b * t, 0.0]))

    return model, curve


def per_chord_increments(path):
    # one group composition per chord: the reference for the batched chord_increments
    model = path.model
    pairs = zip(path.points[:-1], path.points[1:])
    return np.array([model.log(model.multiply(model.inverse(a), b)) for a, b in pairs])


def fold_oracle(path, N):
    # chord signatures multiplied in one at a time, left to right
    sig = exp_tensor(np.zeros(path.model.dim), N)
    for u in per_chord_increments(path):
        sig = concat_product(sig, exp_tensor(u, N))
    return sig


def oracle_curve(group):
    model = parse_group(group)
    su2 = SU2Group()

    def su2_point(t):
        return su2.exp(np.array([0.9 * math.sin(PI * t), 0.6 * t, -0.5 * t * t]))

    def circle_point(t):
        return 2.5 * math.sin(1.5 * PI * t)

    if group == "su2":
        return model, su2_point
    if group == "circle":
        return model, circle_point
    return model, lambda t: (su2_point(t), circle_point(t))


def max_abs_diff(a, b):
    return max(float(np.max(np.abs(x - y))) for x, y in zip(a.levels, b.levels))


@pytest.mark.parametrize("chords", [1, 2, 3, 64, 2047])
@pytest.mark.parametrize("group", ["su2", "circle", "product:su2,circle"])
def test_batched_increments_match_per_chord_composition(group, chords):
    model, curve = oracle_curve(group)
    path = sample_curve(model, curve, chords)
    u, ref = chord_increments(path), per_chord_increments(path)
    assert u.shape == (chords, model.dim)
    # measured: bitwise equal on every case here; the bound allows 2 ulp per entry
    assert np.all(np.abs(u - ref) <= 2 * np.spacing(np.abs(ref)))


def path_with_one_cut_chord(group, chords, j):
    # chord j ends at the antipode of its start; every other chord is short
    model, curve = oracle_curve(group)
    times = np.linspace(0.0, 1.0, chords + 1)
    pts = [curve(float(t)) for t in times[:chords]]

    def flip(p):
        if group == "su2":
            return -p
        if group == "circle":
            return model.multiply(p, PI)
        return (-p[0], p[1])  # the su2 factor crosses

    pts = pts[: j + 1] + [flip(p) for p in pts[j:]]
    return SampledPath(model, times, tuple(pts))


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("group", ["su2", "circle", "product:su2,circle"])
def test_one_cut_chord_raises_mesh_error(group, where):
    chords = 64
    j = {"first": 0, "middle": chords // 2, "last": chords - 1}[where]
    path = path_with_one_cut_chord(group, chords, j)
    per_chord = []
    for i, (a, b) in enumerate(zip(path.points[:-1], path.points[1:])):
        try:
            path.model.log(path.model.multiply(path.model.inverse(a), b))
        except CutLocusError:
            per_chord.append(i)
    assert per_chord == [j]  # exactly one chord crosses
    with pytest.raises(MeshError):
        chord_increments(path)
    with pytest.raises(MeshError):
        path_signature_numeric(path, 3)


@pytest.mark.parametrize("chords", [1, 2, 3, 5, 64, 2047])
@pytest.mark.parametrize("group", ["su2", "circle", "product:su2,circle"])
def test_numeric_matches_left_fold_oracle(group, chords):
    model, curve = oracle_curve(group)
    path = sample_curve(model, curve, chords)
    assert max_abs_diff(path_signature_numeric(path, 5), fold_oracle(path, 5)) <= 1e-13


def test_one_chord_is_exp_tensor_bitwise():
    model = SU2Group()
    path = SampledPath(model, np.array([0.0, 1.0]), (model.exp(np.zeros(3)), model.exp([0.7, -0.2, 0.4])))
    (u,) = chord_increments(path)
    sig, ref = path_signature_numeric(path, 6), exp_tensor(u, 6)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(sig.levels, ref.levels))


def test_blocks_fold_to_the_unblocked_reduction(monkeypatch):
    model, curve = oracle_curve("su2")
    path = sample_curve(model, curve, 100)
    whole = path_signature_numeric(path, 5)
    calls = []

    def counted(a, b):
        calls.append(1)
        return concat_product(a, b)

    # seven chords' worth of levels 1..5 per block: 15 blocks, 14 folds
    monkeypatch.setattr(paths, "_BLOCK_COEFFS", 7 * sum(3**k for k in range(1, 6)))
    monkeypatch.setattr(paths, "concat_product", counted)
    blocked = path_signature_numeric(path, 5)
    assert len(calls) == 14
    assert max_abs_diff(blocked, whole) <= 1e-13
    assert max_abs_diff(blocked, fold_oracle(path, 5)) <= 1e-13


def test_sampled_path_validation():
    model = CircleGroup()
    with pytest.raises(ValueError):
        SampledPath(model, np.array([0.0, 0.5, 0.5, 1.0]), (0.0, 0.1, 0.2, 0.3))
    with pytest.raises(ValueError):
        SampledPath(model, np.array([0.1, 1.0]), (0.0, 0.5))
    with pytest.raises(ValueError):
        SampledPath(model, np.array([0.0, 1.0]), (0.0, 0.5, 0.7))


def test_geodesic_signature_circle():
    model = CircleGroup()
    sig = exp_tensor(model.log(1.3), 5)
    for k in range(6):
        assert abs(sig.levels[k][0] - 1.3**k / math.factorial(k)) < 1e-14


def test_geodesic_signature_su2_matches_exp_tensor():
    model = SU2Group()
    v = np.array([0.7, -0.4, 0.2])
    sig = exp_tensor(model.log(model.exp(v)), 4)
    assert max_abs_diff(sig, exp_tensor(v, 4)) <= 1e-12


def test_geodesic_signature_identity():
    model = SU2Group()
    unit = exp_tensor(np.zeros(3), 3)
    assert max_abs_diff(exp_tensor(model.log(model.exp(np.zeros(3))), 3), unit) <= 1e-12


def test_numeric_matches_geodesic_shortcut():
    model = SU2Group()
    v = np.array([0.9, 0.5, -0.3])
    path = sample_curve(model, lambda t: model.exp(t * v), 1000)
    num = path_signature_numeric(path, 6)
    assert hilbert_distance(num, exp_tensor(model.log(model.exp(v)), 6)) < 1e-6


def test_chen_split_concatenation():
    model, curve = su2_curve()
    m = 512
    whole = sample_curve(model, curve, m)
    first = SampledPath(model, np.linspace(0, 1, m // 2 + 1), whole.points[: m // 2 + 1])
    second = SampledPath(model, np.linspace(0, 1, m // 2 + 1), whole.points[m // 2 :])
    lhs = concat_product(path_signature_numeric(first, 5), path_signature_numeric(second, 5))
    assert hilbert_distance(lhs, path_signature_numeric(whole, 5)) < 1e-10


def test_reparametrization_invariance():
    model, curve = su2_curve()
    m = 2048
    s = np.linspace(0.0, 1.0, m + 1)
    uniform = sample_curve(model, curve, m)
    squared = SampledPath(model, s, tuple(curve(float(t**2)) for t in s))
    d = hilbert_distance(path_signature_numeric(uniform, 5), path_signature_numeric(squared, 5))
    assert d < 1e-6


def test_left_invariance():
    model, curve = su2_curve()
    path = sample_curve(model, curve, 256)
    h = model.exp(np.array([1.1, -0.2, 0.4]))
    shifted = SampledPath(model, path.times, tuple(model.multiply(h, p) for p in path.points))
    d = hilbert_distance(path_signature_numeric(path, 5), path_signature_numeric(shifted, 5))
    assert d < 1e-6


def test_reversal_cancels():
    model, curve = su2_curve()
    path = sample_curve(model, curve, 256)
    rev = SampledPath(model, path.times, tuple(reversed(path.points)))
    prod = concat_product(path_signature_numeric(path, 5), path_signature_numeric(rev, 5))
    assert hilbert_distance(prod, exp_tensor(np.zeros(3), 5)) < 1e-8


def test_mesh_convergence_first_order_or_better():
    model, curve = su2_curve(a=0.8, b=0.6)
    ref = path_signature_numeric(sample_curve(model, curve, 8000), 5)
    e500 = hilbert_distance(path_signature_numeric(sample_curve(model, curve, 500), 5), ref)
    e1000 = hilbert_distance(path_signature_numeric(sample_curve(model, curve, 1000), 5), ref)
    assert e500 / e1000 >= 1.8


def test_boundedness_by_polygonal_length():
    model, curve = su2_curve(a=1.2, b=0.9)
    path = sample_curve(model, curve, 400)
    sig = path_signature_numeric(path, 6)
    from liesig.paths import chord_increments

    L = sum(float(np.linalg.norm(u)) for u in chord_increments(path))
    bound = sum(L ** (2 * k) / math.factorial(k) ** 2 for k in range(7))
    assert math.sqrt(sum(float(lv @ lv) for lv in sig.levels)) <= bound + 1e-12


def test_cut_locus_chord_raises_mesh_error():
    model = CircleGroup()
    # two points straddling the antipode: chord length > pi is impossible,
    # but a chord that lands exactly on the cut locus must raise
    path = SampledPath(model, np.array([0.0, 1.0]), (-PI / 2 - 1e-12, PI / 2))
    with pytest.raises(MeshError):
        path_signature_numeric(path, 3)
