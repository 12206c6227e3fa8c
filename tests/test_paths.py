import math

import numpy as np
import pytest

from liesig.groups import CircleGroup, SU2Group
from liesig.paths import (
    MeshError,
    SampledPath,
    geodesic_signature,
    path_signature_numeric,
    sample_curve,
)
from liesig.tensor import (
    concat_product,
    exp_tensor,
    hilbert_distance,
    hilbert_norm,
    unit_series,
)

PI = math.pi


def su2_curve(a=0.4, b=0.3):
    model = SU2Group()

    def curve(t):
        return model.exp(np.array([a * math.sin(PI * t), b * t, 0.0]))

    return model, curve


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
    sig = geodesic_signature(model, 1.3, 5)
    for k in range(6):
        assert abs(sig.levels[k][0] - 1.3**k / math.factorial(k)) < 1e-14


def test_geodesic_signature_su2_matches_exp_tensor():
    model = SU2Group()
    v = np.array([0.7, -0.4, 0.2])
    sig = geodesic_signature(model, model.exp(v), 4)
    assert sig.allclose(exp_tensor(v, 4), atol=1e-12)


def test_geodesic_signature_identity():
    model = SU2Group()
    assert geodesic_signature(model, model.identity(), 3).allclose(unit_series(3, 3))


def test_numeric_matches_geodesic_shortcut():
    model = SU2Group()
    v = np.array([0.9, 0.5, -0.3])
    path = sample_curve(model, lambda t: model.exp(t * v), 1000)
    num = path_signature_numeric(path, 6)
    assert hilbert_distance(num, geodesic_signature(model, model.exp(v), 6)) < 1e-6


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
    assert hilbert_distance(prod, unit_series(3, 5)) < 1e-8


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
    assert hilbert_norm(sig) <= bound + 1e-12


def test_cut_locus_chord_raises_mesh_error():
    model = CircleGroup()
    # two points straddling the antipode: chord length > pi is impossible,
    # but a chord that lands exactly on the cut locus must raise
    path = SampledPath(model, np.array([0.0, 1.0]), (-PI / 2 - 1e-12, PI / 2))
    with pytest.raises(MeshError):
        path_signature_numeric(path, 3)
