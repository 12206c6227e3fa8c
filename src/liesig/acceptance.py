"""Acceptance checks behind ``liesig verify``.

Each criterion is a function returning (passed, detail).  The test suite
runs them through pytest; the CLI prints them as a table.  Tolerances are
part of the contract and are pinned here, not in the callers.
"""

from __future__ import annotations

import math
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.integrate import quad

from .average import average_closed_form, average_monte_carlo, average_product
from .groups import CircleGroup, SU2Group, parse_group, stream
from .paths import SampledPath, path_signature_numeric, sample_curve
from .recovery import RadialCdfEstimator, ball_volume_from_moments, diameter_estimate, recover
from .spectra import (
    rtr_spectrum,
    spectrum_closed_form,
    spectrum_monte_carlo,
    spectrum_quadrature,
    su2_radial_integrals_mp,
)
from .tensor import exp_tensor, hilbert_distance, concat_product

__all__ = ["CriterionResult", "run_acceptance", "CRITERIA"]

PI = math.pi


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _c1_circle_closed_form():
    avg = average_closed_form(CircleGroup(), 16)
    worst = 0.0
    for k in range(9):
        target = PI ** (2 * k) / math.factorial(2 * k + 1)
        worst = max(worst, abs(avg.tensor.levels[2 * k][0] - target) / target)
    odd_ok = all(avg.tensor.levels[2 * k + 1][0] == 0.0 for k in range(8))
    return worst <= 1e-12 and odd_ok, f"worst rel err {worst:.2e}, odd levels zero: {odd_ok}"


def _c2_circle_rtr():
    spec = spectrum_closed_form(CircleGroup(), 8)
    worst = 0.0
    for k in range(9):
        target = PI ** (2 * k) / (2 * k + 1)
        worst = max(worst, abs(spec.values[k] - target) / target)
    r2_err = abs(spec.values[1] - PI**2 / 3)
    return worst <= 1e-12 and r2_err <= 1e-12, f"worst rel err {worst:.2e}, |r2 - pi^2/3| = {r2_err:.2e}"


def _c3_su2_trace_moment():
    oracle, err = quad(
        lambda r: r * r * (2.0 / PI) * math.sin(r) ** 2, 0.0, PI, epsabs=1e-13, epsrel=1e-13
    )
    q = spectrum_quadrature(SU2Group(), 1, nodes=64)
    quad_err = abs(q.values[1] - oracle)
    mc = spectrum_monte_carlo(SU2Group(), 1, 10**6, 42)
    z = abs(mc.values[1] - q.values[1]) / mc.stderr[1]
    return (
        quad_err <= 1e-10 and z <= 4.0,
        f"|quadrature - oracle| = {quad_err:.2e}, MC z-score {z:.2f}",
    )


def _c4_odd_level_vanishing():
    msgs = []
    ok = True
    for model, depth in ((CircleGroup(), 7), (SU2Group(), 5)):
        avg = average_monte_carlo(model, depth, 10**6, seed=0)
        for k in range(1, depth + 1, 2):
            norm = math.sqrt(float(avg.tensor.levels[k] @ avg.tensor.levels[k]))
            bound = 4.0 * float(avg.stderr_per_level[k])
            ok &= norm <= bound
            msgs.append(f"{model.kind} L{k}: {norm:.2e} <= {bound:.2e}")
    return ok, "; ".join(msgs)


def _c5_product_theorem():
    prod = average_product(parse_group("torus:2"), 8)
    rtr2 = rtr_spectrum(prod, 1).values[1]
    exact_ok = abs(rtr2 - 2.0 * PI**2 / 3.0) <= 1e-12 * rtr2
    mc = average_monte_carlo(parse_group("torus:2"), 8, 10**6, seed=0)
    bad = 0
    for k in range(9):
        diff = np.abs(prod.tensor.levels[k] - mc.tensor.levels[k])
        bound = 4.0 * mc.stderr_coeffs[k] + 1e-15
        bad += int(np.sum(diff > bound))
    return exact_ok and bad == 0, f"rtr(C2) = {rtr2:.12f} (2pi^2/3 = {2 * PI ** 2 / 3:.12f}), {bad} coefficients beyond 4 SE"


def _c6_diameter():
    targets = [
        (spectrum_closed_form(CircleGroup(), 32), PI, 0.01, "circle"),
        (spectrum_quadrature(SU2Group(), 32), PI, 0.02, "su2"),
        (spectrum_closed_form(parse_group("torus:2"), 32), PI * math.sqrt(2), 0.02, "torus:2"),
    ]
    ok = True
    msgs = []
    for spec, target, tol, name in targets:
        est = diameter_estimate(spec)
        rel = abs(est.value - target) / target
        mono = bool(np.all(np.diff(est.raw_sequence) >= -1e-12 * est.raw_sequence[:-1]))
        ok &= rel <= tol and mono
        msgs.append(f"{name}: D={est.value:.5f} ({rel:+.3%}), raw monotone {mono}")
    return ok, "; ".join(msgs)


def _c7_ball_volume():
    ok = True
    msgs = []
    circle_spec = spectrum_closed_form(CircleGroup(), 60)
    su2_spec = spectrum_quadrature(SU2Group(), 60, nodes=128)
    for spec, name in ((circle_spec, "circle"), (su2_spec, "su2")):
        F = ball_volume_from_moments(spec, PI / 2, 60)
        ok &= abs(F - 0.5) <= 0.02
        msgs.append(f"{name} moment F(pi/2) = {F:.4f}")
    exact = {
        "circle": lambda R: R / PI,
        "su2": lambda R: (R - math.sin(R) * math.cos(R)) / PI,
    }
    for name, model in (("circle", CircleGroup()), ("su2", SU2Group())):
        radii = np.linspace(0.1 * PI, 0.9 * PI, 9).tolist()
        cdf = RadialCdfEstimator(model, 10**6, 11, radii, scheme="iid")
        worst_z = 0.0
        for R in radii:
            Fhat, se = cdf(R)
            worst_z = max(worst_z, abs(Fhat - exact[name](R)) / se)
        ok &= worst_z <= 4.0
        msgs.append(f"{name} empirical worst z {worst_z:.2f}")
    return ok, "; ".join(msgs)


def _c8_geometry_recovery():
    cases = [
        ("circle", 1, 2 * PI, 0.01, 0.0, 0.1),
        ("su2", 3, 2 * PI**2, 0.03, 6.0, 0.9),
        ("torus:2", 2, 4 * PI**2, 0.02, 0.0, 0.3),
    ]
    ok = True
    msgs = []
    for group, n, V, vtol, S, stol in cases:
        rep = recover(parse_group(group), samples=10**7, seed=7, K=8)
        good = (
            rep.dimension == n
            and abs(rep.volume - V) / V <= vtol
            and abs(rep.scalar_curvature - S) <= stol
        )
        ok &= good
        msgs.append(
            f"{group}: n={rep.dimension} V={rep.volume:.4f} S={rep.scalar_curvature:+.4f}"
        )
    return ok, "; ".join(msgs)


def _c9_path_pipeline():
    model = SU2Group()
    N = 6
    rng = stream(5)
    v = model.sample_log_batch(rng, 1)[0] * 0.8
    g = model.exp(v)

    geo = sample_curve(model, lambda t: model.exp(t * v), 1024)
    d_geo = hilbert_distance(path_signature_numeric(geo, N), exp_tensor(model.log(g), N))

    def curve(t):
        return model.exp(np.array([0.4 * math.sin(PI * t), 0.3 * t, 0.0]))

    m = 2048
    uniform = sample_curve(model, curve, m)
    s = np.linspace(0.0, 1.0, m + 1)
    repar = SampledPath(model, s, tuple(curve(float(si**2)) for si in s))
    d_rep = hilbert_distance(
        path_signature_numeric(uniform, N), path_signature_numeric(repar, N)
    )

    h = model.exp(model.sample_log_batch(stream(6), 1)[0])
    shifted = SampledPath(model, uniform.times, tuple(model.multiply(h, np.array(uniform.points))))
    d_left = hilbert_distance(
        path_signature_numeric(uniform, N), path_signature_numeric(shifted, N)
    )

    mid = m // 2
    first = SampledPath(model, np.linspace(0, 1, mid + 1), uniform.points[: mid + 1])
    second = SampledPath(model, np.linspace(0, 1, m - mid + 1), uniform.points[mid:])
    d_chen = hilbert_distance(
        concat_product(
            path_signature_numeric(first, N), path_signature_numeric(second, N)
        ),
        path_signature_numeric(uniform, N),
    )
    ok = d_geo <= 1e-6 and d_rep <= 1e-6 and d_left <= 1e-6 and d_chen <= 1e-10
    return ok, (
        f"geodesic {d_geo:.2e}, reparam {d_rep:.2e}, left {d_left:.2e}, chen {d_chen:.2e}"
    )


def _c10_determinism():
    from .cli import main

    runs = [
        ["average", "--group", "su2", "--method", "monte_carlo", "--depth", "4",
         "--samples", "200000", "--seed", "42"],
        ["spectrum", "--group", "torus:2", "--method", "monte_carlo", "--half-depth", "6",
         "--samples", "200000", "--seed", "9"],
        ["recover", "--group", "circle", "--samples", "1000000", "--seed", "3",
         "--half-depth", "8"],
    ]
    ok = True
    msgs = []
    with tempfile.TemporaryDirectory() as td:
        for i, argv in enumerate(runs):
            outputs = set()
            for threads in (1, 4, 8):
                for rep in (0, 1):
                    path = Path(td) / f"run{i}_{threads}_{rep}.json"
                    code = main(argv + ["--threads", str(threads), "--output", str(path)])
                    if code != 0:
                        return False, f"{argv[0]} exited {code}"
                    outputs.add(path.read_bytes())
            ok &= len(outputs) == 1
            msgs.append(f"{argv[0]}: {len(outputs)} distinct output(s)")
    return ok, "; ".join(msgs)


def _c11_radial_recursion():
    I2_target = PI**3 / 6 - PI / 4
    I2_wrong = PI**3 / 6 + PI / 4
    I2_quad, _ = quad(lambda r: r * r * math.sin(r) ** 2, 0.0, PI, epsabs=1e-13, epsrel=1e-13)
    sign_ok = abs(I2_quad - I2_target) <= 1e-10 and abs(I2_quad - I2_wrong) > 1.0
    recursion = [float(x) for x in su2_radial_integrals_mp(16)]
    worst = 0.0
    for n in range(17):
        oracle, _ = quad(
            lambda r: r**n * math.sin(r) ** 2, 0.0, PI, epsabs=1e-13, epsrel=1e-13
        )
        worst = max(worst, abs(recursion[n] - oracle) / oracle)
    return (
        sign_ok and worst <= 1e-10,
        f"I2 = {I2_quad:.12f} (minus-sign value {I2_target:.12f}), recursion worst rel err {worst:.2e}",
    )


CRITERIA = [
    (1, "circle closed form A_2k = pi^2k/(2k+1)!", _c1_circle_closed_form),
    (2, "circle rtr spectrum pi^2k/(2k+1)", _c2_circle_rtr),
    (3, "su2 trace moment r2 (quadrature + MC)", _c3_su2_trace_moment),
    (4, "MC odd levels vanish within 4 SE", _c4_odd_level_vanishing),
    (5, "product theorem: T^2 shuffle vs torus MC", _c5_product_theorem),
    (6, "diameter fit: circle/su2/T^2", _c6_diameter),
    (7, "ball volume: moment inversion + empirical", _c7_ball_volume),
    (8, "geometry recovery (n, V, S) at 1e7 samples", _c8_geometry_recovery),
    (9, "path signature pipeline invariances", _c9_path_pipeline),
    (10, "seeded runs byte-identical across threads", _c10_determinism),
    (11, "radial integral recursion sign check", _c11_radial_recursion),
]


def run_acceptance(numbers=None) -> list[CriterionResult]:
    wanted = set(numbers) if numbers else None
    results = []
    for num, name, fn in CRITERIA:
        if wanted and num not in wanted:
            continue
        t0 = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"exception: {exc!r}"
        results.append(
            CriterionResult(num, f"{num:2d}. {name}", bool(passed), detail, time.perf_counter() - t0)
        )
    return results
