"""The three workloads: their jobs, inputs and output checks.

Every input is drawn from the workload seed.  Jobs call liesig only through
its public API or ``liesig.cli.main`` (in-process, ``--output`` to a file),
always looking the function up at call time so that an installed tracer
sees the call.  A job receives the outputs of the jobs before it in the same
pass and returns its own output: a path for CLI jobs, a Python value for
library jobs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks as ck

PI = math.pi


@dataclass
class Job:
    id: str
    run: Callable[[dict, Path], object]  # (outputs so far in this pass, pass dir) -> output


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    inputs: dict  # provenance: seeds, sample counts, thread counts, sizes
    check: Callable[[dict], tuple[ck.CheckList, dict]]  # outputs -> checks, extra metrics


def _cli_job(liesig, job_id: str, argv: list[str]) -> Job:
    def run(_outputs, out_dir: Path) -> Path:
        path = out_dir / f"{job_id}.json"
        code = liesig.cli.main(argv + ["--output", str(path)])
        if code != 0:
            raise RuntimeError(f"liesig {' '.join(argv)} exited {code}")
        return path

    return Job(job_id, run)


def _read(path: Path | None) -> bytes | None:
    return None if path is None else path.read_bytes()


def _seeds(seed: int, k: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(k) % (1 << 31)]


# -- recover-su2 ----------------------------------------------------------------


def recover_su2(liesig, seed: int, smoke: bool) -> Workload:
    samples = 200_000 if smoke else 1_000_000
    (rseed,) = _seeds(seed, 1)
    base = ["recover", "--group", "su2", "--samples", str(samples), "--seed", str(rseed)]
    jobs = [_cli_job(liesig, f"recover_t{t}", base + ["--threads", str(t)]) for t in (1, 2)]

    def check(outputs):
        checks = ck.CheckList()
        payloads = {j: _read(outputs.get(j)) for j in ("recover_t1", "recover_t2")}
        for job_id, payload in payloads.items():
            ck.check_recover(checks, job_id, payload)
        ck.check_same_bytes(checks, "recover payload identical at threads 1 and 2",
                            payloads["recover_t1"], payloads["recover_t2"])
        return checks, {}

    inputs = {"argv": base, "threads": [1, 2], "samples": samples, "recover_seed": rseed}
    return Workload("recover-su2", jobs, inputs, check)


# -- average-dense --------------------------------------------------------------


def average_dense(liesig, seed: int, smoke: bool) -> Workload:
    torus_seed, su2_seed = _seeds(seed, 2)
    rng = np.random.default_rng(seed)
    a, b, c = rng.uniform(0.3, 0.5), rng.uniform(0.2, 0.4), rng.uniform(-0.3, 0.3)
    if smoke:
        dq, dt, ds, dp, mc, chords, N = 6, 4, 3, 6, 20_000, 256, 4
    else:
        dq, dt, ds, dp, mc, chords, N = 12, 8, 5, 10, 400_000, 2048, 6
    argv = {
        "avg_su2_quadrature": ["average", "--group", "su2", "--method", "quadrature",
                               "--depth", str(dq)],
        "avg_torus2_mc": ["average", "--group", "torus:2", "--method", "monte_carlo",
                          "--depth", str(dt), "--samples", str(mc), "--seed", str(torus_seed)],
        "avg_su2_mc": ["average", "--group", "su2", "--method", "monte_carlo",
                       "--depth", str(ds), "--samples", str(mc), "--seed", str(su2_seed)],
        "avg_su2xcircle_shuffle": ["average", "--group", "product:su2,circle",
                                   "--method", "product_shuffle", "--depth", str(dp)],
    }
    jobs = [_cli_job(liesig, job_id, av) for job_id, av in argv.items()]

    model = liesig.SU2Group()

    def curve(t):
        return model.exp(np.array([a * math.sin(PI * t), b * t, c * t * t]))

    def chordal(_outputs, _out_dir):
        # a non-geodesic curve, so the signature is not a symmetric tensor;
        # the check compares it with the same curve reparametrised by s -> s^2
        uniform = liesig.path_signature_numeric(liesig.sample_curve(model, curve, chords), N)
        s = np.linspace(0.0, 1.0, chords + 1)
        repar = liesig.SampledPath(model, s, tuple(curve(float(si * si)) for si in s))
        return uniform, liesig.path_signature_numeric(repar, N)

    jobs.append(Job("chordal_su2", chordal))

    def check(outputs):
        checks = ck.CheckList()
        r = ck.su2_radial_moments(2 * max(dq, dp))
        su2_rtr = [r[2 * k] for k in range(dq // 2 + 1)]
        prod_rtr = [sum(math.comb(m, k) * r[2 * k] * ck.circle_moment(2 * (m - k)) for k in range(m + 1))
                    for m in range(dp // 2 + 1)]
        files = {j: _read(outputs.get(j)) for j in argv}
        ck.check_exact_rtr(checks, "avg_su2_quadrature", files["avg_su2_quadrature"], su2_rtr)
        ck.check_exact_rtr(checks, "avg_su2xcircle_shuffle", files["avg_su2xcircle_shuffle"], prod_rtr)
        torus_exact = [ck.torus_level(k) for k in range(dt + 1)]
        ck.check_mc_levels(checks, "avg_torus2_mc", files["avg_torus2_mc"], torus_exact.__getitem__, dt)
        quadrature = ck.parsed(files["avg_su2_quadrature"])
        ck.check_mc_levels(checks, "avg_su2_mc (vs quadrature)", files["avg_su2_mc"],
                           lambda k: np.asarray(quadrature()["levels"][k]), ds)

        def chordal_check():
            uniform, repar = outputs["chordal_su2"]
            d = ck.hilbert_distance(uniform.levels, repar.levels)
            return d <= ck.CHORDAL_TOL, f"reparametrisation distance {d:.2e}"

        checks.add(f"chordal_su2: reparametrisation within {ck.CHORDAL_TOL:g}", chordal_check)
        return checks, {}

    inputs = {"argv": argv, "threads": [1], "samples": mc,
              "chordal": {"chords": chords, "depth": N, "curve": [a, b, c]}}
    return Workload("average-dense", jobs, inputs, check)


# -- moments-mp -------------------------------------------------------------------


def moments_mp(liesig, seed: int, smoke: bool) -> Workload:
    (mc_seed,) = _seeds(seed, 1)
    K, nodes, nradii = (20, 64, 2) if smoke else (60, 128, 8)
    float_samples, float_degree = (10_000 if smoke else 100_000), 40
    radii = [float(R) for R in np.linspace(0.1 * PI, 0.9 * PI, nradii)]

    def ball(spec_id):
        def run(outputs, _out_dir):
            spec = outputs[spec_id]
            return [(R,) + liesig.ball_volume_from_moments(spec, R, degree=K, full_output=True)
                    for R in radii]

        return run

    def float_pairing(_outputs, _out_dir):
        spec = liesig.spectrum_monte_carlo(liesig.CircleGroup(), float_degree, float_samples, mc_seed)
        try:
            return liesig.ball_volume_from_moments(spec, PI / 2, degree=float_degree, full_output=True)
        except liesig.FitFailure as exc:  # refusing an unsafe pairing is the correct outcome
            return "refused", str(exc)

    jobs = [
        Job("spec_su2_quadrature", lambda o, d: liesig.spectrum_quadrature(liesig.SU2Group(), K, nodes=nodes)),
        Job("spec_circle_closed_form", lambda o, d: liesig.spectrum_closed_form(liesig.CircleGroup(), K)),
        Job("diameter_su2", lambda o, d: liesig.diameter_estimate(o["spec_su2_quadrature"])),
        Job("diameter_circle", lambda o, d: liesig.diameter_estimate(o["spec_circle_closed_form"])),
        Job("ball_su2", ball("spec_su2_quadrature")),
        Job("ball_circle", ball("spec_circle_closed_form")),
        Job("ball_float_circle", float_pairing),
    ]

    def check(outputs):
        checks = ck.CheckList()
        for job_id, group in (("diameter_su2", "su2"), ("diameter_circle", "circle")):
            est = outputs.get(job_id)
            ck.check_diameter(checks, job_id, est.value if est else float("nan"), group)
        worst, amp = 0.0, 0.0
        for job_id, exact in (("ball_su2", ck.su2_ball_volume), ("ball_circle", ck.circle_ball_volume)):
            rows = outputs.get(job_id) or [(R, math.nan, {"amplification": 0.0}) for R in radii]
            worst = max(worst, ck.check_ball_volumes(checks, job_id, [(R, F) for R, F, _ in rows], exact))
            amp = max([amp] + [info["amplification"] for _, _, info in rows])

        def float_check():
            F, info = outputs["ball_float_circle"]
            if F == "refused":
                return True, f"refused: {info}"
            err = abs(F - 0.5)
            return err <= ck.BALL_TOL, f"F(pi/2) {F:.6f}, amplification {info['amplification']:.2e}"

        checks.add(f"ball_float_circle: float64 spectrum, degree {float_degree}, F(pi/2) within "
                   f"{ck.BALL_TOL} or refused", float_check, known_defect="ROADMAP item 5")
        return checks, {"ball_volume_err_max": worst,
                        "recovery.ball_volume_from_moments.amplification_max": amp}

    inputs = {"K": K, "nodes": nodes, "degree": K, "radii": radii, "threads": [1],
              "float_spectrum": {"samples": float_samples, "degree": float_degree, "seed": mc_seed}}
    return Workload("moments-mp", jobs, inputs, check)


BUILDERS = {"recover-su2": recover_su2, "average-dense": average_dense, "moments-mp": moments_mp}
