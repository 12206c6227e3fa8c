"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks as ck  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
import liesig  # noqa: E402
import liesig.cli  # noqa: E402, F401

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.BUILDERS)
def test_smoke_run_emits_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "moments-mp", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""


def _moments_outputs(perturb: float):
    wl = workloads.moments_mp(liesig, 0, smoke=True)
    radii = wl.inputs["radii"]
    info = {"amplification": 1.0}
    return wl, {
        "diameter_su2": SimpleNamespace(value=math.pi),
        "diameter_circle": SimpleNamespace(value=math.pi),
        "ball_su2": [(R, ck.su2_ball_volume(R), info) for R in radii],
        "ball_circle": [(R, ck.circle_ball_volume(R) + perturb, info) for R in radii],
        "ball_float_circle": (0.5, info),
    }


def test_perturbed_ball_volume_lowers_pass_fraction():
    wl, good = _moments_outputs(0.0)
    checks, extra = wl.check(good)
    assert checks.pass_frac() == 1.0 and checks.correct()
    assert extra["ball_volume_err_max"] < 1e-12

    wl, bad = _moments_outputs(0.05)
    checks, extra = wl.check(bad)
    failed = [c.name for c in checks.items if not c.passed]
    assert len(failed) == len(wl.inputs["radii"]) and all("ball_circle" in n for n in failed)
    assert checks.pass_frac() < 1.0 and not checks.correct()
    assert extra["ball_volume_err_max"] == pytest.approx(0.05)


def test_known_defect_counts_but_does_not_fail_correct():
    wl, outputs = _moments_outputs(0.0)
    outputs["ball_float_circle"] = (1.0, {"amplification": 4e23})
    checks, _ = wl.check(outputs)
    assert checks.pass_frac() < 1.0 and checks.correct()
    outputs["ball_float_circle"] = ("refused", "amplification too large")
    checks, _ = wl.check(outputs)
    assert checks.pass_frac() == 1.0


def test_mismatched_thread_payloads_lower_pass_fraction(tmp_path):
    wl = workloads.recover_su2(liesig, 0, smoke=True)
    payload = {"result": {"dimension": {"rounded": 3}, "volume": 2 * math.pi**2,
                          "scalar_curvature": 6.0}}
    t1, t2 = tmp_path / "t1.json", tmp_path / "t2.json"
    t1.write_text(json.dumps(payload))
    t2.write_text(json.dumps(payload))
    checks, _ = wl.check({"recover_t1": t1, "recover_t2": t2})
    assert checks.pass_frac() == 1.0

    t2.write_text(json.dumps(payload) + " ")
    checks, _ = wl.check({"recover_t1": t1, "recover_t2": t2})
    assert [c.name for c in checks.items if not c.passed] == [
        "recover payload identical at threads 1 and 2"]
    assert not checks.correct()


@pytest.mark.parametrize("workload", workloads.BUILDERS)
def test_jobs_without_output_fail_every_check(workload):
    wl = workloads.BUILDERS[workload](liesig, 0, True)
    checks, _ = wl.check({job.id: None for job in wl.jobs})
    assert checks.items and checks.pass_frac() == 0.0 and not checks.correct()


def test_exact_references():
    r = ck.su2_radial_moments(2)
    assert r[0] == pytest.approx(1.0, rel=1e-14)
    assert r[2] == pytest.approx(math.pi**2 / 3 - 0.5, rel=1e-14)
    # level 2 of the torus average: E[theta_i theta_j] / 2
    assert ck.torus_level(2).tolist() == pytest.approx([math.pi**2 / 6, 0, 0, math.pi**2 / 6])
    level = liesig.average_closed_form(liesig.parse_group("torus:2"), 4).tensor.levels[4]
    assert ck.rtr(level, 2, 4) == pytest.approx(2 * math.pi**4 / 5 + 2 * (math.pi**2 / 3) ** 2)


def test_tracer_spans_leave_outputs_unchanged():
    model = liesig.SU2Group()
    plain = liesig.spectrum_monte_carlo(model, 2, 70_000, 5, threads=2)
    originals = (liesig.spectra.spectrum_monte_carlo, liesig.SU2Group.__dict__["sample_log_batch"])
    tr = tracer.Tracer()
    tr.install(liesig)
    try:
        tr.job = "t"
        traced = liesig.spectra.spectrum_monte_carlo(model, 2, 70_000, 5, threads=2)
    finally:
        tr.uninstall()
    assert (liesig.spectra.spectrum_monte_carlo, liesig.SU2Group.__dict__["sample_log_batch"]) == originals
    assert traced.values.tobytes() == plain.values.tobytes()

    outer = [s for s in tr.spans if s.name == "spectra.spectrum_monte_carlo"]
    draws = [s for s in tr.spans if s.name == "groups.sample_log_batch"]
    assert len(outer) == 1 and len(draws) == 2
    # pool-thread sampler spans have no parent, so the waiting caller keeps its wall time
    assert all(s.parent is None and s.thread != outer[0].thread for s in draws)
    stats = tracer.summarize(tr.spans)
    assert stats["spectra.spectrum_monte_carlo"].self_s == pytest.approx(
        outer[0].end - outer[0].start)
    assert stats["groups.sample_log_batch"].work == 70_000
    assert 0.0 < tracer.busy_fraction(tr.spans, outer[0], 2) <= 1.0
