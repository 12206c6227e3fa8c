"""One benchmark process: import liesig from the checkout, run a workload.

``run.py`` starts this script in a fresh interpreter and reads the JSON
object it prints as its last line.  With ``--setup-only`` it stops once it
is ready for the first timed job and reports only the set-up time, counted
from ``--t0``, the launcher's ``time.monotonic()`` just before it started
this process (the clock is shared by all processes on Linux).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parents[1]


def import_liesig():
    """Import liesig from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    liesig = importlib.import_module("liesig")
    importlib.import_module("liesig.cli")
    if not Path(liesig.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"liesig imported from {liesig.__file__}, not from {src}")
    return liesig


def fingerprint(obj, h=None):
    """Hash of a job output: file bytes, array bytes, or reprs of scalars."""
    h = h or hashlib.sha256()
    if isinstance(obj, Path):
        h.update(obj.read_bytes())
    elif hasattr(obj, "tobytes"):
        h.update(obj.tobytes())
    elif isinstance(obj, (list, tuple)):
        for x in obj:
            fingerprint(x, h)
    elif isinstance(obj, dict):
        for k in sorted(obj):
            h.update(repr(k).encode())
            fingerprint(obj[k], h)
    elif dataclasses.is_dataclass(obj):
        fingerprint(vars(obj), h)
    else:
        h.update(repr(obj).encode())
    return h


def run_pass(workload, out_dir: Path, tr=None) -> dict:
    out_dir.mkdir(parents=True)
    outputs, times, digests, failed = {}, {}, {}, []
    for job in workload.jobs:
        if tr is not None:
            tr.job = job.id
        t0 = time.perf_counter()
        try:
            out = job.run(outputs, out_dir)
        except Exception:  # a failing job is counted, and the pass goes on
            out = None
            failed.append(job.id)
            traceback.print_exc(file=sys.stderr)
        times[job.id] = time.perf_counter() - t0
        outputs[job.id] = out
        digests[job.id] = None if out is None else fingerprint(out).hexdigest()
    if tr is not None:
        tr.job = None
    return {"outputs": outputs, "times": times, "digests": digests, "failed": failed,
            "run_s": sum(times.values())}


def provenance(liesig, workload, args) -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "workload": workload.name,
        "seed": args.seed,
        "smoke": args.smoke,
        "inputs": workload.inputs,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "liesig": liesig.__version__,
        "machine": platform.machine(),
    }


def layer_metrics(spans) -> dict:
    stats = tracer.summarize(spans)
    out = {}
    for name, st in stats.items():
        out[f"{name}.s"] = st.s
        out[f"{name}.self_s"] = st.self_s
        out[f"{name}.calls"] = st.calls
    draws = stats["groups.sample_log_batch"].work + stats["groups.distance_from_uniforms"].work
    busy = stats["groups.sample_log_batch"].self_s + stats["groups.distance_from_uniforms"].self_s
    out["groups.draws"] = draws
    out["groups.ns_per_draw"] = 1e9 * busy / draws if draws else 0.0
    out["average.coeffs_out"] = sum(stats[n].work for n in stats if n.startswith("average.average_")
                                    or n == "average.product_average_shuffle")
    t2 = [s for s in spans if s.name == "spectra.spectrum_monte_carlo" and s.job == "recover_t2"]
    out["spectra.spectrum_monte_carlo.busy_frac_t2"] = (
        tracer.busy_fraction(spans, t2[0], 2) if t2 else 0.0)
    out["trace.spans"] = len(spans)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--out", type=Path, required=True, help="scratch directory for job outputs")
    args = p.parse_args(argv)

    liesig = import_liesig()
    import workloads  # imports numpy and mpmath, so only after liesig is found

    workload = workloads.BUILDERS[args.workload](liesig, args.seed, args.smoke)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    try:
        # whole passes, while one more as long as the last still ends in time
        passes = []
        begin = time.perf_counter()
        while not passes or time.perf_counter() - begin + passes[-1]["run_s"] <= args.seconds:
            passes.append(run_pass(workload, args.out / f"pass{len(passes)}"))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        traced = spans = None
        if args.trace:
            tr = tracer.Tracer()
            tr.install(liesig)
            try:
                traced = run_pass(workload, args.out / "traced", tr)
            finally:
                tr.uninstall()
            spans = tr.spans

        output_bytes = float(sum(o.stat().st_size for o in passes[0]["outputs"].values()
                                 if isinstance(o, Path)))
        checks, extra = workload.check(passes[0]["outputs"])
        every = passes + ([traced] if traced else [])
        mismatched = sorted({j for ps in every for j, d in ps["digests"].items()
                             if d != passes[0]["digests"][j]})
        checks.add("outputs byte-identical across passes" + (" and the traced pass" if traced else ""),
                   lambda: (not mismatched, f"{len(every)} passes, mismatched: {mismatched}"))
    finally:
        shutil.rmtree(args.out, ignore_errors=True)

    run_s = statistics.median(ps["run_s"] for ps in passes)
    metrics = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "check_pass_frac": checks.pass_frac(),
        "ball_volume_err_max": 0.0,
        "recovery.ball_volume_from_moments.amplification_max": 0.0,
        "cli.output_bytes": output_bytes,
    }
    metrics.update(extra)
    for build in workloads.BUILDERS.values():  # jobs of other workloads report 0
        for job in build(liesig, 0, True).jobs:
            metrics[f"job.{job.id}.s"] = 0.0
    for job in workload.jobs:
        metrics[f"job.{job.id}.s"] = statistics.median(ps["times"][job.id] for ps in passes)
    if traced:
        metrics.update(layer_metrics(spans))
        metrics["trace.overhead_s"] = traced["run_s"] - run_s

    result = {
        "provenance": provenance(liesig, workload, args),
        "metrics": metrics,
        "attempted": sum(len(workload.jobs) for _ in every),
        "failed": sum(len(ps["failed"]) for ps in every),
        "correct": checks.correct(),
        "checks": [c.to_json() for c in checks.items],
        "passes": [{"run_s": ps["run_s"], "times": ps["times"]} for ps in every],
        "spans": [s.to_json() for s in spans] if spans else None,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
