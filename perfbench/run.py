"""liesig benchmark: one workload per call, every run in fresh processes.

    python3 perfbench/run.py --workload recover-su2 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # all three, one table each

Run it from the root of a checkout; liesig is imported from ``src/`` there.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` its per-layer
metrics.  Before it comes the provenance of each workload run.  A human-readable
table and the failed checks go to standard error, and the full record
(checks, per-pass job times, spans) to ``.perfbench/results/``.

``setup_s`` is the median over several fresh interpreters of the time from
process launch to the first timed job; the work itself runs in one more.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
WORKLOADS = ["recover-su2", "average-dense", "moments-mp"]
SETUP_PROBES = 3  # extra set-up-only processes; the working process is one more sample
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _worker(args, extra: list[str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time")
    out_dir = ROOT / ".perfbench" / "tmp" / f"{args.workload}-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out_dir)] + (["--smoke"] if args.smoke else []) + extra
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise BenchError(f"worker timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args, spec: dict, deadline: float) -> dict:
    probes = 1 if args.smoke else SETUP_PROBES
    setup = [_worker(args, ["--setup-only"], deadline)["setup_s"] for _ in range(probes)]
    res = _worker(args, [], deadline)
    setup.append(res["metrics"]["setup_s"])
    res["metrics"]["setup_s"] = statistics.median(setup)
    res["provenance"].update(setup_samples=setup, seconds=args.seconds, trace=args.trace)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in res["metrics"]]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    metrics = {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]} for m in wanted}

    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(
        {k: res[k] for k in ("provenance", "correct", "attempted", "failed", "checks", "passes")}
        | {"metrics": metrics}, indent=1))
    if res["spans"]:
        (results / f"{stem}.spans.json").write_text(json.dumps(
            {"fields": ["id", "name", "start", "end", "parent", "thread", "job", "work"],
             "spans": res["spans"]}))

    print(f"== {args.workload} seed {args.seed} trace {args.trace}: correct={res['correct']} "
          f"attempted={res['attempted']} failed={res['failed']}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:<58} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    for c in res["checks"]:
        if not c["passed"]:
            tag = f" [known defect: {c['known_defect']}]" if c["known_defect"] else ""
            print(f"  FAILED CHECK {c['name']}: {c['detail']}{tag}", file=sys.stderr)
    return {"provenance": res["provenance"], "correct": res["correct"],
            "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=30,
                   help="measure whole passes of the job list within this many seconds (at least one)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, one set-up probe (tests)")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "liesig" / "__init__.py").is_file():
        print(f"error: no liesig sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    names = WORKLOADS if args.workload == "all" else [args.workload]
    runs = {}
    try:
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            runs[name] = run_workload(argparse.Namespace(**{**vars(args), "workload": name}), spec, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for res in runs.values():
        print(json.dumps(res["provenance"]))
    if args.workload != "all":
        res = runs[args.workload]
        print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in runs.values()),
        "attempted": sum(r["attempted"] for r in runs.values()),
        "failed": sum(r["failed"] for r in runs.values()),
        "metrics": {f"{w}/{n}": m for w, r in runs.items() for n, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
