#!/usr/bin/env python3
"""Benchmark a change against a base revision in alternating pairs.

Usage:
    python3 scripts/bench_pairs.py --base REV --out BENCH_<n>.json

For every workload, each of PAIRS pairs runs ``perfbench/run.py --workload W
--seed S --trace 0`` once in a checkout of the base revision and once in
this working tree, with the same seed and perfbench's own run length; the
side that runs first alternates from pair to pair, and pair i uses seed
SEED + i.  Ten pairs are the fewest that can show a gain on nine of ten.
The base checkout is the committed tree of REV, exported with ``git
archive`` into a temporary directory, so it comes from the local repository
alone and leaves the repository itself untouched.

The output file records the machine, its processor count, the thread
counts and run length of each workload, every run's end-to-end metrics, and per
metric and side the median and quartiles (IQR = q3 - q1), plus how many
pairs the change won (ties count for neither side).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ["recover-su2", "average-dense", "moments-mp"]
PAIRS = 10
SEED = 101


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE).stdout


def export_tree(rev: str, dest: Path) -> str:
    """Write the committed files of ``rev`` under ``dest``; return its full hash."""
    sha = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(_git("archive", sha)), mode="r:") as tar:
        tar.extractall(dest)
    return sha


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    provenance, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "threads": provenance["inputs"].get("threads"),
        "seconds": provenance["seconds"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def compare(parent: list[dict], change: list[dict], better: dict) -> dict:
    out = {}
    for name in parent[0]["metrics"]:
        p = [r["metrics"][name] for r in parent]
        c = [r["metrics"][name] for r in change]
        sign = 1.0 if better[name] == "lower" else -1.0
        out[name] = {
            "better": better[name],
            "parent": summary(p),
            "change": summary(c),
            "change_wins": sum(sign * (a - b) > 0 for a, b in zip(p, c)),
            "parent_wins": sum(sign * (b - a) > 0 for a, b in zip(p, c)),
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="base revision (the parent commit)")
    ap.add_argument("--out", required=True, type=Path, help="JSON file to write")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    report = {
        "machine": platform.machine(),
        "processor": platform.processor() or None,
        "system": platform.platform(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        # thread pools of numpy's BLAS and OpenMP, as the environment sets them
        "thread_env": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                      "MKL_NUM_THREADS")},
        "change": _git("rev-parse", "HEAD").decode().strip(),
        "change_dirty": bool(_git("status", "--porcelain", "--untracked-files=no").strip()),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        base = Path(tmp)
        report["base"] = export_tree(args.base, base)
        for workload in WORKLOADS:
            runs = {"parent": [], "change": []}
            for i in range(PAIRS):
                order = [("parent", base), ("change", ROOT)]
                for side, checkout in order if i % 2 == 0 else order[::-1]:
                    res = run_once(checkout, workload, SEED + i)
                    runs[side].append(res)
                    print(f"{workload} pair {i} {side}: "
                          + ", ".join(f"{k}={v:.4g}" for k, v in res["metrics"].items()),
                          file=sys.stderr)
            report["workloads"][workload] = {
                "pairs": PAIRS,
                "seeds": [SEED + i for i in range(PAIRS)],
                "threads": runs["change"][0]["threads"],
                "seconds": runs["change"][0]["seconds"],
                "metrics": compare(runs["parent"], runs["change"], better),
                "runs": runs,
            }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
