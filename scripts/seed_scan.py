#!/usr/bin/env python3
"""Run recover-su2's recovery on many workload seeds, and compare with a base revision.

Usage:
    python3 scripts/seed_scan.py                      # workload seeds 0-119 in this checkout
    python3 scripts/seed_scan.py --base REV           # and the seeds whose n, V, S or F differ at REV
    python3 scripts/seed_scan.py --seeds 4 --samples 200000   # a smaller scan

Workload seed s runs ``recover(SU2Group(), samples, seed=s')`` at one
thread, where s' = ``SeedSequence(s).generate_state(1) % 2**31`` is the
library seed that perfbench's recover-su2 workload derives from s.  The
scan prints the seeds that fail that workload's check |S - 6| <= 0.9, with
their S, and the mean and standard deviation of S over all seeds.

With ``--base REV`` the committed tree of REV is exported with ``git
archive`` into a temporary directory, as ``bench_pairs.py`` does, and the
same seeds run there in a child process (``--src``) that imports liesig
from its ``src``.  The scan then lists every seed whose dimension n,
volume V, scalar curvature S or any F value of the ball-volume table is
not bitwise equal, and the base's failing seeds.  The exit status is 1
when any seed differs, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEEDS = 120
SAMPLES = 10**6
S_TRUE, S_TOL = 6.0, 0.9  # recover-su2's check on the scalar curvature
KEYS = ("n", "V", "S", "F")


def library_seed(seed: int) -> int:
    """The seed that recover-su2 passes to ``recover`` for workload seed ``seed``."""
    return int(np.random.SeedSequence(seed).generate_state(1)[0] % (1 << 31))


def scan(seeds: int, samples: int, src: Path) -> list[dict]:
    """n, V, S and the F values of ``recover`` on workload seeds 0..seeds-1, through ``src``."""
    sys.path.insert(0, str(src))
    import liesig

    if not Path(liesig.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"liesig imported from {liesig.__file__}, not from {src}")
    rows = []
    for s in range(seeds):
        rep = liesig.recover(liesig.SU2Group(), samples, seed=library_seed(s))
        rows.append({"seed": s, "n": rep.dimension, "V": rep.volume, "S": rep.scalar_curvature,
                     "F": [f for _, f in rep.ball_volume_table]})
    return rows


def scan_base(rev: str, seeds: int, samples: int) -> tuple[str, list[dict]]:
    """The scan in the committed tree of ``rev``, and its full hash."""
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from bench_pairs import export_tree

    with tempfile.TemporaryDirectory(prefix="seed-scan-base-") as tmp:
        base = Path(tmp)
        sha = export_tree(rev, base)
        proc = subprocess.run(
            [sys.executable, __file__, "--src", str(base / "src"), "--seeds", str(seeds),
             "--samples", str(samples)],
            cwd=base, check=True, stdout=subprocess.PIPE, text=True)
    return sha, json.loads(proc.stdout)


def failing(rows: list[dict]) -> list[dict]:
    return [r for r in rows if not abs(r["S"] - S_TRUE) <= S_TOL]


def print_failing(label: str, rows: list[dict]) -> None:
    bad = failing(rows)
    print(f"{label}: {len(bad)} of {len(rows)} seeds fail |S - {S_TRUE:g}| <= {S_TOL}: "
          + (", ".join(f"{r['seed']} (S = {r['S']:.3f})" for r in bad) or "none"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=SEEDS, help="scan workload seeds 0..SEEDS-1")
    ap.add_argument("--samples", type=int, default=SAMPLES, help="Haar draws per recover")
    ap.add_argument("--base", help="revision to compare with (the parent commit)")
    ap.add_argument("--src", type=Path,
                    help="import liesig from this directory and print the scan as JSON "
                         "(how the base side runs)")
    args = ap.parse_args(argv)

    if args.src:
        print(json.dumps(scan(args.seeds, args.samples, args.src)))
        return 0
    rows = scan(args.seeds, args.samples, ROOT / "src")
    print_failing("this checkout", rows)
    S = [r["S"] for r in rows]
    print(f"S over {len(S)} seeds: mean {statistics.fmean(S):.3f}, "
          f"sd {statistics.stdev(S) if len(S) > 1 else 0.0:.3f}")
    if not args.base:
        return 0
    sha, base_rows = scan_base(args.base, args.seeds, args.samples)
    print_failing(f"base {sha[:12]}", base_rows)
    differ = [(b, r) for b, r in zip(base_rows, rows) if any(b[k] != r[k] for k in KEYS)]
    print(f"{len(differ)} of {len(rows)} seeds differ in n, V, S or F from {sha[:12]}")
    for b, r in differ:
        print(f"  seed {r['seed']}: " + ", ".join(
            f"{k} {b[k]!r} -> {r[k]!r}" for k in KEYS[:3] if b[k] != r[k])
            + (", F differs" if b["F"] != r["F"] else ""))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
