#!/usr/bin/env python3
"""Hash what each of a fixed list of CLI commands writes, and compare with a base revision.

Usage:
    python3 scripts/byte_table.py                 # the table for this checkout
    python3 scripts/byte_table.py --base REV      # and the runs whose results differ at REV
    python3 scripts/byte_table.py "spectrum --group circle --half-depth 4"   # other commands

Each command runs through ``liesig.cli.main`` in this process, as JSON and
as CSV at ``--threads 1`` and ``2``, with ``--output`` to a temporary file.
A run is summed up by its exit code, two SHA-256 hashes of the file it
wrote ("none" when it wrote none) and its stderr text.  The payload hash
covers the whole file; the result hash leaves out the provenance, that is
the JSON's top-level ``config`` entry or the CSV's leading ``# `` lines.
Each run prints one line (exit code, the first 16 hex digits of both
hashes, format, threads, command), then its stderr indented.  The commands
cover ``average``, ``spectrum`` and ``recover``, their methods, the su2,
circle, torus and product groups, and refusals.

With ``--base REV`` the committed tree of REV is exported with ``git
archive`` into a temporary directory, as ``bench_pairs.py`` does, and the
same commands run there in a child process (``--src``) that imports liesig
from its ``src``.  Runs whose exit code, result hash or stderr differ are
listed apart from runs whose payloads differ in their config alone (a flag
added or dropped).  The exit status is then 1 when any run differs, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = [
    "average --group circle --method closed_form --depth 20",
    "average --group circle --method closed_form --depth 200",
    "average --group circle --method closed_form --depth 700",
    "average --group circle --method quadrature --depth 20",
    "average --group circle --method quadrature --depth 700",
    "average --group product:circle,su2 --method monte_carlo --depth 4 --samples 50000 --seed 5",
    "average --group product:circle,su2 --method product_shuffle --depth 8",
    "average --group product:su2,circle --method closed_form --depth 4",
    "average --group product:su2,circle --method monte_carlo --depth 4 --samples 50000 --seed 5",
    "average --group product:su2,circle --method product_shuffle --depth 10",
    "average --group product:su2,circle --method quadrature --depth 4",
    "average --group product:su2,circle,circle --method product_shuffle --depth 6",
    "average --group su2 --method monte_carlo --depth 5 --samples 100000 --seed 3",
    "average --group su2 --method product_shuffle --depth 4",
    "average --group su2 --method quadrature --depth 12",
    "average --group su2 --method quadrature --depth 14",
    "average --group su2 --method quadrature --depth 30",
    "average --group su2 --method quadrature --depth 7",
    "average --group torus:2 --method closed_form --depth 8",
    "average --group torus:2 --method monte_carlo --depth 8 --samples 50000 --seed 4",
    "average --group torus:2 --method monte_carlo --depth 8 --samples 50000 --seed 5",
    "average --group torus:3 --method closed_form --depth 6",
    "average --group torus:3 --method product_shuffle --depth 6",
    "average --group torus:4 --method closed_form --depth 40",
    "average --group torus:4 --method product_shuffle --depth 40",
    "recover --group circle --samples 200000 --seed 7",
    "recover --group product:su2,circle --samples 200000 --seed 7",
    "recover --group su2 --half-depth 3",
    "recover --group su2 --samples 100 --seed 7",
    "recover --group su2 --samples 200000 --seed 7",
    "recover --group su2 --samples 2500000 --seed 7",
    "recover --group torus:2 --samples 200000 --seed 7",
    "recover --group torus:3 --samples 200000 --seed 7",
    "spectrum --group circle --method closed_form --half-depth 20",
    "spectrum --group circle --method quadrature --half-depth 12",
    "spectrum --group circle --method quadrature --half-depth 300",
    "spectrum --group product:su2,circle --method monte_carlo --half-depth 6 --samples 100000 --seed 4",
    "spectrum --group su2 --method monte_carlo --half-depth 200 --samples 1000",
    "spectrum --group su2 --method monte_carlo --half-depth 8 --samples 100000 --seed 2",
    "spectrum --group su2 --method quadrature --half-depth 16",
    "spectrum --group su2 --method quadrature --half-depth 400",
]
VARIANTS = [(fmt, threads) for fmt in ("json", "csv") for threads in (1, 2)]


def result_digest(data: bytes, fmt: str) -> str:
    """SHA-256 of an output without its provenance.

    JSON keys are sorted, so ``config`` is the first entry, from its line to
    the line of its closing brace; CSV provenance is the leading ``# ``
    lines.
    """
    start = end = 0
    if fmt == "json" and (i := data.find(b'\n  "config": {')) >= 0:
        start, end = i, data.find(b"\n", data.find(b"\n  }", i) + 1)
    while fmt == "csv" and data.startswith(b"# ", end):
        end = data.index(b"\n", end) + 1
    view = memoryview(data)
    digest = hashlib.sha256(view[:start])
    digest.update(view[end:])
    return digest.hexdigest()


def run_all(commands: list[str], src: Path) -> list[dict]:
    """Every command in every variant, through the ``liesig.cli`` found in ``src``."""
    sys.path.insert(0, str(src))
    import liesig.cli

    if not Path(liesig.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"liesig imported from {liesig.cli.__file__}, not from {src}")
    runs = []
    with tempfile.TemporaryDirectory(prefix="byte-table-") as tmp:
        path = Path(tmp) / "out"
        for command in commands:
            for fmt, threads in VARIANTS:
                argv = shlex.split(command) + ["--format", fmt, "--threads", str(threads),
                                               "--output", str(path)]
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    try:
                        code = liesig.cli.main(argv)
                    except SystemExit as exc:  # argparse refusals
                        code = exc.code
                payload = result = None
                if path.exists():
                    data = path.read_bytes()
                    path.unlink()
                    payload = hashlib.sha256(data).hexdigest()
                    result = result_digest(data, fmt)
                runs.append({"command": command, "format": fmt, "threads": threads,
                             "exit": code, "payload": payload, "result": result,
                             "stderr": err.getvalue()})
    return runs


def run_base(rev: str, commands: list[str]) -> tuple[str, list[dict]]:
    """The runs of ``commands`` in the committed tree of ``rev``, and its full hash."""
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from bench_pairs import export_tree

    with tempfile.TemporaryDirectory(prefix="byte-table-base-") as tmp:
        base = Path(tmp)
        sha = export_tree(rev, base)
        proc = subprocess.run(
            [sys.executable, __file__, "--src", str(base / "src"), *commands],
            cwd=base, check=True, stdout=subprocess.PIPE, text=True)
    return sha, json.loads(proc.stdout)


def short(digest: str | None) -> str:
    return (digest or "none")[:16]


def print_table(runs: list[dict]) -> None:
    for r in runs:
        print(f"{r['exit']}  {short(r['payload']):<16}  {short(r['result']):<16}  "
              f"{r['format']:<4}  t{r['threads']}  {r['command']}")
        for line in r["stderr"].splitlines():
            print("    " + line)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("commands", nargs="*", default=COMMANDS,
                    help="command lines to run in place of the fixed list")
    ap.add_argument("--base", help="revision to compare with (the parent commit)")
    ap.add_argument("--src", type=Path,
                    help="import liesig from this directory and print the runs as JSON "
                         "(how the base side runs)")
    args = ap.parse_args(argv)

    if args.src:
        print(json.dumps(run_all(args.commands, args.src)))
        return 0
    runs = run_all(args.commands, ROOT / "src")
    print_table(runs)
    if not args.base:
        return 0
    sha, base_runs = run_base(args.base, args.commands)
    differ, config_only = [], []
    for b, r in zip(base_runs, runs):
        if any(b[k] != r[k] for k in ("exit", "result", "stderr")):
            differ.append((b, r))
        elif b["payload"] != r["payload"]:
            config_only.append((b, r))
    for label, key, listed in (("in result", "result", differ),
                               ("in config only", "payload", config_only)):
        print(f"\n{len(listed)} of {len(runs)} runs differ {label} from {sha[:12]}")
        for b, r in listed:
            print(f"  {r['command']} --format {r['format']} --threads {r['threads']}: "
                  f"exit {b['exit']} -> {r['exit']}, {key} {short(b[key])} -> {short(r[key])}"
                  + (", stderr differs" if b["stderr"] != r["stderr"] else ""))
    return 1 if differ or config_only else 0


if __name__ == "__main__":
    sys.exit(main())
