"""The experiment scripts run end to end at small sizes."""

import hashlib
import importlib.util
import json
import os
import re
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from liesig import SU2Group, lk_norm, parse_group, recover, spectrum_quadrature
from liesig.cli import main

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def run_script(name, args, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [name] + args)
    monkeypatch.setattr(sys, "path", list(sys.path))
    try:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    except SystemExit as exc:
        assert not exc.code
    return capsys.readouterr().out


def test_spectra_table(monkeypatch, capsys):
    out = run_script("spectra_table.py", ["4", "20000", "0"], monkeypatch, capsys)
    for name in ("circle", "su2", "torus:2", "product:circle,su2"):
        assert f"== {name} " in out
        quad = spectrum_quadrature(parse_group(name), 4)
        norms = ", ".join(f"{lk_norm(quad, k):.6f}" for k in range(1, 5))
        assert f"L^k norms of d(e,g)^2, k=1..4: {norms}" in out


def test_recovery_demo(monkeypatch, capsys):
    out = run_script("recovery_demo.py", ["200000", "7"], monkeypatch, capsys)
    dims = [int(d) for d in re.findall(r"dimension:\s+(\d+)", out)]
    assert dims == [1, 3, 2, 4]
    assert out.count("F(R) table:") == 4


BYTE_TABLE_COMMANDS = [
    "spectrum --group circle --method closed_form --half-depth 4",
    "average --group su2 --method product_shuffle --depth 4",
]


def test_byte_table(monkeypatch, capsys, tmp_path):
    out = run_script("byte_table.py", BYTE_TABLE_COMMANDS, monkeypatch, capsys)
    ok, refused = BYTE_TABLE_COMMANDS
    expected = []
    for fmt in ("json", "csv"):
        main(ok.split() + ["--format", fmt, "--output", str(tmp_path / fmt)])
        text = (tmp_path / fmt).read_text()
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        # the result hash leaves out the provenance: config in JSON, "# " lines in CSV
        if fmt == "json":
            text = json.dumps({k: v for k, v in json.loads(text).items() if k != "config"},
                              sort_keys=True, indent=2) + "\n"
        else:
            text = "".join(l for l in text.splitlines(True) if not l.startswith("# "))
        result = hashlib.sha256(text.encode()).hexdigest()[:16]
        expected += [f"0  {digest}  {result}  {fmt:<4}  t{t}  {ok}" for t in (1, 2)]
    for fmt in ("json", "csv"):
        for t in (1, 2):
            expected += [f"2  none              none              {fmt:<4}  t{t}  {refused}",
                         "    error: product_shuffle needs a product group"]
    assert out.splitlines() == expected


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="--base needs a git checkout")
def test_byte_table_against_base(tmp_path):
    # this checkout's scripts run in an export of HEAD against HEAD, so the
    # outcome does not depend on uncommitted changes to src
    runpy.run_path(str(SCRIPTS / "bench_pairs.py"))["export_tree"]("HEAD", tmp_path)
    for name in ("byte_table.py", "bench_pairs.py"):
        shutil.copy(SCRIPTS / name, tmp_path / "scripts" / name)
    git_dir = subprocess.run(["git", "rev-parse", "--absolute-git-dir"], cwd=ROOT, check=True,
                             stdout=subprocess.PIPE, text=True).stdout.strip()
    proc = subprocess.run([sys.executable, "scripts/byte_table.py", *BYTE_TABLE_COMMANDS, "--base", "HEAD"],
                          cwd=tmp_path, env={**os.environ, "GIT_DIR": git_dir},
                          stdout=subprocess.PIPE, text=True)
    out = proc.stdout
    assert proc.returncode == 0, out
    assert re.search(r"^0 of 8 runs differ in result from [0-9a-f]{12}$", out, re.M)
    assert re.search(r"^0 of 8 runs differ in config only from [0-9a-f]{12}$", out, re.M)


def test_seed_scan_matches_recover_and_perfbench_seeds(monkeypatch, capsys):
    out = run_script("seed_scan.py", ["--seeds", "2", "--samples", "200000"], monkeypatch, capsys)
    scan = runpy.run_path(str(SCRIPTS / "seed_scan.py"))
    S = [recover(SU2Group(), 200000, seed=scan["library_seed"](s)).scalar_curvature for s in (0, 1)]
    bad = [f"{s} (S = {x:.3f})" for s, x in enumerate(S) if not abs(x - 6.0) <= 0.9]
    listed = ", ".join(bad) or "none"
    assert out.splitlines()[0] == f"this checkout: {len(bad)} of 2 seeds fail |S - 6| <= 0.9: {listed}"
    # the library seeds are those of perfbench's recover-su2 workload
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    assert [scan["library_seed"](s) for s in (0, 42, 119)] == [workloads._seeds(s, 1)[0] for s in (0, 42, 119)]


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="--base needs a git checkout")
def test_seed_scan_against_base(tmp_path):
    # as test_byte_table_against_base: HEAD's tree with this checkout's scripts
    runpy.run_path(str(SCRIPTS / "bench_pairs.py"))["export_tree"]("HEAD", tmp_path)
    for name in ("seed_scan.py", "bench_pairs.py"):
        shutil.copy(SCRIPTS / name, tmp_path / "scripts" / name)
    git_dir = subprocess.run(["git", "rev-parse", "--absolute-git-dir"], cwd=ROOT, check=True,
                             stdout=subprocess.PIPE, text=True).stdout.strip()
    proc = subprocess.run([sys.executable, "scripts/seed_scan.py", "--seeds", "2", "--samples", "100000",
                           "--base", "HEAD"],
                          cwd=tmp_path, env={**os.environ, "GIT_DIR": git_dir},
                          stdout=subprocess.PIPE, text=True)
    out = proc.stdout
    assert proc.returncode == 0, out
    assert re.search(r"^0 of 2 seeds differ in n, V, S or F from [0-9a-f]{12}$", out, re.M)
