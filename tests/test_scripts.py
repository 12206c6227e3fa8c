"""The experiment scripts run end to end at small sizes."""

import re
import runpy
import sys
from pathlib import Path

from liesig import lk_norm, parse_group, spectrum_quadrature

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, args, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [name] + args)
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
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
