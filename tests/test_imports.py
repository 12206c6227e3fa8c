"""What a fresh interpreter loads: scipy only where ``verify`` needs it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def python(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter that imports liesig from ``src``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          stdout=subprocess.PIPE, text=True)
    return proc.stdout


SCIPY_LOADED = "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))"


def test_import_loads_no_scipy():
    assert python("import sys, liesig, liesig.cli\n" + SCIPY_LOADED) == "[]\n"


@pytest.mark.parametrize("argv", [
    ["average", "--group", "su2", "--method", "quadrature", "--depth", "6"],
    ["average", "--group", "torus:2", "--method", "monte_carlo", "--depth", "4",
     "--samples", "1000"],
    ["average", "--group", "product:su2,circle", "--method", "product_shuffle", "--depth", "4"],
    ["spectrum", "--group", "circle", "--method", "closed_form", "--half-depth", "8"],
    ["spectrum", "--group", "su2", "--method", "quadrature", "--half-depth", "8"],
    ["spectrum", "--group", "su2", "--method", "monte_carlo", "--half-depth", "4",
     "--samples", "1000"],
    ["recover", "--group", "su2", "--samples", "20000", "--seed", "3"],
])
def test_average_and_spectrum_load_no_scipy(argv, tmp_path):
    argv = argv + ["--output", str(tmp_path / "out.json")]
    out = python(f"import sys, liesig.cli\nassert liesig.cli.main({argv!r}) == 0\n"
                 + SCIPY_LOADED)
    assert out == "[]\n"


# recover's scrambled Sobol points and unit ball volumes are liesig's own
RECOVER = """
import sys
import liesig.cli
from liesig import CircleGroup, recover, unit_ball_volume
recover(CircleGroup(), samples=20000, seed=3, K=8)
[unit_ball_volume(n) for n in (1, 2, 3, 7)]
for group in ("circle", "su2", "product:su2,circle"):
    argv = ["recover", "--group", group, "--samples", "20000", "--seed", "3", "--output", OUT]
    assert liesig.cli.main(argv) == 0
"""


def test_recover_loads_no_scipy(tmp_path):
    out = python(f"OUT = {str(tmp_path / 'out.json')!r}\n" + RECOVER + SCIPY_LOADED)
    assert out == "[]\n"
