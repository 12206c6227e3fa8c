"""What a fresh interpreter loads: scipy only where recover's qmc scheme,
``unit_ball_volume`` and ``verify`` need it."""

import json
import math
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
])
def test_average_and_spectrum_load_no_scipy(argv, tmp_path):
    argv = argv + ["--output", str(tmp_path / "out.json")]
    out = python(f"import sys, liesig.cli\nassert liesig.cli.main({argv!r}) == 0\n"
                 + SCIPY_LOADED)
    assert out == "[]\n"


# the same numbers with scipy loaded first and loaded by liesig on demand
LAZY = """
import json, sys
from liesig import CircleGroup, recover, unit_ball_volume
report = recover(CircleGroup(), samples=20000, seed=3, K=8)
print(json.dumps({"unit_ball_volume": [unit_ball_volume(n).hex() for n in (1, 2, 3, 7)],
                  "recover": report.to_json_dict(),
                  "scipy": sorted(k for k in ("scipy.special", "scipy.stats") if k in sys.modules)},
                 sort_keys=True))
"""


def test_scipy_loaded_on_demand_gives_the_same_numbers():
    lazy = json.loads(python(LAZY))
    eager = json.loads(python("import scipy.special, scipy.stats\n" + LAZY))
    assert lazy["scipy"] == ["scipy.special", "scipy.stats"]
    assert lazy == eager
    assert math.isclose(float.fromhex(lazy["unit_ball_volume"][2]), 4 / 3 * math.pi,
                        rel_tol=1e-15)
