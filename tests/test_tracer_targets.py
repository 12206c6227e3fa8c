"""The benchmark tracer (perfbench/tracer.py) must resolve every target.

The tracer wraps liesig functions by the names it lists in ``TARGETS``; a
rename or a move in the library would otherwise break ``--trace 1`` with no
failing test.  Moved functions must also stay wrapped where they are
called, or their per-layer spans silently read zero.
"""

import importlib.util
import re
import sys
from pathlib import Path

import liesig
import liesig.cli  # noqa: F401  (the tracer wraps cli.main)
from liesig.average import average_quadrature
from liesig.groups import SU2Group
from liesig.spectra import spectrum_quadrature

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up there
    spec.loader.exec_module(mod)
    return mod


def owner_of(path):
    obj = liesig
    for part in path.split(".")[1:]:
        obj = getattr(obj, part)
    return obj


def test_tracer_installs_and_uninstalls_every_target():
    tracer = load_tracer()
    before = {(path, attr): getattr(owner_of(path), attr) for _, path, attr, _ in tracer.TARGETS}
    t = tracer.Tracer()
    t.install(liesig)
    try:
        for _, path, attr, _ in tracer.TARGETS:
            assert getattr(owner_of(path), attr).__wrapped__ is before[(path, attr)]
        average_quadrature(SU2Group(), 4)
        spectrum_quadrature(SU2Group(), 3)
    finally:
        t.uninstall()
    for (path, attr), fn in before.items():
        assert getattr(owner_of(path), attr) is fn
    names = {s.name for s in t.spans}
    assert {
        "average.su2_radial_moments",
        "average.sphere_moment_level",
        "spectra.su2_radial_integrals_mp",
    } <= names


def test_benchmark_library_calls_resolve():
    # the benchmark's jobs call liesig.<name> directly, and no other test runs them
    names = set(re.findall(r"\bliesig\.([A-Za-z_]\w*)", (PERFBENCH / "workloads.py").read_text()))
    used = {"SampledPath", "path_signature_numeric", "spectrum_quadrature", "ball_volume_from_moments"}
    assert used <= names
    assert [name for name in sorted(names) if not hasattr(liesig, name)] == []
