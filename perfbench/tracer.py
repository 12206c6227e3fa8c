"""Spans around liesig's layers, recorded from outside the library.

The tracer replaces a public function or method at every name its callers
look it up by (a module global, or the method on its class) with a wrapper
that records one span per call: name, start, end, parent span, thread and
job id.  Spans are kept in memory; ``summarize`` turns them into per-layer
totals.  Nothing under ``src/`` is edited: installing and removing the
wrappers only rebinds names, so outputs stay byte-identical.

Parents come from a per-thread stack, so a span's children always ran on
its own thread.  Self time is duration minus the children on that thread:
sampler spans on pool workers have no parent and are never charged to the
caller that waits for them.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    job: str | None
    work: float  # layer-specific count (draws, coefficients), 0 if none

    def to_json(self) -> list:
        return [self.id, self.name, self.start, self.end, self.parent, self.thread, self.job, self.work]


def _rows(result) -> float:
    return float(result.shape[0])


def _coeffs(result) -> float:
    return float(sum(lv.size for lv in result.tensor.levels))


# (span name, owner path, attribute, work counter).  Module-level functions
# are rebound in every liesig module that holds them; methods on each class.
TARGETS = [
    ("cli.main", "liesig.cli", "main", None),
    ("groups.sample_log_batch", "liesig.groups.CircleGroup", "sample_log_batch", _rows),
    ("groups.sample_log_batch", "liesig.groups.SU2Group", "sample_log_batch", _rows),
    ("groups.sample_log_batch", "liesig.groups.ProductGroup", "sample_log_batch", _rows),
    ("groups.distance_from_uniforms", "liesig.groups.CircleGroup", "distance_from_uniforms", _rows),
    ("groups.distance_from_uniforms", "liesig.groups.SU2Group", "distance_from_uniforms", _rows),
    ("groups.distance_from_uniforms", "liesig.groups.ProductGroup", "distance_from_uniforms", _rows),
    ("average.average_closed_form", "liesig.average", "average_closed_form", _coeffs),
    ("average.average_quadrature", "liesig.average", "average_quadrature", _coeffs),
    ("average.average_monte_carlo", "liesig.average", "average_monte_carlo", _coeffs),
    ("average.product_average_shuffle", "liesig.average", "product_average_shuffle", _coeffs),
    ("average.su2_radial_moments", "liesig.average", "su2_radial_moments", None),
    ("average.sphere_moment_level", "liesig.average", "sphere_moment_level", None),
    ("tensor.shuffle_levels", "liesig.tensor", "shuffle_levels", None),
    ("tensor.concat_product", "liesig.tensor", "concat_product", None),
    ("tensor.exp_tensor", "liesig.tensor", "exp_tensor", None),
    ("paths.path_signature_numeric", "liesig.paths", "path_signature_numeric", None),
    ("paths.chord_increments", "liesig.paths", "chord_increments", None),
    ("spectra.spectrum_closed_form", "liesig.spectra", "spectrum_closed_form", None),
    ("spectra.spectrum_quadrature", "liesig.spectra", "spectrum_quadrature", None),
    ("spectra.spectrum_monte_carlo", "liesig.spectra", "spectrum_monte_carlo", None),
    ("spectra.su2_radial_integrals_mp", "liesig.spectra", "su2_radial_integrals_mp", None),
    ("recovery.recover", "liesig.recovery", "recover", None),
    ("recovery.diameter_estimate", "liesig.recovery", "diameter_estimate", None),
    ("recovery.ball_volume_from_moments", "liesig.recovery", "ball_volume_from_moments", None),
    ("recovery.RadialCdfEstimator", "liesig.recovery.RadialCdfEstimator", "__init__", None),
    ("recovery.small_ball_recovery", "liesig.recovery", "small_ball_recovery", None),
]

SPAN_NAMES = sorted({t[0] for t in TARGETS})


def _resolve(liesig, path: str):
    obj = liesig
    for part in path.split(".")[1:]:
        obj = getattr(obj, part)
    return obj


def _modules(liesig) -> list:
    names = ["cli", "groups", "average", "tensor", "paths", "spectra", "recovery"]
    return [liesig] + [getattr(liesig, n) for n in names if hasattr(liesig, n)]


class Tracer:
    """Install with ``install(liesig)``; always ``uninstall()`` afterwards."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job: str | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, work):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                w = work(result) if (work is not None and result is not None) else 0.0
                tracer.spans.append(
                    Span(sid, name, start, end, parent, threading.get_ident(), tracer.job, w)
                )

        return traced

    def _rebind(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, liesig) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = _modules(liesig)
        for name, path, attr, work in TARGETS:
            owner = _resolve(liesig, path)
            if isinstance(owner, type):
                self._rebind(owner, attr, self._wrap(owner.__dict__[attr], name, work))
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrap(fn, name, work)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._rebind(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)


@dataclass
class LayerStats:
    s: float = 0.0  # busy time of outermost spans of this name, summed over threads
    self_s: float = 0.0  # busy time minus child spans on the same thread
    calls: int = 0
    work: float = 0.0  # summed over outermost spans, so nesting is not double counted


def summarize(spans: list[Span]) -> dict[str, LayerStats]:
    by_id = {s.id: s for s in spans}
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    stats = {name: LayerStats() for name in SPAN_NAMES}
    for s in spans:
        st = stats[s.name]
        dur = s.end - s.start
        st.calls += 1
        st.self_s += dur - child[s.id]
        p = s.parent
        while p is not None and by_id[p].name != s.name:
            p = by_id[p].parent
        if p is None:
            st.s += dur
            st.work += s.work
    return stats


def busy_fraction(spans: list[Span], outer: Span, threads: int) -> float:
    """Share of ``threads`` x the wall time of ``outer`` that top-level spans
    on other threads (pool workers) were busy inside its interval."""
    wall = outer.end - outer.start
    busy = sum(
        min(s.end, outer.end) - max(s.start, outer.start)
        for s in spans
        if s.parent is None and s.thread != outer.thread and s.end > outer.start and s.start < outer.end
    )
    return busy / (threads * wall) if wall > 0 else 0.0
