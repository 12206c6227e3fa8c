"""Command line driver.

Subcommands:

  average   -- average signature of a group (closed_form | quadrature |
               monte_carlo | product_shuffle)
  spectrum  -- rescaled trace spectrum (closed_form | quadrature | monte_carlo)
  recover   -- full recovery pipeline: spectrum -> diameter -> ball volumes
               -> dimension / volume / scalar curvature
  verify    -- run the acceptance checks and print a pass/fail table

Outputs are JSON (default) or CSV, written to stdout or --output.  Every
output embeds the full effective configuration, so seeded runs are
reproducible byte for byte regardless of --threads.  The environment
variable LIESIG_OUTPUT_DIR redirects relative --output paths (and nothing
else).  JSON is the text of json.dumps(payload, sort_keys=True, indent=2),
with tensor levels formatted from their arrays, each distinct value once;
a regular --output file is replaced only when complete.

CSV column layouts:
  average:  kind,level,index,value   (kind: coeff | stderr_level)
  spectrum: kind,k,value             (kind: rtr | stderr)
  recover:  kind,index,x,value       (kind: F_table | diameter_raw)
Comment lines starting with '#' carry the provenance key=value pairs.

Exit codes: 0 success, 2 configuration error, 3 numerical failure (fit
failures still write their diagnostic payload).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, asdict, fields
from pathlib import Path

import numpy as np

from .average import (
    average_closed_form,
    average_monte_carlo,
    average_product,
    average_quadrature,
)
from .groups import parse_group
from .recovery import AmbiguousDimension, FitFailure, recover
from .spectra import spectrum_closed_form, spectrum_monte_carlo, spectrum_quadrature
from .tensor import BudgetError

__all__ = ["main", "RunConfig"]

DEFAULTS = dict(depth=16, half_depth=8, samples=10**6, nodes=64, seed=0, threads=1)


@dataclass
class RunConfig:
    group: str
    method: str
    depth: int = DEFAULTS["depth"]
    half_depth: int = DEFAULTS["half_depth"]
    samples: int = DEFAULTS["samples"]
    seed: int = DEFAULTS["seed"]
    nodes: int = DEFAULTS["nodes"]
    threads: int = DEFAULTS["threads"]
    scheme: str = "qmc"
    output: str | None = None
    format: str = "json"

    def validate(self):
        if self.samples < 1:
            raise ConfigError("samples must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        if self.format not in ("json", "csv"):
            raise ConfigError("format must be json or csv")
        if self.depth < 0 or self.half_depth < 0:
            raise ConfigError("depths must be non-negative")
        if 2 * self.half_depth > self.depth:
            raise ConfigError("half-depth K must satisfy 2K <= depth")
        if self.nodes < 1:
            raise ConfigError("nodes must be >= 1")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")


class ConfigError(ValueError):
    pass


def _provenance(cfg: RunConfig) -> dict:
    # threads and output location affect execution only, never the numbers,
    # and byte-identical outputs across thread counts are part of the contract
    d = asdict(cfg)
    d.pop("output")
    d.pop("threads")
    return d


# values formatted and written at once, so the text held stays a few MB
_SLICE = 1 << 18


def _value_texts(arr: np.ndarray) -> Iterator[tuple[int, list[str]]]:
    """(start, texts) per slice: the JSON text of each value of a 1-D float64 array.

    Each distinct bit pattern is encoded once, by the stdlib; a tensor level
    holds few of them.  Patterns are compared as integers, so -0.0 and 0.0
    stay apart.  Finite values read as their ``repr``.
    """
    bits = arr.view(np.int64)
    patterns = np.unique(bits)
    texts = np.array([json.dumps(x) for x in patterns.view(np.float64).tolist()], dtype=object)
    for lo in range(0, len(bits), _SLICE):
        yield lo, texts[np.searchsorted(patterns, bits[lo:lo + _SLICE])].tolist()


def _json_pieces(payload) -> Iterator[str]:
    """``json.dumps(payload, sort_keys=True, indent=2)`` and a newline, in pieces.

    The stdlib lays out the payload with a sentinel string in place of each
    nonempty 1-D float64 array (a tensor level), and the array's values are
    spliced in at the indent of the sentinel's line.
    """
    arrays = []

    def sentinel(o):
        if not (isinstance(o, np.ndarray) and o.dtype == np.float64 and o.ndim == 1):
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
        if not len(o):
            return []
        arrays.append(o)
        return f"\0{len(arrays) - 1}\0"

    text = json.dumps(payload, sort_keys=True, indent=2, default=sentinel)
    parts = re.split(r'"\\u0000(\d+)\\u0000"', text)  # text, index, text, ...
    if len(parts) != 2 * len(arrays) + 1:
        # a payload string reads as a sentinel; every array passed the check above
        parts = [json.dumps(payload, sort_keys=True, indent=2, default=np.ndarray.tolist)]
    for head, i in zip(parts[0::2], parts[1::2]):
        indent = "\n" + re.match(" *", head[head.rfind("\n") + 1:]).group()
        sep = "," + indent + "  "
        yield head + "[" + indent + "  "
        for lo, texts in _value_texts(arrays[int(i)]):
            yield (sep if lo else "") + sep.join(texts)
        yield indent + "]"
    yield parts[-1] + "\n"


def _emit(cfg: RunConfig, result: dict, csv_rows: Callable[[], Iterable[list | str]]) -> None:
    """Write the provenance and ``result`` as JSON, or ``csv_rows()`` as CSV.

    ``csv_rows`` is a callable returning an iterable of rows, so the rows
    are built only when CSV is asked for; a string row is lines already
    formatted.  A regular file is written next to ``--output`` and renamed
    onto it once complete, so a failed run leaves no partial document there.
    """
    if cfg.format == "json":
        pieces = _json_pieces({"config": _provenance(cfg), **result})
    else:
        lines = [f"# {k}={v}" for k, v in sorted(_provenance(cfg).items())]
        rows = (row if isinstance(row, str) else ",".join(
            repr(x) if isinstance(x, float) else str(x) for x in row) for row in csv_rows())
        pieces = (line + "\n" for part in (lines, rows) for line in part)
    if not cfg.output:
        sys.stdout.writelines(pieces)
        return
    path = Path(cfg.output)
    if not path.is_absolute():
        path = Path(os.environ.get("LIESIG_OUTPUT_DIR", ".")) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.is_symlink() or path.exists() and not path.is_file():
        # a link (/dev/stdout is one), a pipe or a device is written through, never replaced
        with open(path, "w") as out:
            out.writelines(pieces)
        return
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as out:
            out.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _cmd_average(cfg: RunConfig) -> int:
    model = parse_group(cfg.group)
    if cfg.method == "closed_form":
        res = average_closed_form(model, cfg.depth)
    elif cfg.method == "quadrature":
        res = average_quadrature(model, cfg.depth, cfg.nodes)
    elif cfg.method == "monte_carlo":
        res = average_monte_carlo(model, cfg.depth, cfg.samples, cfg.seed, threads=cfg.threads)
    elif cfg.method == "product_shuffle":
        res = average_product(model, cfg.depth, cfg.nodes)
    else:
        raise ConfigError(f"unknown average method {cfg.method!r}")

    def rows():
        yield ["kind", "level", "index", "value"]
        for k, lv in enumerate(res.tensor.levels):
            for lo, texts in _value_texts(lv):  # repr, as the levels are finite
                yield "\n".join(f"coeff,{k},{i},{x}" for i, x in enumerate(texts, lo))
        if res.stderr_per_level is not None:
            for k, s in enumerate(res.stderr_per_level):
                yield ["stderr_level", k, 0, float(s)]

    _emit(cfg, {"result": res.to_json_dict()}, rows)
    return 0


def _cmd_spectrum(cfg: RunConfig) -> int:
    model = parse_group(cfg.group)
    if cfg.method == "closed_form":
        spec = spectrum_closed_form(model, cfg.half_depth)
    elif cfg.method == "quadrature":
        spec = spectrum_quadrature(model, cfg.half_depth, cfg.nodes)
    elif cfg.method == "monte_carlo":
        spec = spectrum_monte_carlo(model, cfg.half_depth, cfg.samples, cfg.seed, threads=cfg.threads)
    else:
        raise ConfigError(f"unknown spectrum method {cfg.method!r}")

    def rows():
        yield ["kind", "k", "value"]
        for k, v in enumerate(spec.values):
            yield ["rtr", k, float(v)]
        if spec.stderr is not None:
            for k, s in enumerate(spec.stderr):
                yield ["stderr", k, float(s)]

    _emit(cfg, {"result": spec.to_json_dict()}, rows)
    return 0


def _cmd_recover(cfg: RunConfig) -> int:
    model = parse_group(cfg.group)
    try:
        report = recover(model, samples=cfg.samples, seed=cfg.seed, K=cfg.half_depth,
                         threads=cfg.threads, scheme=cfg.scheme)
    except (AmbiguousDimension, FitFailure) as exc:
        _emit(cfg, {"error": str(exc), "result": None},
              lambda: [["kind", "index", "x", "value"], ["error", 0, 0.0, str(exc)]])
        return 3
    _emit(cfg, {"result": report.to_json_dict()}, report.csv_rows)
    return 0


def _cmd_verify(criteria) -> int:
    from .acceptance import run_acceptance

    results = run_acceptance(criteria)
    width = max(len(r.name) for r in results)
    all_ok = True
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        all_ok &= r.passed
        print(f"[{mark}] {r.name:<{width}}  ({r.seconds:6.1f}s)  {r.detail}")
    print("verify:", "all criteria passed" if all_ok else "FAILURES present")
    return 0 if all_ok else 3


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="liesig", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, methods=None):
        sp.add_argument("--group", required=True,
                        help="circle | su2 | torus:<k> | product:<a>,<b>,...")
        if methods:
            sp.add_argument("--method", default=methods[0], choices=methods)
        sp.add_argument("--depth", type=int, default=None,
                        help=f"tensor truncation depth N (default {DEFAULTS['depth']})")
        sp.add_argument("--half-depth", type=int, default=None,
                        help=f"spectrum half-depth K, 2K <= N (default {DEFAULTS['half_depth']})")
        sp.add_argument("--samples", type=int, default=DEFAULTS["samples"])
        sp.add_argument("--seed", type=int, default=DEFAULTS["seed"])
        sp.add_argument("--nodes", type=int, default=DEFAULTS["nodes"])
        sp.add_argument("--threads", type=int, default=DEFAULTS["threads"])
        sp.add_argument("--scheme", default="qmc", choices=["qmc", "iid"],
                        help="sampling scheme for the recovery CDF")
        sp.add_argument("--output", default=None)
        sp.add_argument("--format", default="json", choices=["json", "csv"])

    common(sub.add_parser("average", help="average signature tensor"),
           ["closed_form", "quadrature", "monte_carlo", "product_shuffle"])
    common(sub.add_parser("spectrum", help="rescaled trace spectrum"),
           ["closed_form", "quadrature", "monte_carlo"])
    common(sub.add_parser("recover", help="recover geometric invariants"))
    v = sub.add_parser("verify", help="run the acceptance suite")
    v.add_argument("criteria", nargs="*", type=int,
                   help="criterion numbers to run (default: all)")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify":
        return _cmd_verify(args.criteria or None)
    # defaults adapt so 2K <= N holds unless both were forced by hand
    depth, half_depth = args.depth, args.half_depth
    if depth is None:
        depth = DEFAULTS["depth"] if half_depth is None else max(DEFAULTS["depth"], 2 * half_depth)
    if half_depth is None:
        half_depth = min(DEFAULTS["half_depth"], depth // 2)
    # the parser's destinations are named after RunConfig's fields; recover has no --method
    given = {f.name: getattr(args, f.name) for f in fields(RunConfig) if hasattr(args, f.name)}
    cfg = RunConfig(**{"method": "monte_carlo", **given, "depth": depth, "half_depth": half_depth})
    commands = {"average": _cmd_average, "spectrum": _cmd_spectrum, "recover": _cmd_recover}
    try:
        cfg.validate()
        return commands[args.command](cfg)
    except (ConfigError, BudgetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
