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
else).

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
import sys
from collections.abc import Callable, Iterable
from dataclasses import dataclass, asdict
from pathlib import Path

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


def _json_text(obj) -> str:
    """Exactly ``json.dumps(obj, sort_keys=True, indent=2)``.

    With ``indent`` set the stdlib encodes every value in Python.  Here each
    list of plain scalars (a tensor level holds up to millions of floats)
    goes through the C encoder in one call instead, with the newline and
    indentation folded into its item separator; dicts and nested lists are
    laid out in Python as the stdlib lays them out.
    """
    scalar_types = {float, int, str, bool, type(None)}
    scalar = json.JSONEncoder()
    flat: dict[int, json.JSONEncoder] = {}  # C encoders for flat lists, by depth

    def encode(o, depth: int) -> str:
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            pad = "\n" + "  " * (depth + 1)
            if set(map(type, o)) <= scalar_types:
                if depth not in flat:
                    flat[depth] = json.JSONEncoder(separators=("," + pad, ": "))
                body = flat[depth].encode(o)[1:-1]
            else:
                body = ("," + pad).join(encode(v, depth + 1) for v in o)
            return "[" + pad + body + "\n" + "  " * depth + "]"
        if isinstance(o, dict):
            if not o:
                return "{}"
            pad = "\n" + "  " * (depth + 1)
            items = []
            for key, v in sorted(o.items()):
                if not isinstance(key, str):
                    if key is not None and not isinstance(key, (int, float)):
                        raise TypeError(
                            f"keys must be str, int, float, bool or None, not {type(key).__name__}"
                        )
                    key = scalar.encode(key)  # true, null, 1.5, ... as the stdlib writes them
                items.append(scalar.encode(key) + ": " + encode(v, depth + 1))
            return "{" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "}"
        return scalar.encode(o)

    return encode(obj, 0)


def _emit(cfg: RunConfig, payload: dict, csv_rows: Callable[[], Iterable[list]]) -> None:
    """Write the payload as JSON, or ``csv_rows()`` as CSV.

    ``csv_rows`` is a callable returning an iterable of rows, so the rows
    are built only when CSV is asked for.
    """
    if cfg.format == "json":
        text = _json_text(payload) + "\n"
    else:
        lines = [f"# {k}={v}" for k, v in sorted(_provenance(cfg).items())]
        for row in csv_rows():
            lines.append(",".join(repr(x) if isinstance(x, float) else str(x) for x in row))
        text = "\n".join(lines) + "\n"
    if cfg.output:
        base = Path(os.environ.get("LIESIG_OUTPUT_DIR", "."))
        path = Path(cfg.output)
        if not path.is_absolute():
            path = base / path
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    else:
        sys.stdout.write(text)


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
    payload = {"config": _provenance(cfg), "result": res.to_json_dict()}

    def rows():
        yield ["kind", "level", "index", "value"]
        for k, lv in enumerate(res.tensor.levels):
            for i, val in enumerate(lv):
                yield ["coeff", k, i, float(val)]
        if res.stderr_per_level is not None:
            for k, s in enumerate(res.stderr_per_level):
                yield ["stderr_level", k, 0, float(s)]

    _emit(cfg, payload, rows)
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
    payload = {"config": _provenance(cfg), "result": spec.to_json_dict()}

    def rows():
        yield ["kind", "k", "value"]
        for k, v in enumerate(spec.values):
            yield ["rtr", k, float(v)]
        if spec.stderr is not None:
            for k, s in enumerate(spec.stderr):
                yield ["stderr", k, float(s)]

    _emit(cfg, payload, rows)
    return 0


def _cmd_recover(cfg: RunConfig) -> int:
    model = parse_group(cfg.group)
    try:
        report = recover(
            model,
            samples=cfg.samples,
            seed=cfg.seed,
            K=cfg.half_depth,
            threads=cfg.threads,
            scheme=cfg.scheme,
        )
    except (AmbiguousDimension, FitFailure) as exc:
        payload = {"config": _provenance(cfg), "error": str(exc), "result": None}
        _emit(cfg, payload, lambda: [["kind", "index", "x", "value"], ["error", 0, 0.0, str(exc)]])
        return 3
    payload = {"config": _provenance(cfg), "result": report.to_json_dict()}
    _emit(cfg, payload, report.csv_rows)
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
    depth = args.depth
    half_depth = args.half_depth
    if depth is None:
        depth = DEFAULTS["depth"] if half_depth is None else max(DEFAULTS["depth"], 2 * half_depth)
    if half_depth is None:
        half_depth = min(DEFAULTS["half_depth"], depth // 2)
    cfg = RunConfig(
        group=args.group,
        method=getattr(args, "method", "monte_carlo"),
        depth=depth,
        half_depth=half_depth,
        samples=args.samples,
        seed=args.seed,
        nodes=args.nodes,
        threads=args.threads,
        scheme=args.scheme,
        output=args.output,
        format=args.format,
    )
    try:
        cfg.validate()
        if args.command == "average":
            return _cmd_average(cfg)
        if args.command == "spectrum":
            return _cmd_spectrum(cfg)
        if args.command == "recover":
            return _cmd_recover(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, BudgetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
