"""Command line driver.

Subcommands:

  average   -- average signature of a group (closed_form | quadrature |
               monte_carlo | product_shuffle)
  spectrum  -- rescaled trace spectrum (closed_form | quadrature | monte_carlo)
  recover   -- full recovery pipeline: spectrum -> diameter -> ball volumes
               -> dimension / volume / scalar curvature
  verify    -- run the acceptance checks and print a pass/fail table

Each subcommand takes only the flags it reads.  Outputs are JSON (default)
or CSV, written to stdout or --output.  Every output embeds the flags its
command reads, all but --output and --threads, so seeded runs are
reproducible byte for byte regardless of --threads.  Quadrature uses 64
Gauss-Legendre nodes and recover the qmc radial CDF.  JSON is the text of
json.dumps(payload, sort_keys=True, indent=2), with tensor levels
formatted from the level's monomial values; a regular --output file is
replaced only when complete.

CSV column layouts:
  average:  kind,level,index,value   (kind: coeff | stderr_level)
  spectrum: kind,k,value             (kind: rtr | stderr)
  recover:  kind,index,x,value       (kind: F_table | diameter_raw)
Comment lines starting with '#' carry the provenance key=value pairs.

Exit codes: 0 success, 1 stdout closed before the output was written, 2
configuration error or unwritable --output, 3 numerical failure (fit
failures still write their diagnostic payload).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections.abc import Callable, Iterable, Iterator
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
from .tensor import SymmetricLevel, expand_words, monomial_levels

__all__ = ["main", "build_parser"]

# flag -> argparse keywords; each default is stated here and nowhere else
_FLAGS = {
    "group": dict(required=True, help="circle | su2 | torus:<k> | product:<a>,<b>,..."),
    "depth": dict(type=int, default=16, help="tensor truncation depth N (default %(default)s)"),
    "half_depth": dict(type=int, default=8, help="spectrum half-depth K (default %(default)s)"),
    "samples": dict(type=int, default=10**6),
    "seed": dict(type=int, default=0),
    "threads": dict(type=int, default=1),
    "output": dict(default=None),
    "format": dict(default="json", choices=["json", "csv"]),
}
# least value of each integer flag and the error a smaller one gets, in checking order
_LEAST = {
    "samples": (1, "samples must be >= 1"),
    "seed": (0, "seed must be a non-negative integer"),
    "depth": (0, "depths must be non-negative"),
    "half_depth": (0, "depths must be non-negative"),
    "threads": (1, "threads must be >= 1"),
}


def _provenance(args: argparse.Namespace) -> dict:
    # threads and output location affect execution only, never the numbers,
    # and byte-identical outputs across thread counts are part of the contract
    return {k: v for k, v in vars(args).items() if k not in ("command", "output", "threads")}


# words per block at most: the text of a block of words is joined once
_BLOCK = 1 << 12


def _level_blocks(level: SymmetricLevel) -> tuple[np.ndarray, Iterator[tuple[int, np.ndarray]]]:
    """(texts, runs): a level's words in blocks, as the JSON text of their
    monomial values, each encoded once by the stdlib (finite ones read as
    their ``repr``).

    A block is the n^r <= ``_BLOCK`` words after one word u of level k - r.
    Its monomials depend only on u's monomial, so ``texts`` has a row per
    lower monomial; ``runs`` yields (first word, rows) for the lower words
    in order, a few at a time.
    """
    mono, k = level.monomials, level.k
    n = mono[0].table.shape[1]
    r = max((r for r in range(k + 1) if 1 < n**r <= _BLOCK), default=0)
    rows = np.arange(len(mono[k - r].last))[:, None]
    for lvl in mono[k - r + 1 : k + 1]:
        rows = lvl.table[rows].reshape(len(rows), -1)
    texts = np.array([json.dumps(x) for x in level.values.tolist()], dtype=object)[rows]
    lower = expand_words(mono, k - r, np.arange(len(rows)))
    step = max(1, _BLOCK // rows.shape[1])
    return texts, ((lo * rows.shape[1], lower[lo:lo + step]) for lo in range(0, len(lower), step))


def _json_pieces(payload) -> Iterator[str]:
    """``json.dumps(payload, sort_keys=True, indent=2)`` and a newline, in pieces.

    The stdlib lays out the payload with a sentinel string in place of each
    tensor level and each nonempty 1-D float64 array (level 1 over R^len,
    each entry its own monomial), and the level's words are spliced in at
    the indent of the sentinel's line, each block's text joined once.
    """
    levels = []

    def sentinel(o):
        if isinstance(o, np.ndarray) and o.dtype == np.float64 and o.ndim == 1:
            if not len(o):
                return []
            o = SymmetricLevel(monomial_levels(len(o), 1), 1, o)
        if not isinstance(o, SymmetricLevel):
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
        levels.append(o)
        return f"\0{len(levels) - 1}\0"

    text = json.dumps(payload, sort_keys=True, indent=2, default=sentinel)
    parts = re.split(r'"\\u0000(\d+)\\u0000"', text)  # text, index, text, ...
    if len(parts) != 2 * len(levels) + 1:
        # a payload string reads as a sentinel; every level passed the check above
        parts = [json.dumps(payload, sort_keys=True, indent=2, default=lambda o: (
            o.words() if isinstance(o, SymmetricLevel) else o).tolist())]
    for head, i in zip(parts[0::2], parts[1::2]):
        indent = "\n" + re.match(" *", head[head.rfind("\n") + 1:]).group()
        sep = "," + indent + "  "
        yield head + "[" + indent + "  "
        texts, runs = _level_blocks(levels[int(i)])
        blocks = [sep.join(row) for row in texts.tolist()]
        for lo, run in runs:
            yield (sep if lo else "") + sep.join([blocks[u] for u in run.tolist()])
        yield indent + "]"
    yield parts[-1] + "\n"


def _emit(args: argparse.Namespace, result: dict,
          csv_rows: Callable[[], Iterable[list | str]]) -> None:
    """Write the provenance and ``result`` as JSON, or ``csv_rows()`` as CSV.

    ``csv_rows`` is a callable returning an iterable of rows, so the rows
    are built only when CSV is asked for; a string row is lines already
    formatted.  A regular file is written next to ``--output`` and renamed
    onto it once complete, so a failed run leaves no partial document there.
    """
    if args.format == "json":
        pieces = _json_pieces({"config": _provenance(args), **result})
    else:
        lines = [f"# {k}={v}" for k, v in sorted(_provenance(args).items())]
        rows = (row if isinstance(row, str) else ",".join(
            repr(x) if isinstance(x, float) else str(x) for x in row) for row in csv_rows())
        pieces = (line + "\n" for part in (lines, rows) for line in part)
    if not args.output:
        sys.stdout.writelines(pieces)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return
    path = Path(args.output)
    try:
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
    except BrokenPipeError:  # a pipe written through (/dev/stdout) lost its reader
        raise
    except OSError as exc:  # an unwritable --output is a configuration error
        raise ValueError(f"cannot write --output: {exc}") from exc


# "i," for i < 1000, and the last three digits of larger indices, zero-padded
_INDEX_LOW = ([f"{i}," for i in range(1000)], [f"{i:03d}," for i in range(1000)])


def _coeff_lines(k: int, lo: int, texts: list[str]) -> str:
    """CSV lines ``coeff,k,i,x`` for x in ``texts`` and i = lo, lo + 1, ....

    Nothing is formatted per row: i is written as i // 1000, formatted once
    per run of 1000 indices, followed by its last digits from ``_INDEX_LOW``.
    """
    hi = lo + len(texts)
    heads, lows = [], []
    for run in range(lo // 1000, (hi + 999) // 1000):
        a, b = max(lo - 1000 * run, 0), min(hi - 1000 * run, 1000)
        heads += [f"\ncoeff,{k},{run or ''}"] * (b - a)
        lows += _INDEX_LOW[run > 0][a:b]
    pieces = [None] * (3 * len(texts))
    pieces[0::3], pieces[1::3], pieces[2::3] = heads, lows, texts
    return "".join(pieces)[1:]


# method -> builder from the group model and the parsed flags
_AVERAGE_METHODS = {
    "closed_form": lambda model, a: average_closed_form(model, a.depth),
    "quadrature": lambda model, a: average_quadrature(model, a.depth),
    "monte_carlo": lambda model, a: average_monte_carlo(model, a.depth, a.samples, a.seed,
                                                        threads=a.threads),
    "product_shuffle": lambda model, a: average_product(model, a.depth),
}
_SPECTRUM_METHODS = {
    "closed_form": lambda model, a: spectrum_closed_form(model, a.half_depth),
    "quadrature": lambda model, a: spectrum_quadrature(model, a.half_depth),
    "monte_carlo": lambda model, a: spectrum_monte_carlo(model, a.half_depth, a.samples, a.seed,
                                                         threads=a.threads),
}


def _cmd_average(args: argparse.Namespace) -> int:
    res = _AVERAGE_METHODS[args.method](parse_group(args.group), args)
    result = res.to_json_dict()

    def rows():
        yield ["kind", "level", "index", "value"]
        for k, level in enumerate(result["levels"]):
            texts, runs = _level_blocks(level)  # repr, as the levels are finite
            for lo, run in runs:
                yield _coeff_lines(k, lo, texts[run].ravel().tolist())
        if res.stderr_per_level is not None:
            for k, s in enumerate(res.stderr_per_level):
                yield ["stderr_level", k, 0, float(s)]

    _emit(args, {"result": result}, rows)
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    spec = _SPECTRUM_METHODS[args.method](parse_group(args.group), args)

    def rows():
        yield ["kind", "k", "value"]
        for k, v in enumerate(spec.values):
            yield ["rtr", k, float(v)]
        if spec.stderr is not None:
            for k, s in enumerate(spec.stderr):
                yield ["stderr", k, float(s)]

    _emit(args, {"result": spec.to_json_dict()}, rows)
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    model = parse_group(args.group)
    try:
        report = recover(model, samples=args.samples, seed=args.seed, K=args.half_depth,
                         threads=args.threads)
    except (AmbiguousDimension, FitFailure) as exc:
        _emit(args, {"error": str(exc), "result": None},
              lambda: [["kind", "index", "x", "value"], ["error", 0, 0.0, str(exc)]])
        return 3
    _emit(args, {"result": report.to_json_dict()}, report.csv_rows)
    return 0


# command -> (help, handler, method table, the flags it takes); the output's
# config holds those flags but --output and --threads
_COMMANDS = {
    "average": ("average signature tensor", _cmd_average, _AVERAGE_METHODS,
                "group method depth samples seed threads output format"),
    "spectrum": ("rescaled trace spectrum", _cmd_spectrum, _SPECTRUM_METHODS,
                 "group method half_depth samples seed threads output format"),
    "recover": ("recover geometric invariants", _cmd_recover, None,
                "group half_depth samples seed threads output format"),
}


def _cmd_verify(criteria) -> int:
    from .acceptance import CRITERIA, run_acceptance

    numbers = [num for num, _, _ in CRITERIA]
    for num in criteria or ():
        if num not in numbers:
            raise ValueError(f"unknown criterion {num}; criteria are {numbers[0]}-{numbers[-1]}")
    results = run_acceptance(criteria)
    width = max(len(r.name) for r in results)
    all_ok = True
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        all_ok &= r.passed
        print(f"[{mark}] {r.name:<{width}}  ({r.seconds:6.1f}s)  {r.detail}")
    print("verify:", "all criteria passed" if all_ok else "FAILURES present")
    return 0 if all_ok else 3


class _Subcommand(argparse.ArgumentParser):
    """Refuses a flag its command does not take with that command's usage line."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error("unrecognized arguments: " + " ".join(extra))
        return namespace, extra


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="liesig", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    for name, (help_, _, methods, flags) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_)
        for flag in flags.split():
            kwargs = (dict(default=next(iter(methods)), choices=list(methods))
                      if flag == "method" else _FLAGS[flag])
            sp.add_argument("--" + flag.replace("_", "-"), **kwargs)
    v = sub.add_parser("verify", help="run the acceptance suite")
    v.add_argument("criteria", nargs="*", type=int,
                   help="criterion numbers to run (default: all)")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args.criteria or None)
        for flag, (least, message) in _LEAST.items():
            if getattr(args, flag, least) < least:
                raise ValueError(message)
        return _COMMANDS[args.command][1](args)
    except ValueError as exc:  # BudgetError, the library's refusals and --output among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # stdout closed early, as by `| head`
        # the unwritten rest goes to devnull, so the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
