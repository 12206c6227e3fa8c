import hashlib
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import liesig.cli as cli
from liesig.cli import main
from liesig.groups import SU2Group
from liesig.recovery import RecoveryReport

PI = math.pi


def run(argv, tmp_path, name="out"):
    path = tmp_path / f"{name}.dat"
    code = main(argv + ["--output", str(path)])
    return code, path


def test_average_closed_form_json(tmp_path):
    code, path = run(
        ["average", "--group", "circle", "--method", "closed_form", "--depth", "8"], tmp_path
    )
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["config"]["depth"] == 8
    assert payload["config"]["samples"] == 10**6  # defaults echoed for provenance
    assert abs(payload["result"]["levels"][2][0] - PI**2 / 6) < 1e-14


def test_average_torus_product_shuffle(tmp_path):
    code, path = run(
        ["average", "--group", "torus:2", "--method", "product_shuffle", "--depth", "8"],
        tmp_path,
    )
    assert code == 0
    lvl2 = json.loads(path.read_text())["result"]["levels"][2]
    assert abs(lvl2[0] - PI**2 / 6) < 1e-14
    assert abs(lvl2[3] - PI**2 / 6) < 1e-14
    assert lvl2[1] == 0.0


def test_torus_closed_form_and_product_shuffle_agree(tmp_path):
    # both methods fold the same circle averages through the product rule
    levels = {}
    for method in ("closed_form", "product_shuffle"):
        code, path = run(
            ["average", "--group", "torus:3", "--method", method, "--depth", "6"], tmp_path, method
        )
        assert code == 0
        levels[method] = json.loads(path.read_text())["result"]["levels"]
    assert levels["closed_form"] == levels["product_shuffle"]


def test_product_shuffle_refuses_non_product(capsys):
    assert main(["average", "--group", "su2", "--method", "product_shuffle", "--depth", "4"]) == 2
    assert capsys.readouterr().err == "error: product_shuffle needs a product group\n"


def test_average_mc_byte_identical(tmp_path):
    argv = ["average", "--group", "su2", "--method", "monte_carlo", "--depth", "3",
            "--samples", "50000", "--seed", "42"]
    _, p1 = run(argv, tmp_path, "a")
    _, p2 = run(argv, tmp_path, "b")
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_and_json_encode_same_numbers(tmp_path):
    base = ["spectrum", "--group", "su2", "--method", "quadrature", "--half-depth", "6"]
    _, pj = run(base + ["--format", "json"], tmp_path, "j")
    _, pc = run(base + ["--format", "csv"], tmp_path, "c")
    rtr_json = json.loads(pj.read_text())["result"]["rtr"]
    rtr_csv = {}
    for line in pc.read_text().splitlines():
        if line.startswith("#") or line.startswith("kind"):
            continue
        kind, k, value = line.split(",")
        if kind == "rtr":
            rtr_csv[int(k)] = float(value)
    assert [rtr_csv[k] for k in range(7)] == rtr_json


def test_recover_writes_report(tmp_path):
    code, path = run(
        ["recover", "--group", "circle", "--samples", "200000", "--seed", "5",
         "--half-depth", "6"],
        tmp_path,
    )
    assert code == 0
    rep = json.loads(path.read_text())["result"]
    assert rep["dimension"]["rounded"] == 1
    assert abs(rep["volume"] - 2 * PI) / (2 * PI) < 0.05


def test_recover_csv_layout(tmp_path):
    code, path = run(
        ["recover", "--group", "circle", "--samples", "100000", "--seed", "5",
         "--half-depth", "6", "--format", "csv"],
        tmp_path,
    )
    assert code == 0
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "kind,index,x,value"
    kinds = {l.split(",")[0] for l in lines[1:]}
    assert kinds == {"F_table", "diameter_raw"}


def test_config_error_unknown_group(capsys):
    assert main(["average", "--group", "so3", "--method", "closed_form"]) == 2
    assert "error:" in capsys.readouterr().err


def test_config_error_budget(capsys):
    code = main(["average", "--group", "su2", "--method", "quadrature", "--depth", "30"])
    assert code == 2


# the flags each command reads; its output's config holds all but output and threads
COMMAND_FLAGS = {
    "average": {"group", "method", "depth", "samples", "seed", "threads", "output", "format"},
    "spectrum": {"group", "method", "half_depth", "samples", "seed", "threads", "output",
                 "format"},
    "recover": {"group", "half_depth", "samples", "seed", "threads", "output", "format"},
}


def test_config_error_bad_values(capsys):
    bad = {
        "samples": ("0", "samples must be >= 1"),
        "seed": ("-1", "seed must be a non-negative integer"),
        "depth": ("-1", "depths must be non-negative"),
        "half_depth": ("-1", "depths must be non-negative"),
        "threads": ("0", "threads must be >= 1"),
    }
    checked = 0
    for command, flags in COMMAND_FLAGS.items():
        for flag in flags & bad.keys():
            value, message = bad[flag]
            argv = [command, "--group", "circle", "--" + flag.replace("_", "-"), value]
            assert main(argv) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
            checked += 1
    assert checked == 12


@pytest.mark.parametrize("argv", [
    ["average", "--group", "circle", "--depth", "4"],
    ["spectrum", "--group", "circle", "--half-depth", "4"],
    ["recover", "--group", "circle", "--samples", "50000", "--seed", "5", "--half-depth", "6"],
], ids=lambda a: a[0])
def test_config_holds_the_flags_the_command_reads(argv, tmp_path):
    flags = COMMAND_FLAGS[argv[0]]
    assert set(vars(cli.build_parser().parse_args(argv))) == flags | {"command"}
    _, pj = run(argv, tmp_path, "json")
    _, pc = run(argv + ["--format", "csv"], tmp_path, "csv")
    config = json.loads(pj.read_text())["config"]
    assert set(config) == flags - {"output", "threads"}
    comments = [l[2:] for l in pc.read_text().splitlines() if l.startswith("# ")]
    assert comments == [f"{k}={v}" for k, v in sorted(dict(config, format="csv").items())]


# --scheme and --nodes belong to no command and are refused the same way
@pytest.mark.parametrize("argv", [
    ["average", "--group", "circle", "--half-depth", "2"],
    ["average", "--group", "circle", "--scheme", "iid"],
    ["spectrum", "--group", "circle", "--depth", "2"],
    ["spectrum", "--group", "circle", "--scheme", "iid"],
    ["recover", "--group", "circle", "--nodes", "8"],
    ["recover", "--group", "circle", "--depth", "16"],
    ["recover", "--group", "circle", "--method", "monte_carlo"],
], ids=lambda a: a[0] + a[3])
def test_flag_of_another_command_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    # the usage line is the subcommand's, which lists the flags it does take
    assert err.startswith(f"usage: liesig {argv[0]} [-h] --group GROUP")
    assert err.endswith(f"liesig {argv[0]}: error: unrecognized arguments: {argv[3]} {argv[4]}\n")


def test_spectrum_half_depth_needs_no_depth(tmp_path):
    code, path = run(["spectrum", "--group", "circle", "--method", "closed_form",
                      "--half-depth", "300"], tmp_path)
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["config"]["half_depth"] == 300 and "depth" not in payload["config"]
    assert len(payload["result"]["rtr"]) == 301


def test_readme_cli_examples_parse():
    # every documented example and flag-table row names flags the parser takes
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    parser = cli.build_parser()
    examples = [l.split("#")[0].split()[1:] for l in section.split("```")[1].splitlines()
                if l.startswith("liesig ")]
    assert len(examples) >= 6
    for argv in examples:
        parser.parse_args(argv)
    rows = [[c.strip() for c in l.strip("|").split("|")] for l in section.splitlines()
            if l.startswith("| `--")]
    assert len(rows) == 9
    for command, column in (("average", 2), ("spectrum", 3), ("recover", 4)):
        flags = vars(parser.parse_args([command, "--group", "circle"]))
        marked = {row[0].split("`")[1][2:].replace("-", "_") for row in rows if row[column]}
        assert marked == COMMAND_FLAGS[command] == flags.keys() - {"command"}
        for row in rows:
            dest = row[0].split("`")[1][2:].replace("-", "_")
            if row[column] and dest not in ("group", "output"):
                assert row[1].strip("`") == str(flags[dest])


@pytest.mark.parametrize("method,depth,code", [
    ("closed_form", 170, 0),
    ("closed_form", 700, 0),
    ("quadrature", 172, 0),
    ("quadrature", 250, 0),
    ("quadrature", 700, 2),  # E[theta^k] overflows float64
])
def test_circle_average_past_float_factorials(method, depth, code, tmp_path, capsys):
    got, path = run(["average", "--group", "circle", "--method", method, "--depth", str(depth)], tmp_path)
    assert got == code
    if code == 0:
        levels = json.loads(path.read_text())["result"]["levels"]
        assert all(math.isfinite(lv[0]) for lv in levels)
    else:
        err = capsys.readouterr().err
        assert err.startswith("error:") and "overflow" in err


@pytest.mark.parametrize("group,method,K,first", [
    ("circle", "closed_form", 700, 313),
    ("su2", "quadrature", 400, 311),
])
def test_spectrum_overflow_refused(group, method, K, first, capsys):
    code = main(["spectrum", "--group", group, "--method", method, "--half-depth", str(K)])
    assert code == 2
    assert f"error: first non-finite r_2k at k = {first}" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_spectrum_mc_stderr_overflow_refused(fmt, tmp_path, capsys):
    # every r_2k is finite, but the sum of d^4k overflows from k = 162 and
    # its standard error would be NaN
    code, path = run(["spectrum", "--group", "su2", "--method", "monte_carlo",
                      "--half-depth", "200", "--samples", "1000", "--format", fmt], tmp_path)
    assert code == 2
    out = capsys.readouterr()
    assert "error: first non-finite stderr at k = 162" in out.err
    assert "NaN" not in out.out
    assert not path.exists() or "NaN" not in path.read_text()


@pytest.mark.filterwarnings("error")
def test_spectrum_quadrature_refuses_before_exact_moments(monkeypatch, capsys):
    def unreachable(self, K, dps):
        raise AssertionError("exact moments built for an overflowing spectrum")

    monkeypatch.setattr(SU2Group, "exact_radial_moments", unreachable)
    code = main(["spectrum", "--group", "su2", "--method", "quadrature", "--half-depth", "400"])
    assert code == 2
    assert "error: first non-finite r_2k at k = 311" in capsys.readouterr().err


def test_stdout_default(capsys):
    code = main(["spectrum", "--group", "circle", "--method", "closed_form",
                 "--half-depth", "2"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["result"]["rtr"][1] - PI**2 / 3) < 1e-13


def test_verify_subset(capsys):
    code = main(["verify", "1", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("[PASS]") == 2


@pytest.mark.parametrize("criteria,first", [(["99"], 99), (["0", "-1"], 0), (["1", "12"], 12)])
def test_verify_unknown_criterion_refused(criteria, first, capsys):
    code = main(["verify", *criteria])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: unknown criterion {first}; criteria are 1-11\n"


# -- JSON encoder and lazy CSV rows -------------------------------------------


def _json_text(obj) -> str:
    """Exactly ``json.dumps(obj, sort_keys=True, indent=2)``.

    The encoder the CLI used before it wrote levels from their arrays, kept
    as an oracle.  With ``indent`` set the stdlib encodes every value in
    Python.  Here each list of plain scalars goes through the C encoder in
    one call instead, with the newline and indentation folded into its item
    separator; dicts and nested lists are laid out in Python as the stdlib
    lays them out.
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


def _tolisted(o):
    """``o`` with every numpy array turned into a list, as the stdlib can encode it."""
    if isinstance(o, dict):
        return {k: _tolisted(v) for k, v in o.items()}
    if isinstance(o, (list, tuple)):
        return [_tolisted(v) for v in o]
    return o.tolist() if isinstance(o, np.ndarray) else o


def _stdlib_text(o) -> str:
    return json.dumps(_tolisted(o), sort_keys=True, indent=2) + "\n"


def _written(payload) -> str:
    return "".join(cli._json_pieces(payload))

_edge_floats = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-7, 0.1, 1e16])
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), _edge_floats, st.text(),
    st.sampled_from(["", "é", "π ∑", " ", "tab\tquote\"", "\U0001f600"]),
)
_float_lists = st.lists(st.one_of(st.floats(), _edge_floats, st.integers()), max_size=20)
_trees = st.recursive(
    st.one_of(_scalars, _float_lists),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=150, deadline=None)
@given(_trees)
def test_json_text_matches_stdlib(obj):
    assert _json_text(obj) == json.dumps(obj, sort_keys=True, indent=2)


def test_json_text_keys_and_numpy_scalars():
    for obj in (
        {1: "a", 2.5: [1.0], -3: {}},
        {True: 1},
        {False: "x"},
        {None: [True, False, None]},
        {"v": [np.float64(1.1), 2, np.float64(-0.0)]},
        [[], {}, [[]], [{}], ()],
        [float("nan"), float("inf"), -float("inf")],
    ):
        assert _json_text(obj) == json.dumps(obj, sort_keys=True, indent=2)
    for bad in ({(1, 2): 0}, {"x": np.zeros(2)}):
        with pytest.raises(TypeError):
            _json_text(bad)


_float_arrays = st.one_of(
    hnp.arrays(np.float64, st.integers(0, 12), elements=st.one_of(st.floats(), _edge_floats)),
    hnp.arrays(np.float64, st.integers(0, 12), elements=_edge_floats).map(lambda a: a[::2]),
)
_array_trees = st.recursive(
    st.one_of(_scalars, _float_lists, _float_arrays),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(_array_trees, st.sampled_from([1, 2, 3, 1 << 18]))
def test_json_pieces_matches_stdlib(obj, slice_size):
    # float64 arrays at any depth, NaN and inf included, cut into slices of
    # any size; the stdlib on the same payload with the arrays as lists is
    # the oracle
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_SLICE", slice_size)
        assert _written(obj) == _stdlib_text(obj)


def test_json_pieces_edge_arrays():
    zeros = np.array([0.0, -0.0, 0.0, -0.0, 5e-324, -5e-324, 5e-324])
    for obj in (
        zeros,
        {"levels": [np.array([1.0]), zeros, np.zeros(0), np.array([np.nan, np.inf, -np.inf])]},
        {"a": {"b": [[zeros]], "c": np.zeros(0)}, "d": (zeros, 1.5)},
        [np.zeros(0)],
        np.zeros(0),
        {"x": np.arange(7.0)[::3], "y": [np.float64(-0.0), 2]},
    ):
        assert _written(obj) == _stdlib_text(obj)
    assert _written(zeros).count("-0.0") == 2
    with pytest.raises(TypeError):
        _written({"x": np.zeros(2, dtype=np.float32)})


def test_json_pieces_strings_that_read_as_sentinels():
    # a payload string with a sentinel's text sends the whole payload through the stdlib
    for obj in (
        {"a": "\x000\x00", "b": np.array([1.0, 2.0])},
        {"\x000\x00": np.array([1.0])},
        {"a": "\x001\x00", "b": np.array([1.0])},
        {"a": ["\x000\x00"]},
        [np.array([3.0]), '"\x000\x00'],
    ):
        assert _written(obj) == _stdlib_text(obj)


_CLI_CASES = [
    ["average", "--group", "su2", "--method", "quadrature", "--depth", "6"],
    ["average", "--group", "su2", "--method", "monte_carlo", "--depth", "3",
     "--samples", "20000", "--seed", "7"],
    ["average", "--group", "product:su2,circle", "--method", "product_shuffle", "--depth", "5"],
    ["spectrum", "--group", "su2", "--method", "monte_carlo", "--half-depth", "4",
     "--samples", "20000", "--seed", "3"],
    ["recover", "--group", "circle", "--samples", "50000", "--seed", "5", "--half-depth", "6"],
]


def _csv_from_payload(argv, payload):
    # the CSV layouts of the module docstring, rebuilt from the JSON payload
    def cell(x):
        return repr(x) if isinstance(x, float) else str(x)

    config = dict(payload["config"], format="csv")
    lines = [f"# {k}={v}" for k, v in sorted(config.items())]
    res = payload["result"]
    if argv[0] == "average":
        rows = [["kind", "level", "index", "value"]]
        rows += [["coeff", k, i, v] for k, lv in enumerate(res["levels"]) for i, v in enumerate(lv)]
        rows += [["stderr_level", k, 0, s] for k, s in enumerate(res["stderr"] or [])]
    elif argv[0] == "spectrum":
        rows = [["kind", "k", "value"]]
        rows += [["rtr", k, v] for k, v in enumerate(res["rtr"])]
        rows += [["stderr", k, s] for k, s in enumerate(res.get("stderr") or [])]
    else:
        rows = [["kind", "index", "x", "value"]]
        rows += [["F_table", i, r, f] for i, (r, f) in enumerate(res["F_table"])]
        raw = res["diagnostics"]["diameter"]["raw_sequence"]
        rows += [["diameter_raw", i, 2 * i, v] for i, v in enumerate(raw, start=1)]
    return "\n".join(lines + [",".join(cell(x) for x in row) for row in rows]) + "\n"


@pytest.mark.parametrize("argv", _CLI_CASES, ids=lambda a: "-".join(a[:5:2]))
def test_cli_json_and_csv_bytes_match_stdlib_route(argv, tmp_path, monkeypatch):
    _, pj = run(argv, tmp_path, "fast")
    text = pj.read_text()
    payload = json.loads(text)
    monkeypatch.setattr(cli, "_json_pieces", lambda o: [_stdlib_text(o)])
    _, ps = run(argv, tmp_path, "stdlib")
    assert pj.read_bytes() == ps.read_bytes()
    assert text == json.dumps(payload, sort_keys=True, indent=2) + "\n"
    _, pc = run(argv + ["--format", "csv"], tmp_path, "csv")
    assert pc.read_text() == _csv_from_payload(argv, payload)


@pytest.mark.parametrize("argv", [
    ["average", "--group", "su2", "--method", "quadrature", "--depth", "6"],
    ["average", "--group", "product:su2,circle", "--method", "product_shuffle", "--depth", "4"],
], ids=["su2-quadrature", "su2xcircle-product_shuffle"])
def test_average_csv_levels_match_per_row_writer(argv, tmp_path, monkeypatch):
    # coefficient rows are formatted a slice of a level at a time; the
    # per-row writer of _csv_from_payload is the oracle for their bytes
    monkeypatch.setattr(cli, "_SLICE", 7)
    _, pj = run(argv, tmp_path, "json")
    _, pc = run(argv + ["--format", "csv"], tmp_path, "csv")
    oracle = _csv_from_payload(argv, json.loads(pj.read_text())).encode()
    assert hashlib.sha256(pc.read_bytes()).hexdigest() == hashlib.sha256(oracle).hexdigest()


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("argv", [
    ["average", "--group", "torus:2", "--method", "closed_form", "--depth", "6"],
    ["average", "--group", "su2", "--method", "quadrature", "--depth", "7"],
    ["average", "--group", "su2", "--method", "monte_carlo", "--depth", "4",
     "--samples", "20000", "--seed", "11"],
    ["average", "--group", "product:su2,circle", "--method", "product_shuffle", "--depth", "6"],
], ids=lambda a: a[4])
def test_average_bytes_match_stdlib_route(argv, threads, tmp_path, monkeypatch):
    argv = argv + ["--threads", threads]
    _, fast = run(argv, tmp_path, "fast")
    monkeypatch.setattr(cli, "_json_pieces", lambda o: [_stdlib_text(o)])
    _, slow = run(argv, tmp_path, "stdlib")
    assert fast.read_bytes() == slow.read_bytes()


def test_average_stdout_matches_output_file(tmp_path, capsys):
    argv = ["average", "--group", "product:su2,circle", "--method", "product_shuffle",
            "--depth", "5"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    _, path = run(argv, tmp_path)
    assert out.encode() == path.read_bytes()


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("existing", [None, "old contents\n"], ids=["absent", "existing"])
def test_failed_write_leaves_output_untouched(fmt, existing, tmp_path, monkeypatch):
    # the writer fails after the first slice of a level is out
    def failing(arr):
        yield 0, ["0.0"] * min(len(arr), 2)
        raise RuntimeError("writer failed")

    path = tmp_path / "out.dat"
    if existing is not None:
        path.write_text(existing)
    monkeypatch.setattr(cli, "_value_texts", failing)
    with pytest.raises(RuntimeError, match="writer failed"):
        main(["average", "--group", "su2", "--method", "quadrature", "--depth", "4",
              "--format", fmt, "--output", str(path)])
    assert [p.name for p in tmp_path.iterdir()] == ([] if existing is None else ["out.dat"])
    assert existing is None or path.read_text() == existing


@pytest.mark.parametrize("target", ["directory", "under a file"])
def test_unwritable_output_exits_2(target, tmp_path, capsys):
    # open() fails on the directory and mkdir() under the file, after the computation
    (tmp_path / "file").write_text("old contents\n")
    output = tmp_path if target == "directory" else tmp_path / "file" / "sub" / "out.json"
    code = main(["spectrum", "--group", "circle", "--method", "closed_form", "--output", str(output)])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: cannot write --output: [Errno ") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["file"]
    assert (tmp_path / "file").read_text() == "old contents\n"


def test_output_through_link_and_pipe(tmp_path):
    # a link (as /dev/stdout is) and a pipe are written through, not replaced
    argv = ["spectrum", "--group", "circle", "--method", "closed_form", "--half-depth", "4"]
    _, plain = run(argv, tmp_path, "plain")
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("old contents\n")
    link.symlink_to(target)
    assert main(argv + ["--output", str(link)]) == 0
    assert link.is_symlink() and target.read_bytes() == plain.read_bytes()
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert main(argv + ["--output", str(fifo)]) == 0
    reader.join(timeout=30)
    assert not reader.is_alive() and got == [plain.read_bytes()]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "link.json", "plain.dat", "target.json"]


@pytest.mark.parametrize("fmt,output", [("json", []), ("csv", []),
                                        ("json", ["--output", "/dev/stdout"])])
def test_closed_stdout_exits_1_quietly(fmt, output):
    # the su2 depth-8 average is about 200 kB, more than a pipe holds, so
    # the write fails once the reader has gone, as under `| head -c 20`
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "liesig.cli", "average", "--group", "su2", "--method",
         "quadrature", "--depth", "8", "--format", fmt, *output],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert len(proc.stdout.read(20)) == 20
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_json_output_builds_no_csv_rows(tmp_path, monkeypatch):
    def refuse(*_args):
        raise AssertionError("CSV rows built for JSON output")

    monkeypatch.setattr(RecoveryReport, "csv_rows", refuse)
    code, path = run(["recover", "--group", "circle", "--samples", "50000", "--seed", "5",
                      "--half-depth", "6"], tmp_path)
    assert code == 0 and json.loads(path.read_text())["result"]["dimension"]["rounded"] == 1


@pytest.mark.parametrize("group,method", [
    ("su2", "monte_carlo"),
    ("su2", "quadrature"),
    ("product:circle,su2", "product_shuffle"),
    ("torus:2", "closed_form"),
])
def test_huge_depth_refused_by_budget(group, method, capsys):
    code = main(["average", "--group", group, "--method", method, "--depth", "100000"])
    err = capsys.readouterr().err
    assert code == 2
    assert "needs more than 100000000 coefficients" in err
