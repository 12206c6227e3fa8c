import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    assert payload["config"]["nodes"] == 64
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


def test_config_error_bad_values(capsys):
    assert main(["average", "--group", "circle", "--method", "closed_form",
                 "--samples", "0"]) == 2
    assert main(["average", "--group", "circle", "--method", "closed_form",
                 "--seed", "-1"]) == 2


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


def test_output_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("LIESIG_OUTPUT_DIR", str(tmp_path))
    code = main(["spectrum", "--group", "circle", "--method", "closed_form",
                 "--half-depth", "4", "--output", "sub/out.json"])
    assert code == 0
    assert (tmp_path / "sub" / "out.json").exists()


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


# -- JSON encoder and lazy CSV rows -------------------------------------------

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
    assert cli._json_text(obj) == json.dumps(obj, sort_keys=True, indent=2)


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
        assert cli._json_text(obj) == json.dumps(obj, sort_keys=True, indent=2)
    for bad in ({(1, 2): 0}, {"x": np.zeros(2)}):
        with pytest.raises(TypeError):
            cli._json_text(bad)


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
    monkeypatch.setattr(cli, "_json_text", lambda o: json.dumps(o, sort_keys=True, indent=2))
    _, ps = run(argv, tmp_path, "stdlib")
    assert pj.read_bytes() == ps.read_bytes()
    assert text == json.dumps(payload, sort_keys=True, indent=2) + "\n"
    _, pc = run(argv + ["--format", "csv"], tmp_path, "csv")
    assert pc.read_text() == _csv_from_payload(argv, payload)


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
