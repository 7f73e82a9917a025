"""Command-line contract: exit codes, formats, reproducibility."""

import json
import math
import os
import subprocess
import sys

import pytest

from hahnvar.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_deriv_json_value(capsys):
    code, out, _ = run(
        capsys, "deriv", "--q", "0.5", "--omega", "0.5", "--expr", "t^2", "--t", "2",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["value"] == 3.5


# D^r at omega0 = 1 (q = omega = 0.5) is [r]_q!/r! times the r-th derivative.
@pytest.mark.parametrize(
    "expr, order, exact",
    [("t^2", 1, 2.0), ("t^2", 2, 1.5), ("t^2", 3, 0.0), ("t^2", 4, 0.0),
     ("t^3", 1, 3.0), ("t^3", 2, 4.5), ("t^3", 3, 2.625), ("t^3", 4, 0.0)],
)
def test_deriv_at_the_fixed_point_is_exact(capsys, expr, order, exact):
    code, out, _ = run(
        capsys, "deriv", "--q", "0.5", "--omega", "0.5", "--expr", expr, "--t", "1",
        "--order", str(order), "--format", "json",
    )
    assert code == 0
    assert abs(json.loads(out)["value"] - exact) <= 1e-12


def test_negative_exponent_value_as_separate_token(capsys):
    base = ("deriv", "--q", "0.5", "--omega", "0.5", "--expr", "t", "--format", "json")
    code, out, _ = run(capsys, *base, "--t", "-3.1e-05")
    code_eq, out_eq, _ = run(capsys, *base, "--t=-3.1e-05")
    assert code == code_eq == 0
    assert json.loads(out) == json.loads(out_eq)
    assert json.loads(out)["t"] == -3.1e-05


def test_json_numbers_round_trip_doubles(capsys):
    code, out, _ = run(
        capsys, "integrate", "--q", "0.7", "--omega", "0.3", "--expr", "t^2 - t",
        "--a", "-1", "--b", "2", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    # 17 significant digits reproduce the exact binary double
    from hahnvar import HahnParams, integral
    from hahnvar.dsl import evaluate, parse

    expr = parse("t^2 - t")
    want = integral(HahnParams(0.7, 0.3), lambda t: evaluate(expr, {"t": t}), -1.0, 2.0)
    assert report["value"] == want.value
    assert report["tail_bound"] == want.tail_bound


def test_integrate_linear_closed_form(capsys):
    code, out, _ = run(
        capsys, "integrate", "--q", "0.5", "--omega", "0.5", "--expr", "t",
        "--a", "-1", "--b", "2", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(1.0, abs=1e-11)


def test_table_and_csv_formats(capsys):
    code, out, _ = run(
        capsys, "deriv", "--q", "0.5", "--omega", "0.5", "--expr", "t^2", "--t", "2",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[0].startswith("q,omega,expr")
    code, out, _ = run(
        capsys, "deriv", "--q", "0.5", "--omega", "0.5", "--expr", "t^2", "--t", "2",
    )
    assert code == 0
    assert "value" in out


def test_syntax_error_exits_2(capsys):
    for expr in ("(t", "1e999"):
        code, _, err = run(
            capsys, "deriv", "--q", "0.5", "--omega", "0.5", "--expr", expr, "--t", "2",
        )
        assert code == 2
        assert "syntax error" in err


def test_zero_base_under_negative_exponent_exits_3(capsys):
    shared = ("--q", "0.5", "--omega", "0.5", "--expr", "t^-1")
    code, _, err = run(capsys, "deriv", *shared, "--t", "0")
    assert code == 3 and "division by zero" in err
    code, _, err = run(capsys, "integrate", *shared, "--a", "0", "--b", "1")
    assert code == 3 and "division by zero" in err


@pytest.mark.parametrize("t", ["1", "1.1"])
def test_an_underflowing_product_exits_3_at_omega0_as_beside_it(capsys, t):
    # omega0 = 1; the jet there underflows where evaluation at 1.1 does.
    code, out, err = run(
        capsys, "deriv", "--q", "0.5", "--omega", "0.5", "--expr", "(1e-200*t)*(1e-200*t)",
        "--t", t, "--order", "2",
    )
    assert code == 3 and not out
    assert err.count("error:") == 1 and "underflowed" in err


def test_nesting_past_the_bound_exits_2(capsys):
    deep = "(" * 300 + "t" + ")" * 300
    code, _, err = run(
        capsys, "deriv", "--q", "0.5", "--omega", "0.5", "--expr", deep, "--t", "0.3",
    )
    assert code == 2
    assert "nesting" in err


def test_bad_parameters_exit_2(capsys):
    code, _, err = run(
        capsys, "deriv", "--q", "1.5", "--omega", "0.5", "--expr", "t", "--t", "2",
    )
    assert code == 2


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "q": 0.5, "omega": 0.5, "a": -1.0, "b": 1.0, "r": 1,
        "lagrangian": "u1^2", "alpha": [0.0], "beta": [0.0],
        "candidate": {"type": "expr", "value": "0"},
        "surprise": 1,
    }))
    code, _, err = run(capsys, "evaluate", str(cfg))
    assert code == 2
    assert "surprise" in err


def test_arity_violation_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "q": 0.5, "omega": 0.5, "a": -1.0, "b": 1.0, "r": 1,
        "lagrangian": "u2^2", "alpha": [0.0], "beta": [0.0],
        "candidate": {"type": "expr", "value": "0"},
    }))
    code, _, err = run(capsys, "el-check", str(cfg))
    assert code == 2


def test_el_check_builtin_passes(capsys):
    code, out, _ = run(capsys, "el-check", "--builtin", "double-well", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["max_abs_residual"] <= 1e-9
    assert report["residuals"]


def test_el_check_non_stationary_candidate_exits_1(capsys):
    code, out, _ = run(
        capsys, "el-check", "--builtin", "double-well",
        "--candidate-expr", "0", "--format", "json",
    )
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_evaluate_builtin_and_table_candidate(tmp_path, capsys):
    code, out, _ = run(capsys, "evaluate", "--builtin", "double-well", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.0, abs=1e-12)

    # the a-orbit series needs ~21 terms at this tol, so the table must
    # reach that deep (the b seed is the fixed point: empty sum)
    depth = 30
    rows = [["a", n, 0.0] for n in range(depth + 1)] + [["b", n, 0.0] for n in range(depth + 1)]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "q": 0.5, "omega": 0.5, "a": -1.0, "b": 1.0, "r": 1,
        "lagrangian": "1 + 0*u1", "alpha": [0.0], "beta": [0.0],
        "candidate": {"type": "table", "rows": rows, "omega0": 0.0},
        "depth": depth, "tol": 1e-6,
    }))
    code, out, _ = run(capsys, "evaluate", str(cfg), "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(2.0, abs=1e-5)


def test_incomplete_table_candidate_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "q": 0.5, "omega": 0.5, "a": -1.0, "b": 1.0, "r": 1,
        "lagrangian": "u1^2", "alpha": [0.0], "beta": [0.0],
        "candidate": {"type": "table", "rows": [["a", 0, 0.0]], "omega0": 0.0},
        "depth": 4,
    }))
    code, _, err = run(capsys, "evaluate", str(cfg))
    assert code == 2
    assert "misses orbit" in err


def test_minimize_is_deterministic(capsys):
    argv = [
        "minimize", "--builtin", "double-well",
        "--depth", "10", "--seed", "5", "--max-iters", "40", "--format", "json",
    ]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert out1 == out2
    assert json.loads(out1)["history"] == json.loads(out2)["history"]


@pytest.mark.parametrize("flag, value", [("--candidate-expr", "0"),
                                         ("--candidate-builtin", "ystar")])
def test_minimize_refuses_the_candidate_flags_it_would_ignore(capsys, flag, value):
    # minimize starts from its own guess; a config's candidate key is
    # accepted (shared configs carry one) and not read.
    with pytest.raises(SystemExit) as exc:
        main(["minimize", "--builtin", "double-well", flag, value])
    assert exc.value.code == 2
    # The flag's value is taken as the config path.
    assert f"error: unrecognized arguments: {flag}\n" in capsys.readouterr().err


def test_minimize_does_not_read_a_config_candidate(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(_run_text(candidate={"type": "spline"}))
    code, _, err = run(capsys, "minimize", str(path), "--max-iters", "1")
    assert code in (0, 1) and err == ""


def test_demo_double_well(capsys):
    code, out, _ = run(capsys, "demo", "double-well", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["functional"]["value"] == 0.0
    assert report["el"]["passed"] is True
    assert report["sweep"]["all_nonnegative"] is True


def test_console_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "hahnvar.cli", "deriv", "--q", "0.5", "--omega", "0.5",
         "--expr", "t^2", "--t", "2", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == 3.5


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (["deriv", "--q", "0.5", "--omega", "0.5", "--expr", "t^2", "--t", "2"],
         {"minimize", "variational", "demos"}),
        (["integrate", "--q", "0.5", "--omega", "0.5", "--expr", "t", "--a", "0", "--b", "1"],
         {"minimize", "variational", "demos"}),
        (["evaluate", "--builtin", "double-well", "--depth", "12"], {"minimize"}),
        (["el-check", "--builtin", "double-well", "--depth", "12"], {"minimize"}),
        (["demo", "beam", "--depth", "12"], {"minimize"}),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_subcommand_imports_only_the_modules_it_runs(argv, unloaded):
    # -X importtime lists on stderr every module the process imports.
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "hahnvar.cli", *argv],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert {"hahnvar.core", "hahnvar.dsl"} <= imported
    assert imported.isdisjoint(f"hahnvar.{name}" for name in unloaded)


def test_deriv_loads_neither_dataclasses_nor_inspect_nor_csv():
    # core, dsl and operators build their value classes without dataclasses,
    # and csv loads only to render --format csv.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from hahnvar.cli import main\n"
        "assert main(['deriv', '--q', '0.5', '--omega', '0.5', '--expr', 't^2', '--t', '2']) == 0\n"
        "print(sorted({'dataclasses', 'inspect', 'csv'} & set(sys.modules) - before))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("argv, text", [
    (["deriv", "--q", "0.5", "--omega", "0.5", "--expr", "t^2", "--t", "2"],
     "q,omega,expr,t,order,value\n0.5,0.5,t^2,2,1,3.5\n"),
    (["integrate", "--q", "0.5", "--omega", "0.5", "--expr", "t", "--a", "-1", "--b", "2"],
     "q,omega,expr,a,b,value,terms_used,tail_bound,converged\n"
     "0.5,0.5,t,-1,2,0.99999999999818112,41,1.8189894035706719e-12,true\n"),
    (["evaluate", "--builtin", "double-well"], "value,terms_used,tail_bound,converged\n0,5,0,true\n"),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_csv_output_is_pinned(capsys, argv, text):
    assert run(capsys, *argv, "--format", "csv") == (0, text, "")


@pytest.mark.parametrize("command", ["minimize", "el-check"])
def test_an_endpoint_rounding_onto_omega0_exits_3(tmp_path, capsys, command):
    # a = omega0 up to a prefactor of -5.6e-17, so orbit a merges at its seed.
    from hahnvar import HahnParams

    a = HahnParams(0.05, 0.5).omega0
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "q": 0.05, "omega": 0.5, "a": a, "b": a + 1.0, "r": 2, "depth": 10,
        "lagrangian": "u2^2", "alpha": [0.0, 0.0], "beta": [0.0, 0.0],
        "candidate": {"type": "expr", "value": "0"},
    }))
    code, out, err = run(capsys, command, str(cfg))
    assert code == 3 and not out
    assert err.count("error:") == 1 and "underflowed" in err


def test_the_builtin_double_well_config_is_the_demo_problem():
    from hahnvar.cli import _build_problem
    from hahnvar.demos import BUILTIN_CONFIGS, double_well_problem

    assert _build_problem(BUILTIN_CONFIGS["double-well"]) == double_well_problem()


def _double_well_config(tmp_path, **extra):
    from hahnvar.demos import BUILTIN_CONFIGS

    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({**BUILTIN_CONFIGS["double-well"], "depth": 12, **extra}))
    return str(cfg)


@pytest.mark.parametrize("command", ["evaluate", "el-check", "minimize"])
def test_the_builtin_double_well_runs_as_a_file_of_its_config(tmp_path, capsys, command):
    # --builtin reads demos' dict, so a file dumped from it gives the same bytes.
    from hahnvar.demos import BUILTIN_CONFIGS

    path = tmp_path / "double-well.json"
    path.write_text(json.dumps(BUILTIN_CONFIGS["double-well"]))
    flags = ("--format", "json", "--depth", "12")
    code, out, err = run(capsys, command, "--builtin", "double-well", *flags)
    assert out.startswith('{"problem": ')
    assert run(capsys, command, str(path), *flags) == (code, out, err)


@pytest.mark.parametrize("command", ["evaluate", "el-check", "minimize"])
def test_config_format_applies_and_the_flag_overrides_it(tmp_path, capsys, command):
    path = _double_well_config(tmp_path, format="json")
    _, out, _ = run(capsys, command, path)
    assert isinstance(json.loads(out), dict)
    _, out, _ = run(capsys, command, path, "--format", "table")
    assert out.startswith("problem.q = ")


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _near_omega0_run(candidate):
    # omega0 is 1, and b is one ulp past it.
    return {
        "q": 0.5, "omega": 0.5, "a": -1.0, "b": 1.0000000000000002, "r": 2,
        "lagrangian": "u2^2", "alpha": [0.0, 0.0], "beta": [0.0, 0.0],
        "candidate": {"type": "expr", "value": candidate},
    }


def test_json_renders_an_unbounded_tail_as_null(tmp_path, capsys):
    # The b orbit merges before its first r-window, so its tail bound is inf;
    # the kink at omega0 refuses a jet, so the series walks the orbit.
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(_near_omega0_run("abs(t - 1)")))
    code, out, _ = run(capsys, "evaluate", str(cfg), "--format", "json")
    assert code == 4
    assert json.loads(out, parse_constant=_reject_constant)["tail_bound"] is None
    code, out, _ = run(capsys, "evaluate", str(cfg), "--format", "csv")
    assert code == 4
    assert out.splitlines()[1].split(",")[2] == "inf"


def test_a_smooth_candidate_closes_an_orbit_that_merges_at_once(tmp_path, capsys):
    # The same run with a polynomial candidate: both series close from the
    # jet at omega0, with no orbit term walked.
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(_near_omega0_run("0")))
    code, out, err = run(capsys, "evaluate", str(cfg), "--format", "json")
    assert (code, err) == (0, "")
    got = json.loads(out, parse_constant=_reject_constant)
    assert (got["value"], got["terms_used"], got["tail_bound"], got["converged"]) == (0, 0, 0, True)


# ---------------------------------------------------------------------------
# The input contract: every ConfigError message of the CLI, each with exit 2
# ---------------------------------------------------------------------------

_DROP = object()

_TABLE_DEPTH = 6

_TABLE = {
    "type": "table",
    "rows": [[origin, n, 0.0] for origin in ("a", "b") for n in range(_TABLE_DEPTH + 1)],
    "omega0": 0.0,
}

_RUN = {
    "q": 0.5, "omega": 0.5, "a": -1.0, "b": 2.0, "r": 1, "lagrangian": "u1^2",
    "alpha": [0.0], "beta": [0.0], "candidate": {"type": "expr", "value": "0"},
    "depth": _TABLE_DEPTH,
}


def _run_text(**changes):
    """The JSON text of the valid run config ``_RUN`` with keys replaced
    (or dropped, for ``_DROP``); json writes nan and inf as NaN and Infinity."""
    cfg = {**_RUN, **changes}
    return json.dumps({k: v for k, v in cfg.items() if v is not _DROP})


def _table(**changes):
    entry = {**_TABLE, **changes}
    return {k: v for k, v in entry.items() if v is not _DROP}


# (id, config text, message): faults in the config's own keys, which
# evaluate, el-check and minimize all report.
CONFIG_FAULTS = [
    ("not-json", "not json", "config is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    ("not-an-object", "[1, 2]", "config must be a JSON object"),
    ("unknown-keys", _run_text(surprise=1, extra=2), "unknown config keys: extra, surprise"),
    ("missing-keys", _run_text(q=_DROP, lagrangian=_DROP), "missing config keys: q, lagrangian"),
    ("q-string", _run_text(q="0.5"), "config key 'q' must be a number"),
    ("omega-boolean", _run_text(omega=True), "config key 'omega' must be a number"),
    ("a-nan", _run_text(a=math.nan), "config key 'a' must be finite"),
    ("b-infinity", _run_text(b=math.inf), "config key 'b' must be finite"),
    ("tol-string", _run_text(tol="1e-9"), "config key 'tol' must be a number"),
    ("tol-infinity", _run_text(tol=math.inf), "config key 'tol' must be finite"),
    ("r-float", _run_text(r=1.0), "config key 'r' must be an integer"),
    ("r-boolean", _run_text(r=True), "config key 'r' must be an integer"),
    ("depth-float", _run_text(depth=6.5), "config key 'depth' must be an integer"),
    ("max-terms-string", _run_text(max_terms="100"), "config key 'max_terms' must be an integer"),
    ("alpha-number", _run_text(alpha=0.0), "config key 'alpha' must be an array of numbers"),
    ("alpha-string-item", _run_text(alpha=["0"]), "config key 'alpha' must contain finite numbers"),
    ("beta-nan-item", _run_text(beta=[math.nan]), "config key 'beta' must contain finite numbers"),
    ("lagrangian-number", _run_text(lagrangian=1), "config key 'lagrangian' must be a string"),
    ("format-unknown", _run_text(format="xml"),
     "config key 'format' must be one of table, json, csv"),
    ("include-omega0-number", _run_text(include_omega0=1),
     "config key 'include_omega0' must be a boolean"),
    # Well-typed values that Problem or HahnParams reject.
    ("q-outside", _run_text(q=1.5), "q must be a finite number strictly inside (0, 1), got 1.5"),
    ("a-above-b", _run_text(a=3.0), "need finite a < b, got 3.0, 2.0"),
    ("alpha-too-long", _run_text(alpha=[0.0, 0.0]), "alpha and beta must each hold r = 1 values"),
]

# (id, config text, message): faults in the candidate, which evaluate and
# el-check resolve (minimize starts from its own guess).
CANDIDATE_FAULTS = [
    ("no-candidate", _run_text(candidate=_DROP),
     "config has no candidate; add one or pass --candidate-expr"),
    ("null-candidate", _run_text(candidate=None),
     "config has no candidate; add one or pass --candidate-expr"),
    ("candidate-string", _run_text(candidate="0"), "candidate must be an object with a 'type' tag"),
    ("candidate-untagged", _run_text(candidate={"value": "0"}),
     "candidate must be an object with a 'type' tag"),
    ("expr-extra-key", _run_text(candidate={"type": "expr", "value": "0", "x": 1}),
     "expr candidate must be {'type': 'expr', 'value': string}"),
    ("expr-number", _run_text(candidate={"type": "expr", "value": 0}),
     "expr candidate must be {'type': 'expr', 'value': string}"),
    ("expr-of-u0", _run_text(candidate={"type": "expr", "value": "u0 + t"}),
     "candidate expression may only use t, found 'u0'"),
    ("builtin-unknown", _run_text(candidate={"type": "builtin", "name": "nope"}),
     "builtin candidate must name one of: ystar"),
    ("builtin-extra-key", _run_text(candidate={"type": "builtin", "name": "ystar", "x": 1}),
     "builtin candidate must name one of: ystar"),
    ("type-unknown", _run_text(candidate={"type": "spline"}), "unknown candidate type 'spline'"),
    ("table-unknown-key", _run_text(candidate=_table(x=1)), "unknown table candidate keys: x"),
    ("table-no-rows", _run_text(candidate=_table(rows=_DROP)),
     "table candidate needs a 'rows' array"),
    ("table-rows-object", _run_text(candidate=_table(rows={})),
     "table candidate needs a 'rows' array"),
    ("table-no-omega0", _run_text(candidate=_table(omega0=_DROP)),
     "table candidate needs an 'omega0' value"),
    ("table-omega0-string", _run_text(candidate=_table(omega0="0")),
     "table candidate 'omega0' must be a number"),
    ("table-row-pair", _run_text(candidate=_table(rows=[["a", 0]])),
     "table rows must be [origin, n, value] triples"),
    ("table-row-origin", _run_text(candidate=_table(rows=[["c", 0, 0.0]])),
     "table row origin must be 'a' or 'b', got 'c'"),
    ("table-row-negative-index", _run_text(candidate=_table(rows=[["a", -1, 0.0]])),
     "table row index must be a nonnegative integer, got -1"),
    ("table-row-boolean-index", _run_text(candidate=_table(rows=[["a", True, 0.0]])),
     "table row index must be a nonnegative integer, got True"),
    ("table-row-value-string", _run_text(candidate=_table(rows=[["a", 0, "0"]])),
     "table row value must be a number, got '0'"),
    ("table-row-duplicate", _run_text(candidate=_table(rows=[*_TABLE["rows"], ["a", 0, 1.0]])),
     "duplicate table row for ('a', 0)"),
    ("table-misses", _run_text(candidate=_table(rows=[r for r in _TABLE["rows"] if r[1] != 3])),
     "table candidate misses orbit 'a' indices: 3"),
    ("table-misses-many", _run_text(depth=20, candidate=_TABLE),
     "table candidate misses orbit 'a' indices: 7, 8, 9, 10, 11, 12, 13, 14..."),
]

_DERIV = ["deriv", "--q", "0.5", "--omega", "0.5", "--expr", "t", "--t", "2"]

# (id, argv, message): faults in the flags, or in what they name.
FLAG_FAULTS = [
    ("order-negative", [*_DERIV, "--order", "-1"], "--order must be nonnegative"),
    ("evaluate-no-config", ["evaluate"], "provide a config file or --builtin NAME"),
    ("el-check-no-config", ["el-check"], "provide a config file or --builtin NAME"),
    ("minimize-no-config", ["minimize"], "provide a config file or --builtin NAME"),
    ("builtin-unknown", ["evaluate", "--builtin", "nope"],
     "unknown builtin config 'nope'; choose from double-well"),
    ("config-absent", ["evaluate", "no-such-run.json"],
     "[Errno 2] No such file or directory: 'no-such-run.json'"),
    ("candidate-expr-of-u1", ["evaluate", "--builtin", "double-well", "--candidate-expr", "u1"],
     "candidate expression may only use t, found 'u1'"),
    ("candidate-builtin-unknown",
     ["el-check", "--builtin", "double-well", "--candidate-builtin", "nope"],
     "builtin candidate must name one of: ystar"),
    # The least depth is 2r + 1 for el-check and the demos, 2r + 2 for minimize.
    ("el-check-too-shallow", ["el-check", "--builtin", "double-well", "--depth", "2"],
     "el-check needs depth >= 3 for order 1, got 2"),
    ("minimize-too-shallow", ["minimize", "--builtin", "double-well", "--depth", "3"],
     "minimize needs depth >= 4 for order 1, got 3"),
    ("double-well-too-shallow", ["demo", "double-well", "--depth", "2"],
     "demo needs depth >= 3 for order 1, got 2"),
    ("beam-too-shallow", ["demo", "beam", "--depth", "4"], "demo needs depth >= 5 for order 2, got 4"),
]


def _exits_2_with(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["evaluate", "el-check", "minimize"])
@pytest.mark.parametrize("text, message", [c[1:] for c in CONFIG_FAULTS],
                         ids=[c[0] for c in CONFIG_FAULTS])
def test_a_config_fault_exits_2_with_its_message(tmp_path, capsys, command, text, message):
    path = tmp_path / "run.json"
    path.write_text(text)
    _exits_2_with(capsys, [command, str(path)], message)


@pytest.mark.parametrize("command", ["evaluate", "el-check"])
@pytest.mark.parametrize("text, message", [c[1:] for c in CANDIDATE_FAULTS],
                         ids=[c[0] for c in CANDIDATE_FAULTS])
def test_a_candidate_fault_exits_2_with_its_message(tmp_path, capsys, command, text, message):
    path = tmp_path / "run.json"
    path.write_text(text)
    _exits_2_with(capsys, [command, str(path)], message)


@pytest.mark.parametrize("argv, message", [c[1:] for c in FLAG_FAULTS],
                         ids=[c[0] for c in FLAG_FAULTS])
def test_a_flag_fault_exits_2_with_its_message(capsys, argv, message):
    _exits_2_with(capsys, argv, message)


# Each subcommand with the shared flags it reads; it refuses the others.
_READS = {
    "deriv": (_DERIV, {"--format"}),
    "integrate": (["integrate", "--q", "0.5", "--omega", "0.5", "--expr", "t", "--a", "0",
                   "--b", "1"], {"--format", "--tol", "--max-terms"}),
    "evaluate": (["evaluate", "--builtin", "double-well"],
                 {"--format", "--tol", "--depth", "--max-terms"}),
    "el-check": (["el-check", "--builtin", "double-well"],
                 {"--format", "--tol", "--depth", "--include-omega0"}),
    "minimize": (["minimize", "--builtin", "double-well"],
                 {"--format", "--tol", "--depth", "--seed"}),
    "demo double-well": (["demo", "double-well"],
                         {"--format", "--tol", "--depth", "--seed", "--include-omega0"}),
    "demo beam": (["demo", "beam"], {"--format", "--depth"}),
}
_SHARED = {"--format": ["json"], "--tol": ["1e-9"], "--depth": ["12"], "--max-terms": ["900"],
           "--seed": ["3"], "--include-omega0": []}


@pytest.mark.parametrize("command", _READS)
@pytest.mark.parametrize("flag", _SHARED)
def test_a_subcommand_accepts_only_the_shared_flags_it_reads(capsys, command, flag):
    from hahnvar.cli import _build_parser

    base, reads = _READS[command]
    argv = [*base, flag, *_SHARED[flag]]
    if flag in reads:
        args = _build_parser().parse_args(argv)
        assert getattr(args, flag[2:].replace("-", "_")) is not None
        return
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    # A config subcommand takes the flag's value as its config path.
    assert f"error: unrecognized arguments: {flag}" in capsys.readouterr().err


# json reads NaN and Infinity, and a number too large for a double as an int.
_NON_FINITE = [
    ("row-nan", _table(rows=[*_TABLE["rows"][:-1], ["b", _TABLE_DEPTH, math.nan]]),
     "table row value must be finite, got nan"),
    ("row-infinity", _table(rows=[["a", 0, -math.inf], *_TABLE["rows"][1:]]),
     "table row value must be finite, got -inf"),
    ("omega0-nan", _table(omega0=math.nan), "table candidate 'omega0' must be finite"),
    ("omega0-infinity", _table(omega0=math.inf), "table candidate 'omega0' must be finite"),
]


@pytest.mark.parametrize("command", ["evaluate", "el-check"])
@pytest.mark.parametrize("candidate, message", [c[1:] for c in _NON_FINITE],
                         ids=[c[0] for c in _NON_FINITE])
def test_a_non_finite_table_value_exits_2(tmp_path, capsys, command, candidate, message):
    path = tmp_path / "run.json"
    path.write_text(_run_text(candidate=candidate))
    _exits_2_with(capsys, [command, str(path)], message)


@pytest.mark.parametrize("command", ["evaluate", "el-check", "minimize"])
def test_a_number_past_the_float_range_exits_2(tmp_path, capsys, command):
    path = tmp_path / "run.json"
    path.write_text(_run_text(a=-(10**400)))
    _exits_2_with(capsys, [command, str(path)], "config key 'a' must be finite")
    path.write_text(_run_text(alpha=[10**400]))
    _exits_2_with(capsys, [command, str(path)], "config key 'alpha' must contain finite numbers")


def test_the_valid_run_config_runs(tmp_path, capsys):
    for candidate in (_RUN["candidate"], _TABLE):
        path = tmp_path / "run.json"
        path.write_text(_run_text(candidate=candidate))
        for command in ("evaluate", "el-check"):
            code, _, err = run(capsys, command, str(path))
            assert (code, err) == (0, "")


def test_every_config_error_message_is_pinned():
    # Each ConfigError(...) literal of the CLI, its replacement fields read
    # as wildcards, must match a message the tests above assert.
    import inspect
    import re

    import hahnvar.cli

    literals = re.findall(r'ConfigError\(\s*f?"([^"]*)"', inspect.getsource(hahnvar.cli))
    assert literals
    pinned = [c[-1] for c in CONFIG_FAULTS + CANDIDATE_FAULTS + FLAG_FAULTS]
    for literal in literals:
        pattern = ".*".join(re.escape(part) for part in re.split(r"\{[^{}]*\}", literal))
        assert any(re.fullmatch(pattern, m) for m in pinned), literal


def test_integrate_out_of_max_terms_exits_4(capsys):
    code, out, err = run(
        capsys, "integrate", "--q", "0.5", "--omega", "0.5", "--expr", "t",
        "--a", "-1", "--b", "2", "--max-terms", "3", "--format", "json",
    )
    assert code == 4
    assert json.loads(out)["converged"] is False
    assert err.startswith("series did not converge within 3 terms (tail bound ")
    assert err.count("\n") == 1


def _first_order_run(candidate):
    return {
        "q": 0.5, "omega": 0.5, "a": -1.0, "b": 1.0, "r": 1, "lagrangian": "u1^2",
        "alpha": [0.0], "beta": [0.0], "candidate": {"type": "expr", "value": candidate},
    }


def test_evaluate_says_why_it_exits_4(tmp_path, capsys):
    # Out of terms: the cap is spent.  The kink at omega0 = 1 refuses a jet,
    # so the series walks the orbit.
    cfg = tmp_path / "expr.json"
    cfg.write_text(json.dumps(_first_order_run("abs(t - 1)")))
    code, out, err = run(capsys, "evaluate", str(cfg), "--max-terms", "5", "--format", "json")
    assert code == 4
    assert json.loads(out)["terms_used"] == 5
    assert err == "series did not converge within 5 terms (tail bound 0.0625, 5 terms used)\n"
    # Out of points: a depth-3 table gives orbit a three order-1 windows.
    cfg = tmp_path / "table.json"
    rows = [[origin, n, 0.1 * n] for origin in "ab" for n in range(4)]
    cfg.write_text(json.dumps({
        "q": 0.9, "omega": 0.05, "a": -1.0, "b": 1.0, "r": 1, "lagrangian": "u1^2 + u0^2",
        "alpha": [0.0], "beta": [0.0], "depth": 3,
        "candidate": {"type": "table", "rows": rows, "omega0": 0.5},
    }))
    code, out, err = run(capsys, "evaluate", str(cfg), "--format", "json")
    assert code == 4
    assert json.loads(out)["terms_used"] == 3
    assert err == (
        "series did not converge within 10000 terms (tail bound 3.0941829629629658, 3 terms used)"
        ": an orbit ran out of usable points\n"
    )


def test_a_polynomial_candidate_converges_with_no_term_walked(tmp_path, capsys):
    # The run whose kinked candidate spends the cap above: with t^2 - 1 the
    # series closes from the jet at omega0, within any cap.
    cfg = tmp_path / "expr.json"
    cfg.write_text(json.dumps(_first_order_run("t^2 - 1")))
    code, out, err = run(capsys, "evaluate", str(cfg), "--max-terms", "5", "--format", "json")
    assert (code, err) == (0, "")
    got = json.loads(out)
    assert (got["terms_used"], got["tail_bound"], got["converged"]) == (0, 0, True)
    # u1 = D(t^2 - 1) = 1.5*t + 0.5, and its square integrates to 16/7 over [-1, 1].
    assert got["value"] == pytest.approx(16 / 7, rel=1e-15)


def test_the_builtin_candidate_flag_overrides_the_config_candidate(tmp_path, capsys):
    path = _double_well_config(tmp_path, candidate={"type": "expr", "value": "0"})
    code, out, err = run(
        capsys, "evaluate", path, "--candidate-builtin", "ystar", "--format", "json",
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["value"] == 0.0


def test_demo_beam_in_process(capsys):
    code, out, err = run(capsys, "demo", "beam", "--depth", "12", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["passed"] is True


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("command, least", [("el-check", lambda r: 2 * r + 1),
                                            ("minimize", lambda r: 2 * r + 2)])
def test_a_depth_too_shallow_for_the_order_exits_2(tmp_path, capsys, command, least, r):
    path = tmp_path / "run.json"
    path.write_text(_run_text(r=r, lagrangian=f"u{r}^2", alpha=[0.0] * r, beta=[0.0] * r,
                              depth=least(r) - 1))
    message = f"{command} needs depth >= {least(r)} for order {r}, got {least(r) - 1}"
    _exits_2_with(capsys, [command, str(path)], message)
    _exits_2_with(capsys, [command, str(path), "--depth", "2"],
                  f"{command} needs depth >= {least(r)} for order {r}, got 2")
    budget = ["--max-iters", "1"] if command == "minimize" else []
    code, _, err = run(capsys, command, str(path), "--depth", str(least(r)), *budget)
    assert code in (0, 1) and err == ""


@pytest.mark.parametrize("config, flag, included", [
    (None, False, False), (None, True, True),
    (False, False, False), (False, True, True),
    (True, False, True), (True, True, True),
])
def test_include_omega0_takes_effect_from_the_config_or_the_flag(
    tmp_path, capsys, config, flag, included
):
    path = tmp_path / "run.json"
    path.write_text(_run_text(include_omega0=_DROP if config is None else config))
    argv = ["el-check", str(path), "--format", "json", *(["--include-omega0"] if flag else [])]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["omega0_included"] is included
    assert (report["omega0_residual"] is not None) is included


def test_demo_double_well_reads_include_omega0_only_from_its_flag(capsys):
    from hahnvar import demos

    _, out, _ = run(capsys, "demo", "double-well", "--depth", "12", "--format", "json")
    assert json.loads(out) == json.loads(json.dumps(demos.run_double_well(depth=12)))
    _, out, _ = run(capsys, "demo", "double-well", "--depth", "12", "--include-omega0",
                    "--format", "json")
    want = demos.run_double_well(depth=12, include_omega0=True)
    assert json.loads(out) == json.loads(json.dumps(want))


# A tolerance a subcommand cannot use exits 2 wherever it comes from, as
# the library refuses it: a series tolerance and the minimizer's step
# tolerance must be positive and finite, a residual tolerance finite and
# at least 0.
_DOUBLE_WELL_RUNS = {
    "integrate": ["integrate", "--q", "0.5", "--omega", "0.5", "--expr", "t", "--a", "0", "--b", "1"],
    "evaluate": ["evaluate", "--builtin", "double-well"],
    "el-check": ["el-check", "--builtin", "double-well"],
    "minimize": ["minimize", "--builtin", "double-well", "--depth", "8"],
    "demo": ["demo", "double-well", "--depth", "12"],
}
_UNUSABLE_TOL = [(command, tol) for command in _DOUBLE_WELL_RUNS for tol in ("0", "-1", "nan", "inf")
                 if not (tol == "0" and command in ("el-check", "demo"))]


@pytest.mark.parametrize("command, tol", _UNUSABLE_TOL, ids=[f"{c}-{t}" for c, t in _UNUSABLE_TOL])
def test_an_unusable_tolerance_flag_exits_2(capsys, command, tol):
    code, out, err = run(capsys, *_DOUBLE_WELL_RUNS[command], f"--tol={tol}")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "tol must be" in err


@pytest.mark.parametrize("command", ["evaluate", "el-check", "minimize"])
def test_a_negative_config_tolerance_exits_2(tmp_path, capsys, command):
    code, out, err = run(capsys, command, _double_well_config(tmp_path, tol=-1))
    assert (code, out) == (2, "")
    assert "tol must be" in err


@pytest.mark.parametrize("argv", [_DOUBLE_WELL_RUNS["el-check"], _DOUBLE_WELL_RUNS["demo"]])
def test_a_zero_residual_tolerance_runs(capsys, argv):
    # The double-well minimizer's residuals and boundary errors are exactly 0.
    code, _, err = run(capsys, *argv, "--tol=0")
    assert (code, err) == (0, "")


def test_series_results_and_boundary_violations_keep_their_field_order(tmp_path, capsys):
    # The JSON objects are rendered from the result's own fields, in their order.
    series = ["value", "terms_used", "tail_bound", "converged"]
    _, out, _ = run(capsys, "integrate", "--q", "0.5", "--omega", "0.5", "--expr", "t",
                    "--a", "-1", "--b", "2", "--format", "json")
    assert list(json.loads(out)) == ["q", "omega", "expr", "a", "b", *series]
    _, out, _ = run(capsys, "evaluate", "--builtin", "double-well", "--format", "json")
    assert list(json.loads(out)) == ["problem", *series]
    _, out, _ = run(capsys, "evaluate", "--builtin", "double-well", "--format", "csv")
    assert out.splitlines()[0] == ",".join(series)
    _, out, _ = run(capsys, "demo", "double-well", "--depth", "12", "--format", "json")
    assert list(json.loads(out)["functional"]) == series
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "q": 0.5, "omega": 0.5, "a": -1.0, "b": 2.0, "r": 2, "lagrangian": "u2^2 + u0^2",
        "alpha": [0.0, 2.0], "beta": [3.0, 4.0], "depth": 12,
        "candidate": {"type": "expr", "value": "t^2"},
    }))
    code, out, _ = run(capsys, "el-check", str(path), "--format", "json")
    rows = json.loads(out)["boundary_violations"]
    assert code == 1 and len(rows) == 4
    assert all(list(row) == ["endpoint", "index", "actual", "target", "error"] for row in rows)


@pytest.mark.parametrize("argv", [
    ["deriv", "--q", "0.5", "--omega", "0.5", "--expr", "t^2", "--t", "2"],
    ["el-check", "--builtin", "double-well", "--format", "csv"],
    ["--help"],
    ["deriv", "--help"],
    ["demo", "beam", "--help"],
])
def test_a_closed_stdout_exits_141_in_silence(argv):
    # The read end is closed before the process starts, so its first write
    # of stdout meets no reader: at once when stdout is unbuffered, else at
    # the flush.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    for extra in ({}, {"PYTHONUNBUFFERED": "1"}):
        read_end, write_end = os.pipe()
        os.close(read_end)
        proc = subprocess.Popen([sys.executable, "-m", "hahnvar.cli", *argv],
                                stdout=write_end, stderr=subprocess.PIPE, env=env | extra)
        os.close(write_end)
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err, extra) == (141, b"", extra)


def test_an_unreadable_config_is_an_input_error(tmp_path, capsys):
    code, _, err = run(capsys, "evaluate", str(tmp_path))
    assert code == 2 and err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"
