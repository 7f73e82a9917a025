"""Command-line contract: exit codes, formats, reproducibility."""

import json
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
        "minimize", "--builtin", "double-well", "--candidate-expr", "0",
        "--depth", "10", "--seed", "5", "--max-iters", "40", "--format", "json",
    ]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert out1 == out2
    assert json.loads(out1)["history"] == json.loads(out2)["history"]


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
    from hahnvar.cli import _BUILTIN_CONFIGS, _build_problem
    from hahnvar.demos import double_well_problem

    assert _build_problem(_BUILTIN_CONFIGS["double-well"]) == double_well_problem()


def _double_well_config(tmp_path, **extra):
    from hahnvar.cli import _BUILTIN_CONFIGS

    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({**_BUILTIN_CONFIGS["double-well"], "depth": 12, **extra}))
    return str(cfg)


@pytest.mark.parametrize("command", ["evaluate", "el-check", "minimize"])
def test_config_format_applies_and_the_flag_overrides_it(tmp_path, capsys, command):
    path = _double_well_config(tmp_path, format="json")
    _, out, _ = run(capsys, command, path)
    assert isinstance(json.loads(out), dict)
    _, out, _ = run(capsys, command, path, "--format", "table")
    assert out.startswith("problem.q = ")


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_json_renders_an_unbounded_tail_as_null(tmp_path, capsys):
    # The b orbit merges before its first r-window, so its tail bound is inf.
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "q": 0.5, "omega": 0.5, "a": -1.0, "b": 1.0000000000000002, "r": 2,
        "lagrangian": "u2^2", "alpha": [0.0, 0.0], "beta": [0.0, 0.0],
        "candidate": {"type": "expr", "value": "0"},
    }))
    code, out, _ = run(capsys, "evaluate", str(cfg), "--format", "json")
    assert code == 4
    assert json.loads(out, parse_constant=_reject_constant)["tail_bound"] is None
    code, out, _ = run(capsys, "evaluate", str(cfg), "--format", "csv")
    assert code == 4
    assert out.splitlines()[1].split(",")[2] == "inf"
