"""Command-line front end.

Subcommands: deriv, integrate, el-check, evaluate, minimize, demo.
Run configurations are strict JSON, so runs stay reproducible: unknown or
missing keys are errors, each key passes the one check ``_CONFIG_CHECKS``
gives it, and the candidate, from the config or a flag, is checked where
it is resolved.  Command-line flags override config values.

Exit codes are a stable contract:
  0 success / check passed
  1 check failed (residuals or boundary over tolerance, demo failure,
    minimizer did not converge)
  2 input error (flags, config schema, expression syntax, arity)
  3 evaluation error (domain faults, non-finite values, lattice too
    shallow, degenerate stencils)
  4 series non-convergence (integrate / evaluate)
  141 stdout closed before the output was written (no message)

All numbers are rendered with 17 significant digits in json and csv
modes, which round-trips IEEE doubles exactly; json renders a
non-finite number as null, table and csv as inf or nan.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import TYPE_CHECKING, Any, Callable, Sequence

from .core import DEFAULT_DEPTH, DEFAULT_MAX_TERMS, DEFAULT_TOL, GridFunction, HahnParams
from .dsl import Expr, function_of_t, parse, variables
from .errors import ArityError, ConfigError, ExprSyntaxError, HahnvarError, UnknownIdentifier

if TYPE_CHECKING:
    from .variational import Problem

# Each subcommand imports the modules it runs when it runs, so a process
# compiles no module its subcommand does not use.

# Exit 2; ValueError is a value the library rejects (an unreadable config is a ConfigError).
_INPUT_ERRORS = (ConfigError, ExprSyntaxError, UnknownIdentifier, ArityError, ValueError)

_FORMATS = ("table", "json", "csv")


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _fmt_num(x: float) -> str:
    return format(x, ".17g")


def _json_scalar(v: Any) -> str:
    if isinstance(v, float):
        return _fmt_num(v) if math.isfinite(v) else "null"
    return json.dumps(v)


def _emit_json(obj: Any) -> str:
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {_emit_json(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_emit_json(v) for v in obj) + "]"
    return _json_scalar(obj)


def _table_cell(v: Any) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _fmt_num(v)
    return str(v)


def _render_table(report: dict, out: list[str], prefix: str = "") -> None:
    rows_pending: list[tuple[str, list[dict]]] = []
    lists_pending: list[tuple[str, list]] = []
    for key, value in report.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            _render_table(value, out, prefix=f"{name}.")
        elif isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
            rows_pending.append((name, value))
        elif isinstance(value, (list, tuple)):
            lists_pending.append((name, list(value)))
        else:
            out.append(f"{name} = {_table_cell(value)}")
    for name, items in lists_pending:
        for i, v in enumerate(items):
            out.append(f"{name}[{i}] = {_table_cell(v)}")
    for name, rows in rows_pending:
        out.append("")
        out.append(f"[{name}]")
        headers = list(rows[0].keys())
        cells = [[_table_cell(r.get(h, "")) for h in headers] for r in rows]
        widths = [
            max(len(headers[c]), max(len(row[c]) for row in cells)) for c in range(len(headers))
        ]
        out.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
        for row in cells:
            out.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))


def _render_csv(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    for row in rows:
        writer.writerow([_table_cell(v) for v in row])
    return buf.getvalue().rstrip("\n")


def _output(
    args, cfg: dict, report: dict, headers: Sequence[str], rows: Sequence[Sequence[Any]]
) -> None:
    fmt = _setting(args, cfg, "format", "table")
    if fmt == "json":
        print(_emit_json(report))
    elif fmt == "csv":
        print(_render_csv(headers, rows))
    else:
        lines: list[str] = []
        _render_table(report, lines)
        print("\n".join(lines))


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

def _real(value: Any, name: str) -> float:
    """A finite JSON number as a float; an integer past the double range is not finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number")
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{name} must be finite")
    return float(value)


def _reals(value: Any, name: str) -> list[float]:
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be an array of numbers")
    try:
        return [_real(v, name) for v in value]
    except ConfigError:
        raise ConfigError(f"{name} must contain finite numbers") from None


def _must_be(noun: str, test: Callable[[Any], bool]) -> Callable[[Any, str], Any]:
    def check(value: Any, name: str) -> Any:
        if not test(value):
            raise ConfigError(f"{name} must be {noun}")
        return value

    return check


_integer = _must_be("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))

# Each run-config key's check, which returns the value it passes.  The
# candidate is checked where it is resolved.
_CONFIG_CHECKS: dict[str, Callable[[Any, str], Any]] = {
    **dict.fromkeys(("q", "omega", "a", "b", "tol"), _real),
    **dict.fromkeys(("r", "depth", "max_terms"), _integer),
    **dict.fromkeys(("alpha", "beta"), _reals),
    "lagrangian": _must_be("a string", lambda v: isinstance(v, str)),
    "include_omega0": _must_be("a boolean", lambda v: isinstance(v, bool)),
    "format": _must_be(f"one of {', '.join(_FORMATS)}", lambda v: v in _FORMATS),
    "candidate": lambda value, name: value,
}
_REQUIRED_KEYS = ("q", "omega", "a", "b", "r", "lagrangian", "alpha", "beta")


def _load_config(args) -> dict:
    """The run config of ``--builtin`` or the config file, each key checked."""
    if args.builtin:
        from .demos import BUILTIN_CONFIGS

        name = args.builtin
        if name not in BUILTIN_CONFIGS:
            raise ConfigError(
                f"unknown builtin config {name!r}; choose from {', '.join(BUILTIN_CONFIGS)}"
            )
        cfg = BUILTIN_CONFIGS[name]
    elif args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        except OSError as exc:
            raise ConfigError(str(exc)) from exc
    else:
        raise ConfigError("provide a config file or --builtin NAME")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(cfg) - set(_CONFIG_CHECKS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    missing = [k for k in _REQUIRED_KEYS if k not in cfg]
    if missing:
        raise ConfigError(f"missing config keys: {', '.join(missing)}")
    return {key: _CONFIG_CHECKS[key](value, f"config key {key!r}") for key, value in cfg.items()}


def _build_problem(cfg: dict) -> Problem:
    from .variational import Problem

    return Problem(
        params=HahnParams(cfg["q"], cfg["omega"]),
        r=cfg["r"],
        a=cfg["a"],
        b=cfg["b"],
        alpha=cfg["alpha"],
        beta=cfg["beta"],
        lagrangian=cfg["lagrangian"],
    )


def _expr_of_t(source: str) -> Expr:
    tree = parse(source)
    others = sorted(variables(tree) - {"t"})
    if others:
        raise ConfigError(f"candidate expression may only use t, found {others[0]!r}")
    return tree


def _table_candidate(problem: Problem, entry: dict, depth: int) -> GridFunction:
    unknown = set(entry) - {"type", "rows", "omega0"}
    if unknown:
        raise ConfigError(f"unknown table candidate keys: {', '.join(sorted(unknown))}")
    rows = entry.get("rows")
    if not isinstance(rows, list):
        raise ConfigError("table candidate needs a 'rows' array")
    if "omega0" not in entry:
        raise ConfigError("table candidate needs an 'omega0' value")
    fixed = _real(entry["omega0"], "table candidate 'omega0'")
    values: dict[str, dict[int, float]] = {"a": {}, "b": {}}
    for row in rows:
        if not (isinstance(row, list) and len(row) == 3):
            raise ConfigError("table rows must be [origin, n, value] triples")
        origin, n, value = row
        if origin not in values:
            raise ConfigError(f"table row origin must be 'a' or 'b', got {origin!r}")
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise ConfigError(f"table row index must be a nonnegative integer, got {n!r}")
        try:
            value = _real(value, "table row value")
        except ConfigError as exc:
            raise ConfigError(f"{exc}, got {value!r}") from None
        if n in values[origin]:
            raise ConfigError(f"duplicate table row for ({origin!r}, {n})")
        values[origin][n] = value
    for origin, got in values.items():
        missing = [str(n) for n in range(depth + 1) if n not in got]
        if missing:
            raise ConfigError(
                f"table candidate misses orbit {origin!r} indices: {', '.join(missing[:8])}"
                + ("..." if len(missing) > 8 else "")
            )
    return GridFunction(
        problem.lattice(depth),
        values_a=[values["a"][n] for n in range(depth + 1)],
        values_b=[values["b"][n] for n in range(depth + 1)],
        value_at_fixed=fixed,
    )


def _resolve_candidate(args, cfg: dict, problem: Problem, depth: int):
    entry = cfg.get("candidate")
    if args.candidate_expr is not None:
        entry = {"type": "expr", "value": args.candidate_expr}
    elif args.candidate_builtin is not None:
        entry = {"type": "builtin", "name": args.candidate_builtin}
    if entry is None:
        raise ConfigError("config has no candidate; add one or pass --candidate-expr")
    if not isinstance(entry, dict) or "type" not in entry:
        raise ConfigError("candidate must be an object with a 'type' tag")
    kind = entry["type"]
    if kind == "expr":
        if set(entry) != {"type", "value"} or not isinstance(entry.get("value"), str):
            raise ConfigError("expr candidate must be {'type': 'expr', 'value': string}")
        return _expr_of_t(entry["value"])
    if kind == "builtin":
        from . import demos

        if set(entry) != {"type", "name"} or entry.get("name") not in demos.BUILTIN_CANDIDATES:
            raise ConfigError(
                f"builtin candidate must name one of: {', '.join(demos.BUILTIN_CANDIDATES)}"
            )
        return getattr(demos, entry["name"])  # at call time, so a traced run sees its wrapper
    if kind == "table":
        return _table_candidate(problem, entry, depth)
    raise ConfigError(f"unknown candidate type {kind!r}")


def _setting(args, cfg: dict, key: str, default):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    return cfg.get(key, default)


def _depth(args, cfg: dict, least: int, r: int) -> int:
    """The run's depth; one below the least the subcommand accepts for
    order r is an input error."""
    depth = _setting(args, cfg, "depth", DEFAULT_DEPTH)
    if depth < least:
        raise ConfigError(f"{args.command} needs depth >= {least} for order {r}, got {depth}")
    return depth


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_deriv(args) -> int:
    from .operators import hahn_derivative_n

    if args.order < 0:
        raise ConfigError("--order must be nonnegative")
    params = HahnParams(args.q, args.omega)
    expr = _expr_of_t(args.expr)
    value = hahn_derivative_n(params, expr, args.order, args.t)
    report = {
        "q": args.q,
        "omega": args.omega,
        "expr": args.expr,
        "t": args.t,
        "order": args.order,
        "value": value,
    }
    _output(args, {}, report, list(report.keys()), [list(report.values())])
    return 0


def _cmd_integrate(args) -> int:
    from .integrals import integral

    params = HahnParams(args.q, args.omega)
    expr = _expr_of_t(args.expr)
    tol = args.tol if args.tol is not None else DEFAULT_TOL
    max_terms = args.max_terms if args.max_terms is not None else DEFAULT_MAX_TERMS
    result = integral(params, function_of_t(expr), args.a, args.b, tol, max_terms)
    report = {
        "q": args.q,
        "omega": args.omega,
        "expr": args.expr,
        "a": args.a,
        "b": args.b,
        **vars(result),
    }
    _output(args, {}, report, list(report.keys()), [list(report.values())])
    return 0 if result.converged else _unconverged(result, max_terms)


def _unconverged(result, max_terms: int) -> int:
    """Exit 4, saying on stderr why: the terms used of the cap and the tail
    bound, and whether an orbit ran out of usable points first."""
    short = ": an orbit ran out of usable points" if result.terms_used < max_terms else ""
    print(f"series did not converge within {max_terms} terms (tail bound "
          f"{_fmt_num(result.tail_bound)}, {result.terms_used} terms used){short}", file=sys.stderr)
    return 4


def _problem_echo(problem: Problem) -> dict:
    return {
        "q": problem.params.q,
        "omega": problem.params.omega,
        "a": problem.a,
        "b": problem.b,
        "r": problem.r,
        "lagrangian": str(problem.lagrangian),
    }


def _cmd_evaluate(args) -> int:
    from .variational import functional_value

    cfg = _load_config(args)
    problem = _build_problem(cfg)
    depth = _setting(args, cfg, "depth", DEFAULT_DEPTH)
    tol = _setting(args, cfg, "tol", DEFAULT_TOL)
    max_terms = _setting(args, cfg, "max_terms", DEFAULT_MAX_TERMS)
    candidate = _resolve_candidate(args, cfg, problem, depth)
    result = functional_value(problem, candidate, tol=tol, max_terms=max_terms)
    report = {"problem": _problem_echo(problem), **vars(result)}
    _output(args, cfg, report, list(vars(result)), [list(vars(result).values())])
    return 0 if result.converged else _unconverged(result, max_terms)


def _cmd_el_check(args) -> int:
    from .variational import el_report

    cfg = _load_config(args)
    problem = _build_problem(cfg)
    depth = _depth(args, cfg, 2 * problem.r + 1, problem.r)
    tol = _setting(args, cfg, "tol", 1e-9)
    include_omega0 = _setting(args, cfg, "include_omega0", False)
    candidate = _resolve_candidate(args, cfg, problem, depth)
    report = el_report(problem, candidate, depth=depth, tol=tol, include_omega0=include_omega0)
    residual_rows = [
        {"origin": point.origin.value, "n": point.n, "residual": value}
        for point, value in sorted(
            report.residuals.items(), key=lambda kv: (kv[0].origin.value, kv[0].n)
        )
    ]
    out = {
        "problem": _problem_echo(problem),
        "depth": depth,
        "tol": tol,
        "max_abs_residual": report.max_abs_residual,
        "depth_used": report.depth_used,
        "omega0_included": report.omega0_included,
        "omega0_residual": report.omega0_residual,
        "passed": report.passed,
        "boundary_violations": [vars(v) for v in report.boundary_violations],
        "residuals": residual_rows,
    }
    _output(
        args,
        cfg,
        out,
        ["origin", "n", "residual"],
        [[r["origin"], r["n"], r["residual"]] for r in residual_rows],
    )
    return 0 if report.passed else 1


def _cmd_minimize(args) -> int:
    from .minimize import minimize_direct

    cfg = _load_config(args)
    problem = _build_problem(cfg)
    depth = _depth(args, cfg, 2 * problem.r + 2, problem.r)
    step_tol = _setting(args, cfg, "tol", 1e-10)
    seed = args.seed if args.seed is not None else 0
    result = minimize_direct(
        problem,
        depth=depth,
        seed=seed,
        max_iters=args.max_iters,
        step_tol=step_tol,
    )
    report = {
        "problem": _problem_echo(problem),
        "depth": depth,
        "seed": seed,
        "objective": result.objective,
        "functional": result.functional,
        "converged": result.converged,
        "iterations": result.iterations,
        "boundary_violation_norm": result.boundary_violation_norm,
        "penalty_weight": result.penalty_weight,
        "history": result.history,
    }
    _output(
        args,
        cfg,
        report,
        ["iteration", "objective"],
        [[i, v] for i, v in enumerate(result.history)],
    )
    return 0 if result.converged else 1


def _cmd_demo(args) -> int:
    from . import demos

    kwargs: dict[str, Any] = {}
    double_well = args.name == "double-well"
    r = demos.BUILTIN_CONFIGS["double-well"]["r"] if double_well else demos.BEAM_ORDER
    if args.depth is not None:
        kwargs["depth"] = _depth(args, {}, 2 * r + 1, r)
    if double_well:
        if args.seed is not None:
            kwargs["seed"] = args.seed
        if args.tol is not None:
            kwargs["tol"] = args.tol
        kwargs["include_omega0"] = bool(args.include_omega0)
        report = demos.run_double_well(**kwargs)
        rows = [[k, v] for k, v in report["functional"].items()]
        _output(args, {}, report, ["field", "value"], rows)
    else:
        report = demos.run_beam(**kwargs)
        _output(
            args,
            {},
            report,
            ["q", "omega", "max_abs_residual"],
            [[c["q"], c["omega"], c["max_abs_residual"]] for c in report["cases"]],
        )
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# Flags taking a real value.  argparse reads a separate token such as
# "-3.1e-05" as an option (only plain forms like "-0.5" count as negative
# numbers), so such values are joined to their flag before parsing.
_REAL_FLAGS = ("--q", "--omega", "--t", "--a", "--b", "--tol")


def _is_real(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _join_negative_values(argv: Sequence[str]) -> list[str]:
    """Rewrite "--t -3.1e-05" as "--t=-3.1e-05" for the real-valued flags."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _REAL_FLAGS and token.startswith("-") and _is_real(token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


# The flags several subcommands share; each subcommand accepts only those it reads.
_SHARED_FLAGS: dict[str, dict[str, Any]] = {
    "--format": dict(choices=_FORMATS, default=None, help="output format"),
    "--tol": dict(type=float, default=None, help="tolerance override"),
    "--depth": dict(type=int, default=None, help="lattice depth override"),
    "--max-terms": dict(dest="max_terms", type=int, default=None),
    "--seed": dict(type=int, default=None, help="rng seed where applicable"),
    "--include-omega0": dict(
        action="store_true",
        default=None,
        help="also check the extrapolated residual at the fixed point",
    ),
}


def _add_flags(p: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        p.add_argument(flag, **_SHARED_FLAGS[flag])


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose messages, --help's text among them, raise
    OSError rather than drop it, so a closed stdout exits 141 here too."""

    def _print_message(self, message: str, file=None) -> None:
        if message:
            (file or sys.stderr).write(message)


def _build_parser() -> argparse.ArgumentParser:
    config_src = argparse.ArgumentParser(add_help=False)
    config_src.add_argument("config", nargs="?", help="path to a JSON run config")
    config_src.add_argument("--builtin", help="use a named builtin config (double-well)")
    # minimize starts from its own guess, so only evaluate and el-check take these.
    candidate_src = argparse.ArgumentParser(add_help=False)
    candidate_src.add_argument("--candidate-expr",
                               help="override candidate with an expression of t")
    candidate_src.add_argument("--candidate-builtin", help="override candidate with a builtin name")

    parser = _Parser(
        prog="hahnvar",
        description="Quantum-lattice variational calculus: derivatives, integrals, "
        "stationarity checks, and a Newton minimizer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("deriv", help="lattice derivative of an expression")
    _add_flags(p, "--format")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--expr", required=True, help="expression in t")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--order", type=int, default=1)
    p.set_defaults(func=_cmd_deriv)

    p = sub.add_parser("integrate", help="lattice integral of an expression")
    _add_flags(p, "--format", "--tol", "--max-terms")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--expr", required=True, help="expression in t")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.set_defaults(func=_cmd_integrate)

    p = sub.add_parser("evaluate", parents=[config_src, candidate_src],
                       help="functional value of a candidate")
    _add_flags(p, "--format", "--tol", "--depth", "--max-terms")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("el-check", parents=[config_src, candidate_src],
                       help="stationarity residual report")
    _add_flags(p, "--format", "--tol", "--depth", "--include-omega0")
    p.set_defaults(func=_cmd_el_check)

    p = sub.add_parser("minimize", parents=[config_src], help="damped Newton minimization")
    _add_flags(p, "--format", "--tol", "--depth", "--seed")
    p.add_argument("--max-iters", dest="max_iters", type=int, default=5000,
                   help="Newton iteration budget (--tol: step tolerance)")
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("demo", help="run a built-in demonstration")
    demos = p.add_subparsers(dest="name", required=True)
    _add_flags(demos.add_parser("double-well"),
               "--format", "--tol", "--depth", "--seed", "--include-omega0")
    _add_flags(demos.add_parser("beam"), "--format", "--depth")
    p.set_defaults(func=_cmd_demo)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
        except SystemExit:  # as after --help: its text meets a closed stdout here, not at exit
            sys.stdout.flush()
            raise
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # nothing reads stdout: exit as for SIGPIPE, silent at exit
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HahnvarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
