"""Benchmark workloads: inputs made from a seed, one op per library call,
and a stated reference check for every op.

Each workload is an endless stream of *rounds*; a round is a fixed
sequence of op kinds whose parameters are drawn from the workload seed.
The harness always runs whole rounds, so the mix of op kinds in a run is
exact and only the drawn parameters change with the seed.  Rounds are
drawn as the run needs them, so no drawn input repeats within a run; the
ops with fixed inputs (ystar, the double-well el_report and minimizer
runs) are listed in design.json.

Every op of a workload passes its check at the seed commit, whatever the
seed: an op that fails is a regression and makes the run's `correct`
false.  The cases that fail today because of defects recorded in the
ROADMAP are kept out of the timed rounds and run by ``defect_ops``
instead (``python3 bench/run.py --defects``), one fixed case per defect.

Ops look library functions up through the package namespaces at call
time (``hv.functional_value``, ``hv.demos.ystar``), never through
references captured while building inputs, so the traced run sees every
call through its wrappers.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

import hahnvar as hv
import hahnvar.demos  # noqa: F401  (binds hv.demos)

# Reference errors below this are roundoff; objective_p50 floors at it so
# that roundoff-level results compare equal.  Errors against an exact
# reference value are floored higher, at the op's own pass tolerance.
ERROR_FLOOR = 1e-12

# Relative tolerance for ops with an exact reference value.
EXACT_RTOL = 1e-9

# Residual tolerance of the double-well el_report, in the library and in
# `hahnvar el-check --builtin double-well`.
EL_TOL = 1e-9

# first_variation against first_variation_fd: the bound of acceptance test 6.
FV_RTOL = 1e-6

# A beam residual at depth 40 or 64 may exceed the depth-16 residual at the
# same (q, omega, E, xi) by at most this factor.  Without roundoff the ratio
# stays within 1.4x; roundoff scatters it up to ~2x at q = 0.9, depth 64
# (past 2x about once in 1,200 draws), and by ~1e29 at q = 0.5.
BEAM_GROWTH = 2.0

# Minimizer bounds of acceptance test 10.
MIN_BOUND = {"convex": 1e-6, "double_well": 1e-2}

# Pattern search stops once its steps fall below 1e-10 of the value scale,
# and the objective it stops at scatters from 1e-10 to about 1e-8 with the
# minimizer seed (double-well depth 8, seed 7: 9.0e-9).  Objectives below
# this floor compare equal in objective_p50, as roundoff does elsewhere.
MIN_FLOOR = 2e-8

# Defects recorded in the ROADMAP, by the kind of the case that shows
# each one in defect_ops.  None of these cases is part of a workload.
KNOWN_DEFECTS = {
    "r2_quad": "r=2 functional is roundoff garbage reported as converged (ROADMAP 3)",
    "fv_r2": "r=2 first_variation disagrees with first_variation_fd (ROADMAP 3)",
    "beam_q0.5_d40": "q=0.5 beam residual blows up to ~1e29 at depth 40 (ROADMAP 3)",
    "beam_q0.5_d64": "q=0.5 beam el_report raises DegenerateDenominator at depth 64 (ROADMAP 3)",
    "beam_q0.9_d64": "q=0.9 beam residual at depth 64 exceeds 2x depth 16, by roundoff, ~1 draw in 1200 (ROADMAP 3)",
    "double_well_d12": "pattern search stops at 5000 sweeps, not converged (ROADMAP 5)",
    "convex": "pattern search stops unconverged at 5000 sweeps for a few minimizer seeds in 1000 (ROADMAP 5)",
    "evaluate_r2": "r=2 functional through the CLI, same defect as r2_quad (ROADMAP 3)",
    "deriv2": "second lattice derivative 1e-4 from omega0 misses the 1e-9 check by roundoff (ROADMAP 3)",
}


@dataclass
class Op:
    """One closed-loop operation.

    ``call`` does the timed work and returns its result.  ``check`` maps
    the result to (passed, error): error is the distance from an exact
    reference value, or None when the check is not a distance.
    """

    kind: str
    spec: str
    call: Callable[[], Any]
    check: Callable[[Any], tuple[bool, float | None]]


def _close(value: float, exact: float) -> tuple[bool, float]:
    """Pass within EXACT_RTOL of `exact`.  The error reported is relative,
    |value - exact| / (1 + |exact|), and floored at EXACT_RTOL, so that all
    roundoff within the tolerance reads the same."""
    err = abs(value - exact) / (1.0 + abs(exact))
    return err <= EXACT_RTOL, max(err, EXACT_RTOL)


# ---------------------------------------------------------------------------
# Lattice parameters
# ---------------------------------------------------------------------------

def _short_q(rng: random.Random) -> float:
    """q near 0.5: about 40 series terms at the default tolerance."""
    return rng.uniform(0.45, 0.55)


def _long_qs(rng: random.Random, n: int) -> list[float]:
    """n values of q with 1 - q log-uniform over [0.01, 0.1] (270 to 2,800
    series terms), stratified so every run sees the same spread of orbit
    lengths and only their order and exact values follow the seed."""
    qs = [1.0 - 10.0 ** -(1.0 + (k + rng.random()) / n) for k in range(n)]
    rng.shuffle(qs)
    return qs


def _interval(rng: random.Random, q: float) -> tuple[float, float, float]:
    """(omega, a, b) with omega0 in [0.5, 1.5] and both endpoints 1 to 2.5
    away from it, so neither orbit is degenerate."""
    w0 = rng.uniform(0.5, 1.5)
    return w0 * (1.0 - q), w0 - rng.uniform(1.0, 2.5), w0 + rng.uniform(1.0, 2.5)


def _grid_depth(q: float) -> int:
    """Depth at which a grid candidate outlasts a 1e-12 series tail."""
    return math.ceil(math.log(1e-14) / math.log(q)) + 10


# ---------------------------------------------------------------------------
# series: functional_value and integral
# ---------------------------------------------------------------------------

# Kinds whose (q, omega) comes from the short/long draw; two of them run on
# a long orbit in every round, rotating so each kind is long in two rounds
# of five.  r2_quad is built here too, but only for defect_ops.
_SERIES_PARAM_KINDS = ("lin_callable", "lin_dsl", "lin_grid", "rt_callable", "rt_dsl")


def _series_dw_ops(grid) -> list[Op]:
    def dw_grid_check(res):
        # The double-well integrand is a product of squares: never negative.
        return res.converged and res.value >= -1e-10, None

    def ystar_check(res):
        return res.converged and abs(res.value) <= ERROR_FLOOR, abs(res.value)

    return [
        Op("dw_grid", "double-well on a random admissible grid",
           lambda: hv.functional_value(hv.demos.double_well_problem(), grid), dw_grid_check),
        Op("dw_ystar", "double-well at ystar",
           lambda: hv.functional_value(hv.demos.double_well_problem(), hv.demos.ystar),
           ystar_check),
    ]


def _series_param_op(kind: str, rng: random.Random, q: float) -> Op:
    omega, a, b = _interval(rng, q)
    spec = f"{kind} q={q!r} omega={omega!r} a={a!r} b={b!r}"
    if kind.startswith("lin"):
        # u1^2 on a line: D y = c1 exactly, so the functional is c1^2 (b - a).
        c0, c1 = rng.uniform(-1.0, 1.0), rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 1.0)
        exact = c1 * c1 * (b - a)
        source = f"{c0!r} + {c1!r}*t"

        def line(t):
            return c0 + c1 * t

        def problem():
            return hv.Problem(hv.HahnParams(q, omega), 1, a, b, (line(a),), (line(b),), "u1^2")

        if kind == "lin_callable":
            candidate = line
        elif kind == "lin_dsl":
            candidate = source
        else:
            candidate = hv.materialize(problem(), line, _grid_depth(q))

        def call():
            return hv.functional_value(problem(), candidate)

    elif kind.startswith("rt"):
        # Round trip: the integral of D[g] over [a, b] is g(b) - g(a).
        cs = [rng.uniform(-1.0, 1.0) for _ in range(4)]
        source = f"{cs[0]!r} + {cs[1]!r}*t + {cs[2]!r}*t^2 + {cs[3]!r}*t^3"

        def g(t):
            return cs[0] + cs[1] * t + cs[2] * t * t + cs[3] * t * t * t

        exact = g(b) - g(a)

        def call():
            params = hv.HahnParams(q, omega)
            if kind == "rt_callable":
                fn = g
            else:
                expr = hv.parse(source)
                fn = lambda s: hv.evaluate(expr, {"t": s})  # noqa: E731
            return hv.integral(params, lambda t: hv.hahn_derivative(params, fn, t), a, b)

    else:
        # r2_quad: u2^2 on a quadratic, whose second lattice derivative is the
        # constant c2*(1+q), so the functional is exactly (c2*(1+q))^2 * (b - a).
        c0, c1 = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        c2 = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.3)
        exact = (c2 * (1.0 + q)) ** 2 * (b - a)
        source = f"{c0!r} + {c1!r}*t + {c2!r}*t^2"

        def y(t):
            return c0 + c1 * t + c2 * t * t

        def dy(t):
            return c1 + c2 * ((1.0 + q) * t + omega)

        def call():
            problem = hv.Problem(hv.HahnParams(q, omega), 2, a, b, (y(a), dy(a)), (y(b), dy(b)),
                                 "u2^2")
            return hv.functional_value(problem, source)

    def check(res):
        ok, err = _close(res.value, exact)
        return ok and res.converged, err

    return Op(kind, f"{spec} {source}", call, check)


# Rounds per block of series long-orbit draws: each parametric kind runs on
# a long orbit 2 * SERIES_BLOCK / 5 times per block, one per stratum of length.
SERIES_BLOCK = 30


def _series(rng: random.Random) -> Iterator[list[Op]]:
    dw = hv.demos.double_well_problem()
    while True:
        long_q = {kind: _long_qs(rng, 2 * SERIES_BLOCK // 5) for kind in _SERIES_PARAM_KINDS}
        for k in range(SERIES_BLOCK):
            long_kinds = {_SERIES_PARAM_KINDS[k % 5], _SERIES_PARAM_KINDS[(k + 1) % 5]}
            ops = _series_dw_ops(hv.demos.random_admissible_grid(dw, rng))
            for kind in _SERIES_PARAM_KINDS:
                q = long_q[kind].pop() if kind in long_kinds else _short_q(rng)
                ops.append(_series_param_op(kind, rng, q))
            yield ops


# ---------------------------------------------------------------------------
# stationarity: el_report and first_variation
# ---------------------------------------------------------------------------

def _rand_problem_spec(rng: random.Random, r: int) -> dict:
    """Random well-conditioned order-r problem, drawn like the test suite's
    rand_problem: quadratic in the slots with one cross term."""
    q = rng.uniform(0.50, 0.68)
    omega = rng.uniform(0.3, 1.0)
    w0 = omega / (1.0 - q)
    a = w0 - rng.uniform(1.5, 2.5)
    b = w0 + rng.uniform(1.5, 2.5)
    terms = ["0.3*t"]
    for i in range(r + 1):
        terms.append(f"{rng.uniform(-0.6, 0.6)!r}*u{i}^2")
        terms.append(f"{rng.uniform(-0.4, 0.4)!r}*u{i}")
    terms.append(f"{rng.uniform(-0.3, 0.3)!r}*u0*u{rng.randrange(r + 1)}")
    alpha = tuple(rng.uniform(-0.5, 0.5) for _ in range(r))
    beta = tuple(rng.uniform(-0.5, 0.5) for _ in range(r))
    return {"q": q, "omega": omega, "r": r, "a": a, "b": b, "alpha": alpha, "beta": beta,
            "lagrangian": " + ".join(terms)}


def _problem(spec: dict):
    return hv.Problem(hv.HahnParams(spec["q"], spec["omega"]), spec["r"], spec["a"], spec["b"],
                      spec["alpha"], spec["beta"], spec["lagrangian"])


def _grid_variation(problem, rng: random.Random):
    """Variation vanishing to order r at both endpoints, decaying like
    q^(r*n) so every quotient the integrand takes stays bounded."""
    q, r = problem.params.q, problem.r
    depth = 120
    va = [0.3 * q ** (r * n) * rng.uniform(-1.0, 1.0) for n in range(depth + 1)]
    vb = [0.3 * q ** (r * n) * rng.uniform(-1.0, 1.0) for n in range(depth + 1)]
    for i in range(r):
        va[i] = vb[i] = 0.0
    return hv.GridFunction(problem.lattice(depth), va, vb, 0.0)


def _fv_op(rng: random.Random, r: int) -> Op:
    spec = _rand_problem_spec(rng, r)
    cs = [rng.uniform(-0.5, 0.5) for _ in range(4)]
    eta = _grid_variation(_problem(spec), rng)

    def y(t):
        return cs[0] + cs[1] * t + cs[2] * t * t + cs[3] * t * t * t

    def call():
        problem = _problem(spec)
        return hv.first_variation(problem, y, eta), hv.first_variation_fd(problem, y, eta)

    def check(res):
        fv, fd = res
        return fv.converged and abs(fv.value - fd) <= FV_RTOL * (1.0 + abs(fd)), None

    return Op(f"fv_r{r}", f"fv_r{r} {spec} y={cs}", call, check)


def _beam_ops(q: float, omega: float, elastic: float, load: float,
              depths: tuple[int, ...] = (16, 40, 64)) -> list[Op]:
    """el_report on the beam at depth 16 and the deeper `depths`; the deeper
    reports are checked against the depth-16 residual of the same round."""
    ref: dict[str, float] = {}

    def call_at(depth):
        def call():
            problem, candidate = hv.demos.beam_problem(q, omega, elastic, load)
            return hv.el_report(problem, candidate, depth=depth, tol=1e-6)
        return call

    def check_at(depth):
        def check(rep):
            m = rep.max_abs_residual
            ok = math.isfinite(m) and not rep.boundary_violations
            if depth == 16:
                ref["d16"] = m
                return ok, None
            return ok and "d16" in ref and m <= BEAM_GROWTH * ref["d16"], None
        return check

    spec = f"q={q!r} omega={omega!r} E={elastic!r} xi={load!r}"
    return [
        Op(f"beam_q{q}_d{depth}", f"beam {spec} depth={depth}", call_at(depth), check_at(depth))
        for depth in depths
    ]


def _dw_el_op(include_omega0: bool) -> Op:
    def call():
        return hv.el_report(hv.demos.double_well_problem(), hv.demos.ystar, depth=40,
                            include_omega0=include_omega0)

    def check(rep):
        return (rep.passed and rep.max_abs_residual <= EL_TOL,
                max(rep.max_abs_residual, EL_TOL))

    kind = "dw_el_omega0" if include_omega0 else "dw_el"
    return Op(kind, f"double-well el_report depth=40 include_omega0={include_omega0}", call, check)


# Beam depths per (q, omega) of BEAM_SEQUENCE in the timed rounds.  The
# q = 0.9 beam leaves out depth 64, where roundoff fails the growth check
# for about one (E, xi) draw in 1,200 (defect_ops has such a draw).
_BEAM_DEPTHS = {0.9: (16, 40)}

# r=1 first-variation ops per round.
FV_PER_ROUND = 2


def _stationarity(rng: random.Random) -> Iterator[list[Op]]:
    while True:
        ops = [_dw_el_op(False), _dw_el_op(True)]
        elastic, load = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        for q, omega in hv.demos.BEAM_SEQUENCE:
            ops.extend(_beam_ops(q, omega, elastic, load, _BEAM_DEPTHS.get(q, (16, 40, 64))))
        ops.extend(_fv_op(rng, 1) for _ in range(FV_PER_ROUND))
        yield ops


# ---------------------------------------------------------------------------
# minimize: minimize_direct
# ---------------------------------------------------------------------------

def _convex_problem():
    return hv.Problem(hv.HahnParams(0.5, 0.5), 1, -1.0, 2.0, (0.0,), (0.0,), "u1^2")


def _minimize_op(kind: str, depth: int, seed: int) -> Op:
    bound = MIN_BOUND["convex" if kind == "convex" else "double_well"]

    def call():
        problem = _convex_problem() if kind == "convex" else hv.demos.double_well_problem()
        return hv.minimize_direct(problem, depth=depth, seed=seed)

    def check(res):
        # Both problems have minimum 0, so the objective is the error.
        return res.converged and res.objective <= bound, max(res.objective, MIN_FLOOR)

    name = "convex" if kind == "convex" else f"double_well_d{depth}"
    return Op(name, f"{name} depth={depth} seed={seed}", call, check)


# The double-well ops use minimizer seed 7, that of acceptance test 10 and
# the ROADMAP baselines.  Over other minimizer seeds depth 8 stops
# unconverged at 5000 sweeps about two times in three (objective ~2e-6
# against ~7e-9), which would make each run's medians jump between the two
# outcomes; the workload seed varies the convex ops' minimizer seeds instead.
DOUBLE_WELL_SEED = 7

# Minimizer seeds of the convex problem (u1^2, q = omega = 0.5, depth 12),
# with the sweeps pattern search takes on each: convex_seeds.json holds
# every seed below 1000 on which it converges, and lists the two on which
# it stops unconverged at 5000 sweeps (a ROADMAP item 5 defect, shown by
# defect_ops).
CONVEX_SEEDS = json.loads((Path(__file__).resolve().parent / "convex_seeds.json").read_text())

# Sweeps are 87 to 486 for all but 15 of the converging seeds, and 570 to
# 3,610 for those 15.  A run draws a few dozen seeds, so it would hold none
# or one of the 15 and its throughput would jump by up to 15 %; the draws
# leave them out.
CONVEX_MAX_SWEEPS = 500

# Strata of convex seeds by their sweep count.
CONVEX_STRATA = 12


def _convex_seeds(rng: random.Random) -> Iterator[int]:
    """Convex minimizer seeds, one from each stratum of sweep counts per
    CONVEX_STRATA draws in shuffled order, so every run sees the same spread
    of search lengths; no seed is drawn twice until a stratum runs out."""
    sweeps = {seed: n for seed, n in CONVEX_SEEDS["sweeps"].items() if n <= CONVEX_MAX_SWEEPS}
    ranked = sorted(sweeps, key=lambda seed: (sweeps[seed], int(seed)))
    size = len(ranked) // CONVEX_STRATA
    strata = [ranked[i * size:(i + 1) * size] for i in range(CONVEX_STRATA)]
    while True:
        pools = [rng.sample(stratum, len(stratum)) for stratum in strata]
        for _ in range(size):
            order = list(range(CONVEX_STRATA))
            rng.shuffle(order)
            for i in order:
                yield int(pools[i].pop())


# Convex ops per minimize round, beside one double-well op: the median op
# then lies inside the convex cluster and the 90th percentile inside the
# double-well one.
CONVEX_PER_ROUND = 3


def _minimize(rng: random.Random) -> Iterator[list[Op]]:
    seeds = _convex_seeds(rng)
    while True:
        ops = [_minimize_op("convex", 12, next(seeds)) for _ in range(CONVEX_PER_ROUND)]
        ops.append(_minimize_op("double_well", 8, DOUBLE_WELL_SEED))
        yield ops


# ---------------------------------------------------------------------------
# cli: one `python -m hahnvar.cli` subprocess per op
# ---------------------------------------------------------------------------

@dataclass
class CliResult:
    code: int
    stdout: str


class CliRunner:
    """Runs argv through the CLI, as a subprocess or in this process.

    The subprocess form is what a user pays; the in-process form exists
    for the traced run, where wrappers installed here must see the calls.
    """

    def __init__(self, root: Path, in_process: bool = False):
        self.root = root
        self.in_process = in_process
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.max_child_rss_kb = 0

    def __call__(self, argv: list[str]) -> CliResult:
        if self.in_process:
            import contextlib
            import io

            import hahnvar.cli

            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = hahnvar.cli.main(argv)
            return CliResult(code, out.getvalue())
        proc = subprocess.Popen(
            [sys.executable, "-m", "hahnvar.cli", *argv],
            cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            out = proc.stdout.read()
        except BaseException:
            proc.kill()
            raise
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_child_rss_kb = max(self.max_child_rss_kb, usage.ru_maxrss)
        return CliResult(proc.returncode, out)


def _cli_json(res: CliResult) -> dict | None:
    if res.code != 0:
        return None
    try:
        out = json.loads(res.stdout)
    except ValueError:
        return None
    return out if isinstance(out, dict) else None


def _cli_op(kind: str, spec: str, argv: list[str], runner: CliRunner,
            check: Callable[[dict], tuple[bool, float | None]]) -> Op:
    def wrapped(res):
        report = _cli_json(res)
        return (False, None) if report is None else check(report)

    return Op(kind, spec, lambda: runner(argv), wrapped)


def _value_check(exact: float, need_converged: bool = False):
    def check(report):
        value = report.get("value")
        if not isinstance(value, (int, float)):
            return False, None
        ok, err = _close(float(value), exact)
        return ok and (report.get("converged") is True or not need_converged), err
    return check


# Numbers go to the CLI as --name=value: argparse reads a separate value
# such as -3.1e-05 as an option and exits 2.

def _integrate_op(kind: str, rng: random.Random, q: float, runner: CliRunner) -> Op:
    omega, a, b = _interval(rng, q)
    c0, c1 = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)

    def antiderivative(t):
        # D[(t^2 - omega*t)/(1+q)] = t on the lattice.
        return (t * t - omega * t) / (1.0 + q)

    exact = c0 * (b - a) + c1 * (antiderivative(b) - antiderivative(a))
    argv = ["integrate", f"--q={q!r}", f"--omega={omega!r}", f"--expr={c0!r} + {c1!r}*t",
            f"--a={a!r}", f"--b={b!r}", "--format", "json"]
    return _cli_op(kind, " ".join(argv), argv, runner, _value_check(exact, need_converged=True))


def _deriv_op(order: int, rng: random.Random, runner: CliRunner,
              offset: float | None = None) -> Op:
    """`hahnvar deriv` of a quadratic at t = omega0 + offset.  Near omega0
    the lattice spacing (1-q)|t - omega0| shrinks and the second quotient
    loses digits: within about 1e-3 of omega0 it misses the 1e-9 check (a
    ROADMAP item 3 defect, shown by defect_ops), so the workload draws
    |offset| from [0.1, 1]."""
    q = _short_q(rng)
    omega, a, b = _interval(rng, q)
    cs = [rng.uniform(-1.0, 1.0) for _ in range(3)]
    if offset is None:
        offset = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 1.0)
    t = omega / (1.0 - q) + offset
    # D[c0 + c1 t + c2 t^2] = c1 + c2*((1+q) t + omega); D^2 = c2*(1+q).
    exact = cs[1] + cs[2] * ((1.0 + q) * t + omega) if order == 1 else cs[2] * (1.0 + q)
    argv = ["deriv", f"--q={q!r}", f"--omega={omega!r}",
            f"--expr={cs[0]!r} + {cs[1]!r}*t + {cs[2]!r}*t^2", f"--t={t!r}",
            "--order", str(order), "--format", "json"]
    return _cli_op(f"deriv{order}", " ".join(argv), argv, runner, _value_check(exact))


# Rounds per block of cli long-orbit draws, one per stratum of orbit length.
CLI_BLOCK = 10


def _cli(rng: random.Random, root: Path, runner: CliRunner, workdir: Path) -> Iterator[list[Op]]:
    workdir.mkdir(parents=True, exist_ok=True)
    convex = {"q": 0.5, "omega": 0.5, "a": -1.0, "b": 2.0, "r": 1, "lagrangian": "u1^2",
              "alpha": [0.0], "beta": [0.0], "depth": 12}
    convex_path = workdir / "convex.json"
    convex_path.write_text(json.dumps(convex))

    def passed(report):
        return report.get("passed") is True, None

    def demo_passed(report):
        # ystar drives the double-well functional to exactly zero.
        value = report.get("functional", {}).get("value")
        if not isinstance(value, (int, float)):
            return False, None
        return report.get("passed") is True, max(abs(value), ERROR_FLOOR)

    def el_passed(report):
        m = report.get("max_abs_residual")
        if not isinstance(m, (int, float)):
            return False, None
        return report.get("passed") is True, max(m, EL_TOL)

    def minimized(report):
        obj = report.get("objective")
        if not isinstance(obj, (int, float)):
            return False, None
        return (report.get("converged") is True and obj <= MIN_BOUND["convex"],
                max(float(obj), MIN_FLOOR))

    fixed = [
        ["evaluate", "--builtin", "double-well", "--format", "json"],
        ["el-check", "--builtin", "double-well", "--format", "json"],
        ["demo", "beam", "--format", "json"],
    ]
    convex_seeds = _convex_seeds(rng)
    for k in itertools.count():
        if k % CLI_BLOCK == 0:
            long_qs = _long_qs(rng, CLI_BLOCK)
        demo_seed = str(rng.randrange(2**31))
        min_seeds = [str(next(convex_seeds)) for _ in range(2)]
        yield [
            _deriv_op(1, rng, runner),
            _deriv_op(2, rng, runner),
            _integrate_op("integrate_short", rng, _short_q(rng), runner),
            _integrate_op("integrate_long", rng, long_qs.pop(), runner),
            _cli_op("evaluate_builtin", " ".join(fixed[0]), fixed[0], runner, _value_check(0.0, True)),
            _cli_op("el_check_builtin", " ".join(fixed[1]), fixed[1], runner, el_passed),
            _cli_op("demo_double_well", f"demo double-well --seed {demo_seed}",
                    ["demo", "double-well", "--seed", demo_seed, "--format", "json"], runner, demo_passed),
            _cli_op("demo_beam", " ".join(fixed[2]), fixed[2], runner, passed),
            # Two minimize ops, the slowest kind, make up 2 of 10 ops, so the
            # 90th percentile falls inside their cluster rather than at its edge.
            *(_cli_op("minimize_convex", f"minimize convex --seed {seed}",
                      ["minimize", str(convex_path.relative_to(root)), "--seed", seed, "--format", "json"],
                      runner, minimized) for seed in min_seeds),
        ]


def _evaluate_r2_op(rng: random.Random, root: Path, runner: CliRunner, workdir: Path) -> Op:
    """`hahnvar evaluate` on an r=2 u2^2 config with a quadratic candidate,
    exact value (c2*(1+q))^2 * (b - a)."""
    workdir.mkdir(parents=True, exist_ok=True)
    q = _short_q(rng)
    omega, a, b = _interval(rng, q)
    cs = [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
          rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.3)]
    ys = [cs[0] + cs[1] * t + cs[2] * t * t for t in (a, b)]
    dys = [cs[1] + cs[2] * ((1.0 + q) * t + omega) for t in (a, b)]
    r2 = {"q": q, "omega": omega, "a": a, "b": b, "r": 2, "lagrangian": "u2^2",
          "alpha": [ys[0], dys[0]], "beta": [ys[1], dys[1]],
          "candidate": {"type": "expr", "value": f"{cs[0]!r} + {cs[1]!r}*t + {cs[2]!r}*t^2"}}
    r2_path = workdir / "r2.json"
    r2_path.write_text(json.dumps(r2))
    exact = (cs[2] * (1.0 + q)) ** 2 * (b - a)
    return _cli_op("evaluate_r2", f"evaluate {json.dumps(r2)}",
                   ["evaluate", str(r2_path.relative_to(root)), "--format", "json"], runner,
                   _value_check(exact, need_converged=True))


# ---------------------------------------------------------------------------
# Known defects: one fixed case each, outside every workload
# ---------------------------------------------------------------------------

# An (E, xi) draw on which the q = 0.9 beam residual at depth 64 is 2.02x
# its depth-16 value (found by scanning 3,000 draws).
_BEAM_Q09_ROUNDOFF = (1.9998300527922277, 1.576597244700024)


def defect_ops(root: Path) -> list[Op]:
    """One case per entry of KNOWN_DEFECTS, with fixed inputs and the same
    reference check as the workload op of that kind.  At the seed commit
    every case fails its check except the depth-16 beam references."""
    rng = random.Random("defects")
    runner = CliRunner(root)
    return [
        _series_param_op("r2_quad", rng, 0.6),
        _fv_op(rng, 2),
        *_beam_ops(0.5, 0.5, 1.0, 1.0),
        *_beam_ops(0.9, 0.1, *_BEAM_Q09_ROUNDOFF, depths=(16, 64)),
        _minimize_op("double_well", 12, DOUBLE_WELL_SEED),
        _minimize_op("convex", 12, CONVEX_SEEDS["unconverged"][0]),
        _evaluate_r2_op(rng, root, runner, root / ".bench_build" / "defects"),
        _deriv_op(2, rng, runner, offset=1e-4),
    ]


def build(workload: str, seed: int, root: Path,
          cli_in_process: bool = False) -> tuple[Iterator[list[Op]], CliRunner | None]:
    """The workload's stream of rounds for a seed, plus the CLI runner (cli only)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "series":
        return _series(rng), None
    if workload == "stationarity":
        return _stationarity(rng), None
    if workload == "minimize":
        return _minimize(rng), None
    if workload == "cli":
        runner = CliRunner(root, in_process=cli_in_process)
        workdir = root / ".bench_build" / "cli" / str(seed)
        return _cli(rng, root, runner, workdir), runner
    raise ValueError(f"unknown workload {workload!r}")
