"""Built-in demonstration problems.

Two showcases ship with the package:

* ``double-well``: the first-order problem on [-1, 1] with q = omega
  = 1/2 whose known minimizer is discontinuous at two lattice points.
  The integrand is a product of squares, so the functional is
  nonnegative for every admissible candidate and exactly zero at the
  built-in minimizer.  Its problem, candidate, depth and tolerance are
  defined once, in the run config ``BUILTIN_CONFIGS["double-well"]``,
  which ``double_well_problem``, ``run_double_well`` and the CLI's
  ``--builtin double-well`` read.

* ``beam``: the second-order bending-beam energy 0.5*(E*u2)^2 - xi*u0
  with constant stiffness and load.  The classical solution of
  E^2 * y'''' = xi is the quartic xi*t^4/(24*E^2); its lattice residual
  shrinks as (q, omega) -> (1, 0), which the demo measures across a
  fixed parameter sequence.
"""

from __future__ import annotations

import random

from .core import GridFunction, HahnParams, Orbit, Origin
from .operators import fit_leading_values, hahn_derivative_n
from .variational import Problem, el_report, functional_value

# (q, omega) sequence the beam demo sweeps, approaching the classical limit.
BEAM_SEQUENCE = ((0.9, 0.1), (0.99, 0.01), (0.999, 0.001))

# The beam problem's order: its energy reads the second derivative.
BEAM_ORDER = 2

# Run configs by name, each as a JSON run config file would give it.
BUILTIN_CONFIGS: dict[str, dict] = {
    "double-well": {
        "q": 0.5, "omega": 0.5, "a": -1.0, "b": 1.0, "r": 1,
        "lagrangian": "(u0 + 0.5)^2 * (u1^2 - 1)^2", "alpha": [0.0], "beta": [-1.0],
        "candidate": {"type": "builtin", "name": "ystar"}, "depth": 40, "tol": 1e-9,
    }
}

# The functions of t here that a run config may name as a builtin candidate.
BUILTIN_CANDIDATES = ("ystar",)


def ystar(t: float) -> float:
    """The known minimizer of the double-well problem.

    Equal to -t except at the two exceptional points, which carry the
    values that make every difference quotient hit the stationarity
    condition exactly.  Discontinuous, but all lattice quotients exist.
    """
    if t == -1.0:
        return 0.0
    if t == 0.0:
        return 1.0
    return -t


def double_well_problem() -> Problem:
    """First-order model problem: minimize the product-of-squares integrand
    on [-1, 1] with y(-1) = 0 and y(1) = -1 at q = omega = 1/2."""
    cfg = BUILTIN_CONFIGS["double-well"]
    return Problem(HahnParams(cfg["q"], cfg["omega"]), cfg["r"], cfg["a"], cfg["b"],
                   cfg["alpha"], cfg["beta"], cfg["lagrangian"])


def beam_problem(
    q: float, omega: float, elastic: float = 1.0, load: float = 1.0
) -> tuple[Problem, str]:
    """Second-order beam problem on [0, 2] plus the classical quartic candidate.

    Boundary data is taken from the candidate's own lattice iterates, so
    the candidate is admissible by construction and only the interior
    residual is informative."""
    params = HahnParams(q=q, omega=omega)
    a, b = 0.0, 2.0
    source = f"0.5*({elastic!r}*u{BEAM_ORDER})^2 - {load!r}*u0"
    coeff = load / (24.0 * elastic * elastic)
    candidate = f"{coeff!r}*t^4"

    def y(t: float) -> float:
        return coeff * t**4

    alpha = tuple(hahn_derivative_n(params, y, i, a) for i in range(BEAM_ORDER))
    beta = tuple(hahn_derivative_n(params, y, i, b) for i in range(BEAM_ORDER))
    problem = Problem(
        params=params, r=BEAM_ORDER, a=a, b=b, alpha=alpha, beta=beta, lagrangian=source
    )
    return problem, candidate


def random_admissible_grid(problem: Problem, rng: random.Random, depth: int = 48) -> GridFunction:
    """Random grid candidate satisfying the boundary conditions exactly.

    Values are a linear base profile plus noise of amplitude 0.25 that
    decays like q^n, so difference quotients stay bounded near omega0.
    The first r values of each orbit are then re-fit (each endpoint
    condition is linear in one value) to pin the boundary iterates.
    Degenerate endpoints only carry a value condition, so r >= 2 there
    is not supported.
    """
    params = problem.params
    r = problem.r
    lattice = problem.lattice(depth)
    span = problem.b - problem.a

    def base(t: float) -> float:
        return problem.alpha[0] + (problem.beta[0] - problem.alpha[0]) * (t - problem.a) / span

    fixed = base(params.omega0)
    per_orbit: dict[Origin, list[float]] = {}
    for origin, targets in ((Origin.A, problem.alpha), (Origin.B, problem.beta)):
        orbit = Orbit(params.q, params.omega, lattice.seed(origin))
        taus = [orbit.node(n) for n in range(depth + 1)]
        if orbit.degenerate:
            if r > 1:
                raise ValueError("degenerate endpoint supports value conditions only")
            fixed = targets[0]
            per_orbit[origin] = [targets[0]] * (depth + 1)
            continue
        vals = [
            base(t) + 0.25 * params.q**n * rng.uniform(-1.0, 1.0)
            for n, t in enumerate(taus)
        ]
        fit_leading_values(taus, vals, targets)
        per_orbit[origin] = vals
    return GridFunction(
        lattice,
        values_a=per_orbit[Origin.A],
        values_b=per_orbit[Origin.B],
        value_at_fixed=fixed,
    )


def run_double_well(depth: int = BUILTIN_CONFIGS["double-well"]["depth"],
                    tol: float = BUILTIN_CONFIGS["double-well"]["tol"],
                    seed: int = 0, include_omega0: bool = False) -> dict:
    """Full report dict for the double-well demo (JSON-ready), with a sweep
    over 25 random admissible grids."""
    problem = double_well_problem()
    value = functional_value(problem, ystar)
    report = el_report(problem, ystar, depth=depth, tol=tol, include_omega0=include_omega0)
    rng = random.Random(seed)
    sweep_values = []
    for _ in range(25):
        grid = random_admissible_grid(problem, rng)
        sweep_values.append(functional_value(problem, grid).value)
    min_sweep = min(sweep_values)
    all_nonneg = all(v >= -1e-10 for v in sweep_values)
    passed = (
        abs(value.value) <= 1e-12
        and value.converged
        and report.passed
        and all_nonneg
    )
    return {
        "demo": "double-well",
        "params": {"q": problem.params.q, "omega": problem.params.omega},
        "interval": [problem.a, problem.b],
        "functional": vars(value),
        "el": {
            "max_abs_residual": report.max_abs_residual,
            "points_checked": len(report.residuals),
            "depth_used": report.depth_used,
            "boundary_violations": len(report.boundary_violations),
            "passed": report.passed,
        },
        "sweep": {
            "candidates": len(sweep_values),
            "min_functional": min_sweep,
            "all_nonnegative": all_nonneg,
        },
        "passed": passed,
    }


def run_beam(depth: int = 16) -> dict:
    """Residual-trend report dict for the beam demo (JSON-ready) over BEAM_SEQUENCE."""
    rows = []
    for q, omega in BEAM_SEQUENCE:
        problem, candidate = beam_problem(q, omega)
        report = el_report(problem, candidate, depth=depth, tol=1e-6)
        rows.append(
            {
                "q": q,
                "omega": omega,
                "max_abs_residual": report.max_abs_residual,
                "points_checked": len(report.residuals),
                "boundary_violations": len(report.boundary_violations),
            }
        )
    maxima = [row["max_abs_residual"] for row in rows]
    decreasing = all(maxima[i + 1] < maxima[i] for i in range(len(maxima) - 1))
    clean = all(row["boundary_violations"] == 0 for row in rows)
    return {
        "demo": "beam",
        "cases": rows,
        "strictly_decreasing": decreasing,
        "passed": decreasing and clean,
    }
