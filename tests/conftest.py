"""Shared builders for randomized test problems."""

import os
import random
from pathlib import Path

from hahnvar import GridFunction, HahnParams, Problem

# pytest puts src/ on sys.path (pyproject.toml); subprocess tests that run
# `python -m hahnvar.cli` from an uninstalled checkout need it as well.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")])
)


def poly(coeffs):
    """Polynomial with the given coefficients, constant term first."""
    return lambda t: sum(c * t**i for i, c in enumerate(coeffs))


def rand_problem(rng: random.Random, r: int) -> Problem:
    """Random well-conditioned problem of order r.

    q stays in [0.5, 0.68] and the endpoints sit 1.5..2.5 away from the
    fixed point on each side, which keeps the deepest stencil
    denominators used by the tests away from the roundoff floor.  The
    integrand is quadratic in the trajectory slots with one cross term.
    """
    q = rng.uniform(0.50, 0.68)
    omega = rng.uniform(0.3, 1.0)
    params = HahnParams(q, omega)
    w0 = params.omega0
    a = w0 - rng.uniform(1.5, 2.5)
    b = w0 + rng.uniform(1.5, 2.5)
    terms = ["0.3*t"]
    for i in range(r + 1):
        terms.append(f"{rng.uniform(-0.6, 0.6)!r}*u{i}^2")
        terms.append(f"{rng.uniform(-0.4, 0.4)!r}*u{i}")
    j = rng.randrange(r + 1)
    terms.append(f"{rng.uniform(-0.3, 0.3)!r}*u0*u{j}")
    alpha = tuple(rng.uniform(-0.5, 0.5) for _ in range(r))
    beta = tuple(rng.uniform(-0.5, 0.5) for _ in range(r))
    return Problem(params, r, a, b, alpha, beta, " + ".join(terms))


def grid_variation(problem: Problem, rng: random.Random, depth: int = 120) -> GridFunction:
    """Random variation vanishing to order r at both endpoints.

    Values decay like q^(r*n) along each orbit so every iterated
    quotient the integrand takes stays bounded at depth.
    """
    lat = problem.lattice(depth)
    q, r = problem.params.q, problem.r

    def noise(n):
        return 0.3 * q ** (r * n) * rng.uniform(-1.0, 1.0)

    va = [noise(n) for n in range(depth + 1)]
    vb = [noise(n) for n in range(depth + 1)]
    for i in range(r):
        va[i] = 0.0
        vb[i] = 0.0
    return GridFunction(lat, va, vb, 0.0)
