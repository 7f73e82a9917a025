"""Damped Newton minimization of the truncated functional on the lattice.

The free variables are each live orbit's values past the first r, which
the boundary data fixes; at a degenerate endpoint (one at omega0) the
derivative conditions, linear in the live orbit's deepest values, join a
bordered Newton system.  Gradient and Hessian (banded, half-width r)
follow from the integrand's first and second partials and each window's
constant slot coefficients, kept once per window and multiplied per
evaluation at every order.  A step factors the Hessian by banded LDL^T,
with a diagonal shift where it is not positive definite (the schedule is in
``minimize_direct``), then backtracks until the Armijo condition holds;
a trial point that faults is no descent (Nocedal & Wright, Numerical
Optimization, chapters 3 and 6).  Assembly, factor and solve run as
straight-line code emitted once per order or half-width, each sum
rounding as ``sum()`` of its terms would.  A step whose slope is not
finite, as when iterates of a problem unbounded below run off the float
range, ends the search at the last iterate.  Deterministic for a given
seed; failure to converge is reported, never raised.
"""

from __future__ import annotations

import functools
import math
import random
from itertools import chain
from operator import mul
from typing import Callable

from .core import DEFAULT_DEPTH, GridFunction, Orbit, Origin, Record
from .dsl import Lagrangian, Neg
from .errors import (DegenerateDenominator, DomainError, InsufficientDepth, NonFiniteValue,
                     NotDifferentiable)
from .operators import fit_leading_values, fixed_point_window, iterates_at_fixed
from .variational import Problem, is_admissible, sample_stream, slot_stream, traj_components

_ARMIJO = 1e-4
_HALVINGS = 40
_SHIFT_START = 1e-6
_SHIFT_CAP = 1e16


class MinimizeResult(Record):
    """Final iterate of the Newton search plus its trace.

    ``objective`` and ``functional`` both are the truncated functional at
    the final iterate; ``history`` holds it at the start and after each of
    the ``iterations`` Newton steps, and never rises.  The boundary
    conditions are eliminated, not penalized, so ``penalty_weight`` is 0."""

    grid: GridFunction
    objective: float
    functional: float
    history: list[float]
    converged: bool
    iterations: int
    boundary_violation_norm: float
    penalty_weight: float


class _Orbit:
    """An endpoint orbit: nodes through the usable cap, the r values the
    boundary data fixes, where its free values start in the variable
    vector, and per window its weight c*q^k and its slot coefficients, which
    map the window's partials onto the functional's derivatives.  The windows'
    slot values are not kept: each evaluation streams them from the nodes
    and the current values."""

    def __init__(self, problem: Problem, origin: Origin, depth: int):
        q, r = problem.params.q, problem.r
        orbit = Orbit(q, problem.params.omega, problem.a if origin is Origin.A else problem.b)
        self.origin, self.orbit = origin, orbit
        self.degenerate = orbit.degenerate
        # The functional stops at the usable cap: quotients past the first
        # float merge near omega0 are meaningless.
        self.usable = orbit.cap(depth)
        self.taus = orbit.nodes[: self.usable + 1]
        if not self.degenerate and self.usable < r - 1:  # too short for D^(r-1) at the seed
            raise DegenerateDenominator(f"orbit step underflowed to zero near t={self.taus[-1]!r}")
        coef = orbit.prefactor if origin is Origin.B else -orbit.prefactor  # F = at b - at a
        windows = range(self.usable - r + 1)
        self.weights = [coef * q**k for k in windows]
        units = [[float(m == j) for j in range(r + 1)] for m in range(r + 1)]
        # Per window k, with cs[m][i] = d v_i / d y_(k+m): w*cs[m] maps dL/dv
        # onto the gradient entry of y_(k+m), and band entry d of that row
        # gets w*cs[m].H.cs[m+d], H = d2L/dv2 (see _assembly, which drops
        # the entries of the r values the boundary data fixes).  A window
        # keeps the rows w*cs[m], then cs[m]; H.cs[m] is formed per evaluation.
        self.maps: list[tuple[float, ...]] = []
        for k, w in zip(windows, self.weights):
            cs = [c for u in units for c in traj_components(self.taus[k : k + r + 1], u)]
            self.maps.append(tuple([w * c for c in cs] + cs))
        self.head: list[float] = []
        self.offset = 0


class _Newton:
    """The truncated functional, its derivatives and its constraints as
    functions of the free values x.  Each evaluation is one pass over each
    orbit, its windows from ``slot_stream``."""

    def __init__(self, problem: Problem, depth: int, rng: random.Random):
        self.problem, self.depth, self.r = problem, depth, problem.r
        self.lagr = problem.lagrangian
        q, r = problem.params.q, problem.r
        a0, b0 = problem.alpha[0], problem.beta[0]
        span = problem.b - problem.a

        def interp(t: float) -> float:
            return a0 + (b0 - a0) * (t - problem.a) / span

        self.scale = 1.0 + max(abs(a0), abs(b0))
        self.fixed_value = interp(problem.params.omega0)
        self.orbits: list[_Orbit] = []
        self.x0: list[float] = []
        for origin, targets in ((Origin.A, problem.alpha), (Origin.B, problem.beta)):
            orb = _Orbit(problem, origin, depth)
            if orb.degenerate:
                self.fixed_value = targets[0]
                continue
            vals = [interp(t) for t in orb.taus[: orb.usable + 1]]
            for n in range(r, orb.usable + 1):
                vals[n] += 0.05 * self.scale * q**n * rng.uniform(-1.0, 1.0)
            fit_leading_values(orb.taus, vals, targets)
            orb.head, orb.offset = vals[:r], len(self.x0)
            self.x0 += vals[r:]
            self.orbits.append(orb)

        # At a degenerate endpoint, one row per condition on D^i y(omega0), 0 < i < r.
        self.rows: list[list[float]] = []
        self.targets: list[float] = []
        if len(self.orbits) == 1 and r >= 2:
            live = self.orbits[0]
            if live.usable < 2 * r:
                raise InsufficientDepth("live orbit too shallow for the omega0 conditions")
            taus = fixed_point_window([live.orbit], depth, r + 1)[1]
            units = [[float(j == m) for j in range(r + 1)] for m in range(r + 1)]
            columns = [iterates_at_fixed(q, taus, u, r - 1) for u in units]
            self.rows = [[0.0] * (len(self.x0) - r - 1) + list(row) for row in zip(*columns)]
            self.targets = list((problem.beta if live.origin is Origin.A else problem.alpha)[1:])
            # Start feasible: the least-norm correction onto the constraints,
            # from the identity's factor (rows of r zeros and a unit pivot).
            # An indefinite Schur system (roundoff, at r = 9) leaves the start unfitted.
            identity = [(0.0,) * r + (1.0,)] * len(self.x0)
            fix = _bordered(identity, [0.0] * len(self.x0), self.rows, self.residuals(self.x0))
            if fix is not None:
                self.x0 = [xj + dj for xj, dj in zip(self.x0, fix)]

    def values(self, orb: _Orbit, x: list[float]) -> list[float]:
        return orb.head + x[orb.offset : orb.offset + orb.usable + 1 - self.r]

    def residuals(self, x: list[float]) -> list[float]:
        return [t - math.fsum(map(mul, row, x)) for row, t in zip(self.rows, self.targets)]

    def functional(self, x: list[float]) -> float:
        """fsum rounds exactly, so the orbits' samples need no grouping."""
        samples, value = sample_stream(self.r), self.lagr.value
        return math.fsum(chain.from_iterable(
            map(mul, orb.weights, samples(zip(orb.taus, self.values(orb, x)), value)) for orb in self.orbits))

    def derivatives(self, x: list[float]) -> tuple[list[float], list[list[float]]]:
        """Gradient and upper band (band[j][d] = H[j][j+d]) of the functional,
        from each window's partials and its maps (see _Orbit)."""
        assemble, stream = _assembly(self.r), slot_stream(self.r)
        grad: list[float] = []
        band: list[list[float]] = []
        for orb in self.orbits:
            g, b = assemble(stream(zip(orb.taus, self.values(orb, x))), orb.maps, self.lagr.derivatives)
            grad += g
            band += b
        return grad, band

    def to_grid(self, x: list[float]) -> GridFunction:
        """Values past an orbit's usable cap repeat its last one."""
        fill = [self.fixed_value] * (self.depth + 1)
        per_origin = {Origin.A: fill, Origin.B: fill}
        for orb in self.orbits:
            vals = self.values(orb, x)
            per_origin[orb.origin] = vals + [vals[-1]] * (self.depth - orb.usable)
        return GridFunction(self.problem.lattice(self.depth), *per_origin.values(), self.fixed_value)


def _total(terms: list[str]) -> str:
    """Code for sum(terms), bit for bit on every Python: from 3.12 on sum()
    of floats is compensated, so three or more terms stay one sum() call;
    one or two round alike as plain additions to sum's start, 0.0."""
    return f"sum(({', '.join(terms)}))" if len(terms) > 2 else f"(0.0 + {' + '.join(terms)})"


def _minus(head: str, terms: list[str]) -> str:
    return f"{head} - {_total(terms)}" if terms else head


def _compiled(lines: list[str]) -> Callable:
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    return namespace["kernel"]


def _rotate(names: list[str], sources: list[str]) -> str:
    return f"{', '.join(names)} = {', '.join(sources)}"


@functools.cache
def _assembly(r: int) -> Callable:
    """kernel(windows, maps, derivatives): one orbit's gradient and band, in
    code built once per order that is straight-line per window.  Each
    window's partials are unpacked into locals (v<i>, h<i>_<l>), s<m>_<i> =
    (H.cs[m])[i] is formed from its map's rows cs[m], and the row at window
    offset m adds v.w*cs[m] to g<m> (gradient) and w*cs[m].s<m+d> to
    b<m>_<d> (band entry d).  Row offset 0 is complete after its window;
    the first r rows, those of the values the boundary data fixes, are
    dropped."""
    slots, n = range(r + 1), (r + 1) ** 2
    gs = [f"g{m}" for m in slots]
    bs = [[f"b{m}_{d}" for d in slots] for m in slots]
    h = [[f"h{i}_{l}" for l in slots] for i in slots]
    c = [f"c{k}" for k in range(2 * n)]
    lines = ["def kernel(windows, maps, derivatives):", "    grad, band = [], []",
             f"    {' = '.join(gs + sum(bs, []))} = 0.0",
             f"    for (t, us), ({', '.join(c)},) in zip(windows, maps):",
             f"        ({', '.join(f'v{i}' for i in slots)},),"
             f" ({', '.join('(' + ', '.join(row) + ',)' for row in h)},) = derivatives(t, us)"]
    lines += [f"        g{m} += {_total([f'v{i} * {c[m * (r + 1) + i]}' for i in slots])}" for m in slots]
    lines += [f"        s{m}_{i} = {_total([f'{h[i][l]} * {c[n + m * (r + 1) + l]}' for l in slots])}"
              for m in slots for i in slots]
    lines += [f"        b{m}_{d} += {_total([f'{c[m * (r + 1) + i]} * s{m + d}_{i}' for i in slots])}"
              for m in slots for d in range(r + 1 - m)]
    lines += ["        grad.append(g0)", f"        band.append([{', '.join(bs[0])}])",
              "        " + _rotate(gs + sum(bs, []), gs[1:] + ["0.0"] + sum(bs[1:], []) + ["0.0"] * (r + 1)),
              f"    grad += [{', '.join(gs[:-1])}]",
              f"    band += [{', '.join('[' + ', '.join(row) + ']' for row in bs[:-1])}]",
              f"    return grad[{r}:], band[{r}:]"]
    return _compiled(lines)


@functools.cache
def _factor_code(w: int) -> Callable:
    """kernel(band, shift): banded LDL^T by rows, in code built once per
    half-width w that is straight-line per row.  Row i forms m<d> =
    L[i][i-d] for d = w..1, then its pivot, from locals holding the band
    rows a<d> = band[i-d], the pivots p<d> = D[i-d] and the entries
    l<e>_<f> = L[i-e][i-e-f] of the w rows above.  Above row 0 they read
    zero rows and unit pivots, so the first rows' missing entries come out
    +0.0, and +0.0 terms leave a sum bit for bit the same."""
    ms, a, p = ([f"{x}{d}" for d in range(1, w + 1)] for x in "map")
    above = [(e, f) for e in range(1, w) for f in range(1, w + 1 - e)]
    ls = [f"l{e}_{f}" for e, f in above]
    lines = ["def kernel(band, shift):", "    factor = []"]
    if w:
        lines += [f"    {' = '.join(ms + ls)} = 0.0", f"    {' = '.join(p)} = 1.0",
                  f"    {' = '.join(a)} = (0.0,) * {w + 1}"]
    lines.append("    for row in band:")
    for d in range(w, 0, -1):
        terms = [f"m{e} * l{d}_{e - d} * p{e}" for e in range(w, d, -1)]
        lines.append(f"        m{d} = ({_minus(f'a{d}[{d}]', terms)}) / p{d}")
    lines += [f"        pivot = {_minus('row[0] + shift', [f'm{d} ** 2 * p{d}' for d in range(1, w + 1)])}",
              "        if not pivot > 0.0:", "            return None",
              f"        factor.append(({', '.join(ms + ['pivot'])},))"]
    if w:  # row i's entries become l1_<f>; those of row i-e move to l<e+1>_<f>
        lines.append("        " + _rotate(a + p + ls, ["row"] + a[:-1] + ["pivot"] + p[:-1]
                                            + [f"l{e - 1}_{f}" if e > 1 else f"m{f}" for e, f in above]))
    lines.append("    return factor")
    return _compiled(lines)


@functools.cache
def _solve_code(w: int) -> Callable:
    """kernel(factor, rhs): forward and back substitution with a factor of
    half-width w, in code built once per width that is straight-line per
    row.  Entries past either end read 0.0, and trailing +0.0 terms leave
    a sum bit for bit the same, so the end rows need no prologue."""
    ms, ys, xs, fs = ([f"{x}{d}" for d in range(1, w + 1)] for x in "myxf")
    lines = ["def kernel(factor, rhs):", "    z, out = [], []"]
    if w:
        lines += [f"    {' = '.join(ys + xs)} = 0.0", f"    {' = '.join(fs)} = (0.0,) * {w + 1}"]
    lines += [f"    for b, ({', '.join(ms + ['pivot'])},) in zip(rhs, factor):",
              f"        y = {_minus('b', [f'm{d} * y{d}' for d in range(1, w + 1)])}",
              "        z.append(y / pivot)"] + ["        " + _rotate(ys, ["y"] + ys[:-1])] * bool(w)
    lines += ["    for x, row in zip(reversed(z), reversed(factor)):",
              f"        x = {_minus('x', [f'f{d}[{d - 1}] * x{d}' for d in range(1, w + 1)])}",
              "        out.append(x)"]
    lines += ["        " + _rotate(xs + fs, ["x"] + xs[:-1] + ["row"] + fs[:-1])] * bool(w)
    lines += ["    out.reverse()", "    return out"]
    return _compiled(lines)


def _ldl(band: list[list[float]], shift: float) -> list[tuple[float, ...]] | None:
    """LDL^T of A + shift*I, A symmetric with upper band band[j][d] = A[j][j+d]:
    per row i the tuple (L[i][i-1], ..., L[i][i-w], D[i]), w the half-width
    and entries left of column 0 0.0, or None if a pivot is not positive or overflows."""
    try:
        return _factor_code(len(band[0]) - 1 if band else 0)(band, shift)
    except OverflowError:
        return None


def _solve(factor: list[tuple[float, ...]], rhs: list[float]) -> list[float]:
    return _solve_code(len(factor[0]) - 1 if factor else 0)(factor, rhs)


def _bordered(factor, grad: list[float], rows: list[list[float]], resid: list[float]):
    """d with H d + A^T lam = -grad and A d = resid, from H's factor (the
    range-space method); None if the small Schur system is not definite."""
    d = _solve(factor, [-g for g in grad])
    if not rows:
        return d
    cols = [_solve(factor, row) for row in rows]
    schur = _ldl([[sum(map(mul, rows[a], y)) for y in cols[a:]] for a in range(len(rows))], 0.0)
    if schur is None:
        return None
    lam = _solve(schur, [sum(map(mul, row, d)) - e for row, e in zip(rows, resid)])
    return [dj - sum(map(mul, lam, ys)) for dj, ys in zip(d, zip(*cols))]


def minimize_direct(
    problem: Problem,
    depth: int = DEFAULT_DEPTH,
    seed: int = 0,
    max_iters: int = 5000,
    maximize: bool = False,
    step_tol: float = 1e-10,
) -> MinimizeResult:
    """Damped Newton on the truncated functional.

    Each step factors H + lambda*max|diag H|*I.  lambda starts at a tenth
    of the lambda that factored the step before, or at 0 when that is
    below 1e-6, and grows tenfold (0 grows to 1e-6) until every pivot is
    positive.  Where the Hessian's diagonal is zero, as for a kinked
    integrand like abs(u1), the shift is lambda itself, so the step is a
    scaled gradient step.

    Converged means the Newton step's largest component fell below
    step_tol times the value scale.  A shifted step is shorter than the
    Newton step, so when one falls below the bound H is factored unshifted
    and, where that works, the Newton step is tested instead; only where
    H itself is not positive definite may a shifted step end the search,
    as it must to stop at all.  That step's point, if it passes the
    Armijo test, is returned without forming its derivatives, so a fault
    in them there goes unseen.  Running out of iterations, a line search
    that finds no descent, a step whose slope is not finite, or a Hessian
    that no shift makes positive definite reports converged=False with
    the last iterate.

    With maximize=True the negated integrand is minimized and the
    reported objective/history refer to that negated problem.

    A live endpoint orbit that merges before it holds the r boundary
    values raises DegenerateDenominator; at an endpoint at omega0 with
    r >= 2, a live orbit of fewer than 2r + 1 usable points raises
    InsufficientDepth; a step_tol that is not positive and finite raises
    ValueError.
    """
    if depth < 2 * problem.r + 2:
        raise ValueError(f"depth must be at least {2 * problem.r + 2}")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if not (step_tol > 0.0 and math.isfinite(step_tol)):
        raise ValueError(f"step_tol must be positive and finite, got {step_tol!r}")
    if maximize:
        neg = Lagrangian(Neg(problem.lagrangian.expr), problem.lagrangian.order)
        problem = Problem(problem.params, problem.r, problem.a, problem.b, problem.alpha,
                          problem.beta, neg)

    search = _Newton(problem, depth, random.Random(seed))
    x = search.x0
    current = search.functional(x)
    history = [current]
    converged, lam = False, 0.0
    try:
        derivs = search.derivatives(x)
    except NotDifferentiable:
        derivs = None
    while derivs is not None and len(history) <= max_iters:
        grad, band = derivs
        # A zero diagonal, as of a kinked integrand, shifts relative to 1.
        base = max((abs(row[0]) for row in band), default=0.0) or 1.0
        lam = lam / 10.0 if lam > _SHIFT_START else 0.0
        factor = _ldl(band, lam * base)
        while factor is None and lam < _SHIFT_CAP:
            lam = 10.0 * lam or _SHIFT_START
            factor = _ldl(band, lam * base)
        step = factor and _bordered(factor, grad, search.rows, search.residuals(x))
        if not step:
            break
        small = max(map(abs, step)) <= step_tol * search.scale
        if small and lam:
            # A shifted step falls short of the Newton step, so where H
            # itself factors only the Newton step may end the search.
            exact = _ldl(band, 0.0)
            newton = exact and _bordered(exact, grad, search.rows, search.residuals(x))
            if newton:
                lam, step = 0.0, newton
                small = max(map(abs, step)) <= step_tol * search.scale
        try:
            slope = math.fsum(map(mul, grad, step))
        except (OverflowError, ValueError):  # a sum past the float range, or inf - inf
            break
        if not math.isfinite(slope):
            break
        derivs, alpha = None, 1.0
        for _ in range(1 if small else _HALVINGS):
            trial = [xj + alpha * sj for xj, sj in zip(x, step)]
            try:
                value = search.functional(trial)
                if value <= current + _ARMIJO * alpha * slope:
                    if not small:  # a small step ends the search: no Hessian is read
                        derivs = search.derivatives(trial)
                    x, current = trial, value
                    history.append(current)
                    break
            except (DomainError, NonFiniteValue, NotDifferentiable):
                pass
            alpha *= 0.5
        if small or derivs is None:
            converged = small
            break

    grid = search.to_grid(x)
    violations = is_admissible(problem, grid, tol=0.0, depth=depth)[1]
    norm = math.sqrt(math.fsum(v.error**2 for v in violations))
    return MinimizeResult(grid=grid, objective=current, functional=current, history=history,
                          converged=converged, iterations=len(history) - 1,
                          boundary_violation_norm=norm, penalty_weight=0.0)
