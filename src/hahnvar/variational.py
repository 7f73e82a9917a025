"""Higher-order variational problems over sigma-lattices.

A problem of order r minimizes

    L[y] = integral over [a, b] of
           L(t, y(sigma^r(t)), D[y o sigma^(r-1)](t), ..., D^r[y](t))

subject to D^i y matching prescribed values at both endpoints for
i < r.  Trajectory slot i is v_i = D^i[y o sigma^(r-i)](t); on the
lattice the composition with sigma^k is an index shift, so slot values
come from difference-quotient tables over consecutive orbit points.

Each public function resolves its candidates once, at its top (source
text is parsed and compiled there), and builds their endpoint orbits
there; every helper reads those.  Every window of slots, along a run of
residuals, in the first variation or in the minimizer, comes from
``slot_stream``: one pass over the orbit points in code generated once per
order.  The functional's series takes its samples from ``sample_stream``,
the same generated code yielding the Lagrangian's value at each window
instead of the window, so a term resumes one generator above the walk;
for an expression candidate whose integrand has a polynomial jet at
omega0 (``jets``) the series closes exactly there, with 0 terms, and
anything else walks.
Every Euler-Lagrange residual comes from ``_residuals`` over a run of orbit
points, with all partials of a window from one compiled call.  Every
estimate at omega0 reads the points ``fixed_point_window`` chooses, and a
candidate's iterates there come from one ``iterates_at_fixed`` window per call.

The Euler-Lagrange residual is oriented so that the first-order case
reads D[dL/du1] - dL/du0, matching the classical
d/dt dL/dy' - dL/dy convention; a trajectory is stationary exactly
when the residual vanishes along the lattice.
"""

from __future__ import annotations

import functools
import math
from operator import mul
from typing import Callable, Iterator, Sequence, Union

from .core import (
    DEFAULT_DEPTH,
    DEFAULT_MAX_TERMS,
    DEFAULT_TOL,
    Frozen,
    GridFunction,
    HahnParams,
    Lattice,
    LatticePoint,
    OMEGA0_POINT,
    Orbit,
    Origin,
    Record,
)
from .dsl import Expr, Lagrangian, compile_lagrangian, function_of_t, parse
from .errors import HahnvarError, InsufficientDepth, NotAVariation
from .integrals import SeriesResult, _indexed_series
from .operators import (
    extrapolate_to_fixed,
    fixed_point_window,
    iterated_quotient,
    iterates_at_fixed,
    quotient_levels,
)

# Anything usable as a trajectory candidate: grid data, a plain function
# of t, or an expression (tree or source) in the variable t.
Candidate = Union[GridFunction, Callable[[float], float], Expr, str]

# A candidate after ``_resolve``: grid data or a function of t.
Resolved = Union[GridFunction, Callable[[float], float]]

# A candidate's two endpoint orbits, a's then b's, from ``_orbits``.
Orbits = dict[Origin, Orbit]


class Problem(Frozen):
    """Fixed-endpoint variational problem of order r on [a, b]."""

    params: HahnParams
    r: int
    a: float
    b: float
    alpha: tuple[float, ...]
    beta: tuple[float, ...]
    lagrangian: Lagrangian

    def __init__(self, params: HahnParams, r: int, a: float, b: float, alpha: Sequence[float],
                 beta: Sequence[float], lagrangian: Lagrangian | Expr | str) -> None:
        if isinstance(r, bool) or not isinstance(r, int):
            raise ValueError(f"order r must be an integer, got {r!r}")
        if isinstance(lagrangian, (str, Expr)):
            lagrangian = compile_lagrangian(lagrangian, r)
        alpha, beta = tuple(float(v) for v in alpha), tuple(float(v) for v in beta)
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise ValueError(f"need finite a < b, got {a!r}, {b!r}")
        if r < 1:
            raise ValueError("order r must be at least 1")
        if lagrangian.order != r:
            raise ValueError(f"lagrangian has {lagrangian.order + 1} slots but the order is {r}")
        if len(alpha) != r or len(beta) != r:
            raise ValueError(f"alpha and beta must each hold r = {r} values")
        if not all(map(math.isfinite, alpha + beta)):
            raise ValueError("boundary values must be finite")
        self.__dict__.update(params=params, r=r, a=a, b=b, alpha=alpha, beta=beta,
                             lagrangian=lagrangian)

    def lattice(self, depth: int = DEFAULT_DEPTH) -> Lattice:
        return Lattice(self.params, self.a, self.b, depth)


def problem_of(config: dict) -> Problem:
    """The problem of a run config, a dict of JSON values as in ``demos.BUILTIN_CONFIGS``."""
    return Problem(HahnParams(config["q"], config["omega"]), config["r"], config["a"],
                   config["b"], config["alpha"], config["beta"], config["lagrangian"])


def _resolve(y: Candidate) -> Resolved:
    """The candidate as grid data or a function of t; source text is parsed
    and compiled here.  A resolved candidate resolves to itself."""
    if isinstance(y, GridFunction):
        return y
    if isinstance(y, str):
        y = parse(y)
    if isinstance(y, Expr):
        return function_of_t(y)
    if callable(y):
        return y
    raise TypeError(f"not a usable candidate: {y!r}")


def _check_grid_compat(problem: Problem, grid: GridFunction) -> None:
    lat = grid.lattice
    if lat.params != problem.params or lat.a != problem.a or lat.b != problem.b:
        raise ValueError("grid candidate lives on a different lattice than the problem")


def materialize(problem: Problem, y: Candidate, depth: int = DEFAULT_DEPTH) -> GridFunction:
    """Candidate values realized on the problem's lattice at the given depth."""
    y = _resolve(y)
    if isinstance(y, GridFunction):
        _check_grid_compat(problem, y)
        if y.lattice.depth < depth:
            raise InsufficientDepth(
                f"grid candidate has depth {y.lattice.depth}, need {depth}"
            )
        return y
    return GridFunction.sample(problem.lattice(depth), y)


def _orbits(problem: Problem, y: Resolved) -> Orbits:
    """The endpoint orbits, a's then b's, carrying a resolved candidate's
    values: built at the top of each public function, read by its helpers."""
    if isinstance(y, GridFunction):
        _check_grid_compat(problem, y)
        return {origin: y.orbit(origin) for origin in (Origin.A, Origin.B)}
    q, omega = problem.params.q, problem.params.omega
    return {Origin.A: Orbit(q, omega, problem.a, y), Origin.B: Orbit(q, omega, problem.b, y)}


def traj_components(taus: Sequence[float], vals: Sequence[float]) -> list[float]:
    """Slot values (v_0..v_r) from one window of r+1 consecutive orbit points.

    v_i is the i-fold quotient of the index-shifted values
    vals[r-i..r]; all quotient denominators are anchored at the window
    base because that is where the shifted composition is evaluated.
    It is the reference form of one window: the residuals take their
    windows from ``slot_stream`` and the functional's series its samples
    from ``sample_stream``, which equal it window by window, bit for bit;
    ``trajectory`` and the minimizer's setup slopes use it.
    """
    r = len(taus) - 1
    out = [vals[r]]
    for i in range(1, r + 1):
        out.append(iterated_quotient(taus[: i + 1], vals[r - i :]))
    return out


@functools.cache
def slot_stream(r: int) -> Callable[..., Iterator[tuple[float, list[float]]]]:
    """A generator function turning a run of (t, value) pairs (consecutive
    orbit points, no zero step) into one (t_k, [v_0, ..., v_r]) window per
    base k, as soon as point k + r arrives; ``traj_components`` window by
    window, bit for bit."""
    return _stream(r, sampled=False)


@functools.cache
def sample_stream(r: int) -> Callable[..., Iterator[float]]:
    """A generator function of a run of (t, value) pairs, as ``slot_stream``
    takes, and an integrand f such as ``Lagrangian.value``: one sample
    f(t_k, (v_0, ..., v_r)) per window of ``slot_stream``, bit for bit,
    formed as the window's last point arrives.  A series term resumes this
    one generator over its points."""
    return _stream(r, sampled=True)


def _stream(r: int, sampled: bool) -> Callable:
    """The code of both stream shapes, straight-line and built once per
    order and shape; they differ only in f and the yield line.  Slot i's
    quotient table is anchored at the window base, so its level-l entry at
    position p is (E[p+1] - E[p]) / (t[p+1] - t[p]); moving the base one
    step shifts every entry one position left, and each new point adds one
    diagonal: i divisions for slot i, kept in rotating locals (s<i>_<l> is
    the last entry of level l, d<j> the window's j-th step)."""
    lines = [f"def stream(points{', f' if sampled else ''}):", "    points = iter(points)"]

    def add_point(m: int, indent: str) -> None:
        """The new diagonal of every slot whose table holds point m of the
        first window (at position m - (r - i)); at m = r the slots' tops."""
        for i in range(1, r + 1):
            p = m - (r - i)
            if p < 1:
                continue
            lands = ["x"] * (p - 1) + [f"u{i}" if m == r else f"s{i}_{p}"]
            lines.append(f"{indent}{lands[0]} = dv / d{p - 1}")
            for l in range(2, p + 1):
                old = f"s{i}_{l - 1}"
                lines.append(f"{indent}{old}, {lands[l - 1]} = x, (x - {old}) / d{p - l}")

    for m in range(r):
        lines += [f"    for t{m}, v in points:", "        break", "    else:", "        return"]
        if m:
            lines += [f"    d{m - 1} = t{m} - t{m - 1}", "    dv = v - vp"]
            add_point(m, "    ")
        lines.append("    vp = v")
    lines += ["    for t, v in points:", f"        d{r - 1} = t - t{r - 1}", "        dv = v - vp"]
    add_point(r, "        ")
    slots = ", ".join(["v"] + [f"u{i}" for i in range(1, r + 1)])
    lines.append(f"        yield f(t0, ({slots},))" if sampled else f"        yield t0, [{slots}]")
    for rotated in ([f"t{j}" for j in range(r)] + ["t"], [f"d{j}" for j in range(r)]):
        if len(rotated) > 1:
            lines.append(f"        {', '.join(rotated[:-1])} = {', '.join(rotated[1:])}")
    lines.append("        vp = v")
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    return namespace["stream"]


def trajectory(
    problem: Problem, y: Candidate, point: LatticePoint, depth: int = DEFAULT_DEPTH
) -> tuple[float, ...]:
    """(t, v_0, ..., v_r) at a lattice point.

    At omega0 (or on a degenerate orbit) the slot values reduce to
    v_i = q**(i*(r-i)) * D^i[y](omega0), with the iterates from
    ``_iterates_at_fixed``: y at omega0 and on one window of r + 2 points."""
    q, r = problem.params.q, problem.r
    y = _resolve(y)
    orbits = _orbits(problem, y)
    if point.origin is not Origin.FIXED and not orbits[point.origin].degenerate:
        taus, vals = orbits[point.origin].window(point.n, r + 1)
        return (taus[0], *traj_components(taus, vals))
    at_fixed = _iterates_at_fixed(problem, y, orbits, r, depth)
    return (problem.params.omega0, *(q ** (i * (r - i)) * d for i, d in enumerate(at_fixed)))


def _iterates_at_fixed(problem: Problem, y: Resolved, orbits: Orbits, n: int, depth: int) -> list[float]:
    """D^0..D^n y at omega0: the value there, then ``iterates_at_fixed`` over
    the n + 2 point ``fixed_point_window`` of y's orbits, through the grid's
    own depth for grid data and through ``depth`` for a function of t."""
    if isinstance(y, GridFunction):
        head, depth = y.value_at_fixed, y.lattice.depth
    else:
        head = y(problem.params.omega0)
    if n == 0:
        return [head]
    return [head, *iterates_at_fixed(*fixed_point_window(orbits.values(), depth, n + 2), n)]


# ---------------------------------------------------------------------------
# Functional value and first variation
# ---------------------------------------------------------------------------

def _one_sided_functional(
    problem: Problem, prefactor: float, points: Iterator[tuple[float, float]], tol: float,
    max_terms: int, closed: float | None = None,
) -> SeriesResult:
    """The one-sided series over a walk of (t, value) orbit points, or its
    ``closed`` value from ``_closings``."""
    samples = sample_stream(problem.r)(points, problem.lagrangian.value)
    return _indexed_series(problem.params.q, prefactor, samples, tol, max_terms, closed)


def _closings(problem: Problem, expr: Expr | None, orbits: Sequence[Orbit]) -> list:
    """Per orbit, its whole series closed at omega0: the Jackson integral of
    the polynomial jet of the integrand along the candidate's tree out to
    the seed, s_0 = prefactor / (1 - q) (``jets.terms``).  None where there
    is no tree, the jet refuses or is not a polynomial, or the value is not
    finite.  ``jets`` is imported here, on first use."""
    if expr is None:
        return [None] * len(orbits)
    from . import jets

    q, omega0 = problem.params.q, problem.params.omega0
    try:
        jet = jets.integrand(problem.lagrangian.expr, problem.r, expr, q, omega0)
    except HahnvarError:
        jet = None
    if jet is None:
        return [None] * len(orbits)
    values = [sum(jets.terms(jet, q, o.prefactor / (1 - q))) for o in orbits]
    return [v if math.isfinite(v) else None for v in values]


def functional_value(
    problem: Problem,
    y: Candidate,
    tol: float = DEFAULT_TOL,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> SeriesResult:
    """The objective integral, as the difference of the two one-sided series.

    For an expression candidate (a tree or its source) whose integrand has
    a polynomial Taylor jet at omega0 (``jets.integrand``), each series
    closes there exactly (``_closings``), with terms_used 0 and tail_bound
    0.0.  Anything else walks its orbit as for any other candidate: a jet
    that refuses or is a series (abs of a non-constant operand, a
    transcendental or rational integrand), or a closed value that is not
    finite."""
    if isinstance(y, str):
        y = parse(y)
    expr = y if isinstance(y, Expr) else None
    y = _resolve(y)
    a, b = _orbits(problem, y).values()
    orbits = (b, a)
    at_b, at_a = (
        _one_sided_functional(problem, o.prefactor, o.walk(), tol, max_terms, closed)
        for o, closed in zip(orbits, _closings(problem, expr, orbits))
    )
    return at_b - at_a


class BoundaryViolation(Frozen):
    endpoint: str  # "a" or "b"
    index: int  # derivative order i
    actual: float
    target: float
    error: float


def _boundary_violations(
    problem: Problem, y: Resolved, orbits: Orbits, targets: Sequence[Sequence[float]],
    tol: float, depth: int,
) -> list[BoundaryViolation]:
    """The conditions D^i y = targets[endpoint][i], i < r, missed by more than tol."""
    out = []
    for (origin, orbit), want in zip(orbits.items(), targets):
        actuals = (_iterates_at_fixed(problem, y, orbits, problem.r - 1, depth) if orbit.degenerate
                   else [iterated_quotient(*orbit.window(0, i + 1)) for i in range(problem.r)])
        for i, actual in enumerate(actuals):
            err = abs(actual - want[i])
            if not err <= tol:
                out.append(BoundaryViolation(origin.value, i, actual, want[i], err))
    return out


def is_admissible(
    problem: Problem, y: Candidate, tol: float = 1e-9, depth: int = DEFAULT_DEPTH
) -> tuple[bool, list[BoundaryViolation]]:
    """Whether all 2r endpoint conditions hold within tol, with the offenders."""
    y = _resolve(y)
    targets = (problem.alpha, problem.beta)
    bad = _boundary_violations(problem, y, _orbits(problem, y), targets, tol, depth)
    return (not bad, bad)


def is_variation(
    problem: Problem, eta: Candidate, tol: float = 1e-9, depth: int = DEFAULT_DEPTH
) -> tuple[bool, list[BoundaryViolation]]:
    """Whether D^i eta vanishes at both endpoints (within tol) for i < r."""
    eta = _resolve(eta)
    zeros = ((0.0,) * problem.r,) * 2
    bad = _boundary_violations(problem, eta, _orbits(problem, eta), zeros, tol, depth)
    return (not bad, bad)


def first_variation(
    problem: Problem,
    y: Candidate,
    eta: Candidate,
    tol: float = DEFAULT_TOL,
    max_terms: int = DEFAULT_MAX_TERMS,
    variation_tol: float = 1e-8,
) -> SeriesResult:
    """Gateaux derivative of the functional at y along an admissible variation.

    Integrates sum over i of dL/du_i (trajectory of y) times the i-th
    trajectory slot of eta.  Raises NotAVariation unless eta's boundary
    iterates vanish within variation_tol.
    """
    y, eta = _resolve(y), _resolve(eta)
    etas, zeros = _orbits(problem, eta), ((0.0,) * problem.r,) * 2
    bad = _boundary_violations(problem, eta, etas, zeros, variation_tol, DEFAULT_DEPTH)
    if bad:
        worst = max(v.error for v in bad)
        raise NotAVariation(
            f"perturbation does not vanish at the endpoints (worst error {worst:.3e})"
        )
    ys = _orbits(problem, y)
    stream = slot_stream(problem.r)
    gradient = problem.lagrangian.gradient
    parts = []
    for origin in (Origin.B, Origin.A):
        vy = ys[origin]
        windows = zip(stream(vy.walk()), stream(etas[origin].walk()))
        samples = (
            math.fsum(map(mul, gradient(t, us), es)) for (t, us), (_, es) in windows
        )
        parts.append(_indexed_series(problem.params.q, vy.prefactor, samples, tol, max_terms))
    return parts[0] - parts[1]


def first_variation_fd(
    problem: Problem,
    y: Candidate,
    eta: Candidate,
    eps: float = 1e-5,
    tol: float = DEFAULT_TOL,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> float:
    """Central-difference check value (L[y + eps*eta] - L[y - eps*eta]) / (2*eps).

    Each shifted series walks y's and eta's orbits side by side, to the
    shallower of the two."""
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    ys, etas = _orbits(problem, _resolve(y)), _orbits(problem, _resolve(eta))
    shifted = []
    for coeff in (eps, -eps):
        at_b, at_a = (
            _one_sided_functional(
                problem,
                vy.prefactor,
                ((t, v + coeff * e) for (t, v), (_, e) in zip(vy.walk(), ve.walk())),
                tol,
                max_terms,
            )
            for vy, ve in ((ys[o], etas[o]) for o in (Origin.B, Origin.A))
        )
        shifted.append(at_b.value - at_a.value)
    return (shifted[0] - shifted[1]) / (2.0 * eps)


# ---------------------------------------------------------------------------
# Euler-Lagrange residuals
# ---------------------------------------------------------------------------

def _coeff(q: float, i: int) -> float:
    """Signed weight of the i-th operator iterate in the residual."""
    return (-1.0) ** (i + 1) * (1.0 / q) ** ((i - 1) * i // 2)


def _residuals(
    q: float, lagr: Lagrangian, taus: Sequence[float], vals: Sequence[float]
) -> list[float]:
    """The residual, as the ``math.fsum`` of its weighted terms, at every base
    with 2r + 1 points of room along a run (consecutive orbit points, no
    zero step); the one place the module forms a residual."""
    windows = slot_stream(lagr.order)(zip(taus, vals))
    partials = zip(*[lagr.gradient(t, us) for t, us in windows])
    per_i = [quotient_levels(taus, g, i) for i, g in enumerate(partials)]
    coeffs = [_coeff(q, i) for i in range(len(per_i))]
    return [math.fsum(c * d for c, d in zip(coeffs, terms)) for terms in zip(*per_i)]


def el_residual(
    problem: Problem, y: Candidate, point: LatticePoint, depth: int = DEFAULT_DEPTH
) -> float:
    """Euler-Lagrange residual at one lattice point; zero along both orbits is
    the stationarity (necessary) condition, and for r = 1 the value is
    exactly D[dL/du1] - dL/du0.  On an orbit it is ``el_report``'s entry bit
    for bit; at omega0 (or on a degenerate orbit) it is the
    ``_residual_at_fixed`` estimate from the orbit read through ``depth``
    (or the grid depth, if shallower), ``el_report``'s omega0 entry at the
    same depth."""
    orbits = _orbits(problem, _resolve(y))
    if point.origin is not Origin.FIXED and not orbits[point.origin].degenerate:
        taus, vals = orbits[point.origin].window(point.n, 2 * problem.r + 1)
        return _residuals(problem.params.q, problem.lagrangian, taus, vals)[0]
    return _residual_at_fixed(problem, orbits, depth)


def _residual_at_fixed(problem: Problem, orbits: Orbits, depth: int) -> float:
    """Residual at omega0 extrapolated from the residuals R at the two deepest
    bases of an orbit: (R_top - q*R_(top-1)) / (1 - q), over the 2r + 2
    points of the ``fixed_point_window`` through ``depth`` (or the grid
    depth or the first merge, if shallower), points ``el_report`` also
    reads at that depth, from the same orbits in a report."""
    q, taus, vals = fixed_point_window(orbits.values(), depth, 2 * problem.r + 2)
    return extrapolate_to_fixed(q, _residuals(q, problem.lagrangian, taus, vals))


class ElReport(Record):
    """Stationarity check over a whole lattice.

    ``residuals`` maps orbit points to ``el_residual``'s values, bit for
    bit, and omega0, when included, to ``el_residual``'s omega0 value at
    the report's depth (for grid data too): the extrapolation of the last
    two residuals stored here of the first live orbit that has two.  That
    entry is advisory, so the pass verdict judges it at 100x the
    tolerance.  ``max_abs_residual`` is the max over everything stored."""

    residuals: dict[LatticePoint, float]
    max_abs_residual: float
    boundary_violations: list[BoundaryViolation]
    depth_used: int
    omega0_included: bool
    omega0_residual: float | None
    tol: float
    passed: bool


def el_report(
    problem: Problem,
    y: Candidate,
    depth: int = DEFAULT_DEPTH,
    tol: float = 1e-9,
    include_omega0: bool = False,
) -> ElReport:
    """Residuals at every orbit point with full stencil room, plus the
    boundary check.  Each orbit is evaluated up to its usable cap (the
    grid depth, or the first float merge of two nodes near omega0), and
    depth_used records the deepest index actually evaluated.  A tol that is
    negative or not finite raises ValueError."""
    if not (tol >= 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be finite and at least 0, got {tol!r}")
    r = problem.r
    if depth < 2 * r + 1:
        raise InsufficientDepth(f"el_report needs depth >= {2 * r + 1}")
    y = _resolve(y)
    orbits = _orbits(problem, y)
    residuals: dict[LatticePoint, float] = {}
    depth_used = 0
    for origin, orbit in orbits.items():
        top = -1 if orbit.degenerate else orbit.cap(depth) - 2 * r
        if top < 0:
            continue
        run = _residuals(problem.params.q, problem.lagrangian, *orbit.window(0, top + 2 * r + 1))
        residuals.update((LatticePoint(origin, n), v) for n, v in enumerate(run))
        depth_used = max(depth_used, top)
    orbit_max = max((abs(v) for v in residuals.values()), default=0.0)
    violations = _boundary_violations(problem, y, orbits, (problem.alpha, problem.beta), tol, depth)
    passed = orbit_max <= tol and not violations
    omega0_res = None
    if include_omega0:
        omega0_res = _residual_at_fixed(problem, orbits, depth)
        residuals[OMEGA0_POINT] = omega0_res
        passed = passed and abs(omega0_res) <= 100.0 * tol
    max_abs = max((abs(v) for v in residuals.values()), default=0.0)
    return ElReport(
        residuals=residuals,
        max_abs_residual=max_abs,
        boundary_violations=violations,
        depth_used=depth_used,
        omega0_included=include_omega0,
        omega0_residual=omega0_res,
        tol=tol,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# Limit-case residuals (omega -> 0 and q -> 1)
# ---------------------------------------------------------------------------

def _limit_residual(
    problem: Problem, y: Candidate, point: LatticePoint, q: float, omega: float
) -> float:
    """Residual at point on the orbit of t -> q*t + omega from its endpoint seed."""
    if point.origin is Origin.FIXED:
        raise ValueError("limit residuals are defined along the endpoint orbits only")
    fn = _resolve(y)
    if isinstance(fn, GridFunction):
        raise TypeError("limit residuals need a candidate evaluable at arbitrary reals")
    seed = problem.a if point.origin is Origin.A else problem.b
    taus, vals = Orbit(q, omega, seed, fn).window(point.n, 2 * problem.r + 1)
    return _residuals(q, problem.lagrangian, taus, vals)[0]


def q_el_residual(problem: Problem, y: Candidate, point: LatticePoint) -> float:
    """Residual for the omega = 0 (pure dilation) operators on the q-lattice
    {a*q^n} union {b*q^n}; the problem's omega is ignored."""
    return _limit_residual(problem, y, point, problem.params.q, 0.0)


def h_el_residual(problem: Problem, y: Candidate, point: LatticePoint) -> float:
    """Residual for the q = 1 (pure shift) operators with step h = omega on the
    lattice {a + n*h} union {b + n*h}; h lost to rounding raises DegenerateDenominator."""
    return _limit_residual(problem, y, point, 1.0, problem.params.omega)
