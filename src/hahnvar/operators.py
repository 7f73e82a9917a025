"""Difference-quotient operators on the sigma-scale and its limits.

The basic operator is

    D[f](t) = (f(q*t + omega) - f(t)) / ((q - 1)*t + omega),   t != omega0,

extended to the fixed point by the classical derivative f'(omega0).
In s = t - omega0 sigma is s -> q*s, so D is the Jackson derivative
there and D^r[f](omega0) = [r]_q!/r! * f^(r)(omega0): for an expression
from its Taylor jet at omega0 (``jets``), and estimated by a central
difference for a black-box function.  Iterated operators on
grid data are computed through stencils of consecutive orbit points;
the value of any iterate *at* omega0 is recovered by geometric
extrapolation along an orbit, using that for g continuous at omega0 with
one-sided slope, g(t_n) - g(omega0) shrinks by a factor q per step.
Every such estimate in the package reads the points that
``fixed_point_window`` chooses, and every iterate D^i there, of grid data,
a candidate or the minimizer's rows, comes from ``iterates_at_fixed``.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Iterable, Sequence

from .core import GridFunction, HahnParams, LatticePoint, Orbit, Origin, q_bracket
from .dsl import Expr, function_of_t, parse
from .errors import DegenerateDenominator, InsufficientDepth, NonFiniteValue


def _checked(fx: float, t: float) -> float:
    if not math.isfinite(fx):
        raise NonFiniteValue(f"function returned {fx!r} at t={t!r}")
    return fx


def _central_derivative(f: Callable[[float], float], r: int, t: float) -> float:
    """Numeric f^(r)(t) by one central stencil: the r-th difference
    h^-r * sum_k (-1)^k C(r, k) f(t + (r/2 - k)*h) at steps h and h/2,
    combined by one Richardson step, so truncation is O(h**4) and rounding
    about eps*|f|/h**r.  h = 2*max(1, |t|)*eps**(1/(r+4)) balances the
    two: on sin, exp, t^5 and 1/(2+t) at t = 0.3, 1 and 5 the error,
    relative to max(1, |f^(r)|), stays below 3e-13 at r = 1, 3e-10 at
    r = 2, 2e-8 at r = 3 and 5e-7 at r = 4."""
    def difference(h: float) -> float:
        total = 0.0
        for k in range(r + 1):
            x = t + (0.5 * r - k) * h
            total += (-1) ** k * math.comb(r, k) * _checked(f(x), x)
        return total / h**r

    h = 2.0 * max(1.0, abs(t)) * sys.float_info.epsilon ** (1.0 / (r + 4))
    fine = difference(h / 2.0)
    return fine + (fine - difference(h)) / 3.0


def iterated_quotient(taus: Sequence[float], vals: Sequence[float]) -> float:
    """Top entry of the triangular difference-quotient table.

    ``taus`` must be consecutive sigma-iterates t, sigma(t), ...; entry j
    of every level divides by taus[j+1] - taus[j] because a level-l value
    at taus[j] steps to taus[j+1].  Returns D^m at taus[0] for
    m = len(taus) - 1.
    """
    row = list(vals)
    m = len(row) - 1
    for level in range(m):
        nxt = []
        for j in range(m - level):
            den = taus[j + 1] - taus[j]
            if den == 0.0:
                raise DegenerateDenominator(
                    f"orbit step underflowed to zero near t={taus[j]!r}"
                )
            nxt.append((row[j + 1] - row[j]) / den)
        row = nxt
    return row[0]


def fit_leading_values(taus: Sequence[float], vals: list[float], targets: Sequence[float]) -> None:
    """Set vals[:len(targets)] in place so that D^i at taus[0] is targets[i].

    D^i at taus[0] is linear in vals[i] once vals[:i] are set, so each
    value is solved in turn from two probes."""
    vals[0] = targets[0]
    for i in range(1, len(targets)):
        vals[i] = 0.0
        at_zero = iterated_quotient(taus[: i + 1], vals[: i + 1])
        vals[i] = 1.0
        slope = iterated_quotient(taus[: i + 1], vals[: i + 1]) - at_zero
        vals[i] = (targets[i] - at_zero) / slope


def quotient_levels(taus: Sequence[float], vals: Sequence[float], level: int) -> list[float]:
    """All level-fold quotients along a usable run of orbit points (no
    zero steps): entry j is D^level at taus[j], from vals[j .. j + level]."""
    row = list(vals)
    for _ in range(level):
        row = [(row[j + 1] - row[j]) / (taus[j + 1] - taus[j]) for j in range(len(row) - 1)]
    return row


def hahn_derivative(params: HahnParams, f, t) -> float:
    """D[f] at t; f may be a callable on reals, an expression in t (an
    ``Expr`` or its source) or a GridFunction.

    At t == omega0 (exact float identity) it is the classical derivative.
    A vanishing denominator anywhere else raises DegenerateDenominator.
    """
    return hahn_derivative_n(params, f, 1, t)


def hahn_derivative_n(params: HahnParams, f, r: int, t) -> float:
    """r-fold iterate D^r[f] at t (r = 0 returns the plain value).

    Away from omega0 it is the quotient table over the r + 1 orbit nodes
    from t.  At t == omega0 it is [r]_q! f_r for an expression, from its
    Taylor jet there (``jets.derivative_at``, which raises DomainError
    where f is not smooth at omega0), and [r]_q!/r! * f^(r)(omega0) for a
    callable, with f^(r) a central-difference estimate
    (``_central_derivative`` states its accuracy).  A callable's
    first quotient off omega0, the case series integrands take per node,
    is formed here, as the quotient table over (t, sigma(t)) forms it."""
    _order(r)
    if r == 1 and callable(f) and not isinstance(t, LatticePoint) and t != params.omega0:
        s = params.q * t + params.omega
        fx, fs = _checked(f(t), t), _checked(f(s), s)
        den = s - t
        if den == 0.0:
            raise DegenerateDenominator(f"orbit step underflowed to zero near t={t!r}")
        return (fs - fx) / den
    if isinstance(f, GridFunction):
        if not isinstance(t, LatticePoint):
            raise TypeError("grid functions are differentiated at LatticePoints")
        return _grid_derivative_n(f, r, t)
    if isinstance(t, LatticePoint):
        raise TypeError("a lattice point needs a GridFunction carrying its lattice")
    if isinstance(f, (Expr, str)):
        expr = parse(f) if isinstance(f, str) else f
        if r and t == params.omega0:
            from .jets import derivative_at

            return derivative_at(expr, params.q, params.omega0, r)
        f = function_of_t(expr)
    return _callable_derivative_n(params.q, params.omega, params.omega0, f, r, t)


def _order(r: int) -> None:
    """Refuse an order that is not a nonnegative int (a bool is not one)."""
    if isinstance(r, bool) or not isinstance(r, int):
        raise ValueError(f"order r must be an integer, got {r!r}")
    if r < 0:
        raise ValueError("order r must be non-negative")


def _jackson_factor(q: float, r: int) -> float:
    """[r]_q!/r!, the ratio of D^r to the r-th classical derivative at omega0."""
    return math.prod(q_bracket(k, q) for k in range(1, r + 1)) / math.factorial(r)


def _callable_derivative_n(
    q: float, omega: float, omega0: float | None, f: Callable[[float], float], r: int, t: float
) -> float:
    """D^r of a callable on the scale t -> q*t + omega (omega0 None: no fixed point)."""
    if t == omega0:
        return _jackson_factor(q, r) * _central_derivative(f, r, t)
    # Past a merge the orbit repeats its last node, whose zero step raises.
    taus = Orbit.grow(q, omega, [t], r)
    taus += taus[-1:] * (r + 1 - len(taus))
    return iterated_quotient(taus, [_checked(f(x), x) for x in taus])


def _grid_derivative_n(y: GridFunction, r: int, point: LatticePoint) -> float:
    if r == 0:
        return y.value(point)
    if point.origin is Origin.FIXED or y.lattice.orbit_degenerate(point.origin):
        return grid_derivative_at_fixed(y, r)
    return iterated_quotient(*y.orbit(point.origin).window(point.n, r + 1))


def extrapolate_to_fixed(q: float, vals: Sequence[float]) -> float:
    """Estimate at omega0 of one quantity from its values at consecutive
    orbit points, deepest last.

    Removes the leading O(t - omega0) error of the two deepest values
    geometrically: with v_n = L + C*(t_n - omega0) and
    t_{n+1} - omega0 = q*(t_n - omega0), L = (v_{n+1} - q*v_n) / (1 - q).
    Its two callers pass the D^i of ``iterates_at_fixed`` and the residuals of
    ``variational``'s omega0 estimate, each over a ``fixed_point_window``.
    """
    return (vals[-1] - q * vals[-2]) / (1.0 - q)


def fixed_point_window(
    orbits: Iterable[Orbit], depth: int, width: int
) -> tuple[float, list[float], list[float]]:
    """q and the last ``width`` points (nodes, values) through
    ``orbit.cap(depth)`` of the first non-degenerate orbit that has that
    many: the points every estimate at omega0 reads."""
    for orbit in orbits:
        if not orbit.degenerate:
            top = orbit.cap(depth)
            if top + 1 >= width:
                return (orbit.q, *orbit.window(top + 1 - width, width))
    raise InsufficientDepth(f"no orbit offers {width} usable points for the omega0 estimate")


def iterates_at_fixed(q: float, taus: Sequence[float], vals: Sequence[float], n: int) -> list[float]:
    """D^1..D^n at omega0 from one window of n + 2 orbit points, deepest last:
    D^i extrapolates the last two D^i of ``quotient_levels``, on i + 2 points."""
    out, row = [], vals
    for _ in range(n):
        row = quotient_levels(taus, row, 1)
        out.append(extrapolate_to_fixed(q, row))
    return out


def grid_derivative_at_fixed(y: GridFunction, r: int) -> float:
    """Estimate D^r[y](omega0) by ``iterates_at_fixed`` over the r + 2 points
    of the ``fixed_point_window`` at the grid's own depth."""
    _order(r)
    if r == 0:
        return y.value_at_fixed
    orbits = (y.orbit(origin) for origin in (Origin.A, Origin.B))
    return iterates_at_fixed(*fixed_point_window(orbits, y.lattice.depth, r + 2), r)[-1]


def norm_r_inf(y: GridFunction, r: int) -> float:
    """sum over i <= r of the sup of |D^i y| over lattice points with room.

    The fixed point contributes only at i = 0; orbit points whose
    stencil ran past the depth or collapsed onto omega0 are skipped.
    """
    _order(r)
    lat = y.lattice
    if lat.depth < r + 1:
        raise InsufficientDepth(f"norm of order {r} needs depth >= {r + 1}")
    orbits = [y.orbit(origin) for origin in (Origin.A, Origin.B)]
    runs = [o.window(0, o.cap(lat.depth) + 1) for o in orbits if not o.degenerate]
    total = max(abs(v) for v in (y.value_at_fixed, *y.values_a, *y.values_b))
    for i in range(1, r + 1):
        level = [abs(v) for taus, vals in runs for v in quotient_levels(taus, vals, i)]
        if not level:
            raise InsufficientDepth(f"no computable D^{i} values at depth {lat.depth}")
        total += max(level)
    return total


def forward_h_difference(h: float, f: Callable[[float], float], t: float) -> float:
    """Forward difference (f(t + h) - f(t)) / ((t + h) - t), the q -> 1
    operator; t + h == t raises DegenerateDenominator."""
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError(f"step h must be finite and positive, got {h!r}")
    return _callable_derivative_n(1.0, h, None, f, 1, t)


def jackson_q_derivative(q: float, f: Callable[[float], float], t: float) -> float:
    """Classical q-derivative (omega = 0 scale); t = 0 falls back to f'(0)."""
    if not (0.0 < q < 1.0):
        raise ValueError(f"q must lie strictly inside (0, 1), got {q!r}")
    return _callable_derivative_n(q, 0.0, 0.0, f, 1, t)
