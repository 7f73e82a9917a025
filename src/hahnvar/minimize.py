"""Direct minimization of the truncated functional on the lattice.

Free variables are the candidate's values at the orbit points (plus the
value at omega0); the 2r boundary conditions are enforced by a
quadratic penalty rather than eliminated, which keeps every coordinate
plain.  The search is derivative-free coordinate pattern search: probe
each coordinate by +/- step, accept strict improvements, shrink the
step when a sweep stalls, and escalate the penalty weight tenfold when
a stall coincides with boundary violations.  Deterministic for a given
seed (the rng drives the initial perturbation and the per-sweep
coordinate order, nothing else).

Failure to converge is reported in the result, never raised.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

from .core import DEFAULT_DEPTH, GridFunction, Orbit, Origin
from .dsl import Lagrangian, Neg
from .errors import DomainError, NonFiniteValue
from .operators import extrapolate_to_fixed, iterated_quotient
from .variational import Problem, traj_components

_SHRINK = 0.5
_ESCALATE = 10.0
_MAX_WEIGHT = 1e16
_VIOLATION_STALL = 1e-8


@dataclass
class MinimizeResult:
    """Best iterate found plus the trace of the search.

    ``objective`` is the penalized objective of the final iterate
    (recomputed exactly); ``functional`` is the truncated functional
    alone.  ``history`` holds the penalized objective after each sweep:
    non-increasing at fixed penalty weight, but a weight escalation can
    lift it between sweeps."""

    grid: GridFunction
    objective: float
    functional: float
    history: list[float]
    converged: bool
    iterations: int
    boundary_violation_norm: float
    penalty_weight: float


class _Orbit:
    """Mutable per-orbit search state."""

    def __init__(self, problem: Problem, origin: Origin, depth: int):
        seed = problem.a if origin is Origin.A else problem.b
        orbit = Orbit(problem.params.q, problem.params.omega, seed)
        self.origin = origin
        self.prefactor = orbit.prefactor
        # F = (series at b) - (series at a)
        self.coef = self.prefactor if origin is Origin.B else -self.prefactor
        self.taus = [orbit.node(n) for n in range(depth + 1)]
        # Quotients past the orbit's first float merge near omega0 are
        # meaningless, so the search stops at its usable cap.
        self.usable = orbit.reach(depth)
        self.top_term = self.usable - problem.r  # last valid term index
        self.values: list[float] = []
        self.terms: list[float] = []
        self.term_sum = 0.0


class _Search:
    def __init__(self, problem: Problem, depth: int, rng: random.Random):
        self.problem = problem
        self.r = problem.r
        self.q = problem.params.q
        self.depth = depth
        self.lagr = problem.lagrangian
        self.orbits = [
            o
            for o in (_Orbit(problem, Origin.A, depth), _Orbit(problem, Origin.B, depth))
            if o.prefactor != 0.0
        ]
        self.degenerate_endpoint = len(self.orbits) < 2

        a0, b0 = problem.alpha[0], problem.beta[0]
        span = problem.b - problem.a

        def interp(t: float) -> float:
            return a0 + (b0 - a0) * (t - problem.a) / span

        self.scale = 1.0 + max(abs(a0), abs(b0))
        for orb in self.orbits:
            orb.values = [interp(t) for t in orb.taus]
            for n in range(self.r, orb.usable + 1):
                orb.values[n] += 0.05 * self.scale * self.q**n * rng.uniform(-1.0, 1.0)
            for n in range(orb.usable + 1, depth + 1):
                orb.values[n] = orb.values[orb.usable]
        self.fixed_value = interp(problem.params.omega0)

        # Coordinates: every usable orbit value, then the omega0 value.
        # Term curvature for the value at orbit index n grows like q^-n
        # (the q^n series weight loses to the 1/spacing^2 of the
        # quotients), so probes are shrunk by q^(n/2) to equalize it.
        self.coords: list[tuple[int, int]] = [
            (oi, n) for oi, orb in enumerate(self.orbits) for n in range(orb.usable + 1)
        ]
        self.coords.append((-1, 0))
        self.step_scale = {
            coord: self.q ** (coord[1] / 2.0) if coord[0] >= 0 else 1.0
            for coord in self.coords
        }

        self.rebuild()
        self.weight = 0.0  # set by minimize_direct once the scale is known

    def rebuild(self) -> None:
        for orb in self.orbits:
            orb.terms = [self._term(orb, k) for k in range(orb.top_term + 1)]
            orb.term_sum = math.fsum(orb.terms)

    def snapshot(self) -> tuple[list[list[float]], float]:
        return ([list(orb.values) for orb in self.orbits], self.fixed_value)

    def restore(self, snap: tuple[list[list[float]], float]) -> None:
        vals, fixed = snap
        for orb, v in zip(self.orbits, vals):
            orb.values = list(v)
        self.fixed_value = fixed
        self.rebuild()

    def extrapolate(self, base):
        """Move to 2*current - base (repeat the last displacement).

        Returns (pre-move state, ok); on an evaluation fault the move is
        rolled back and ok is False."""
        prev = self.snapshot()
        base_vals, base_fixed = base
        for orb, pv, bv in zip(self.orbits, prev[0], base_vals):
            orb.values = [2.0 * p - b for p, b in zip(pv, bv)]
        self.fixed_value = 2.0 * prev[1] - base_fixed
        try:
            self.rebuild()
        except (DomainError, NonFiniteValue):
            self.restore(prev)
            return prev, False
        return prev, True

    def _term(self, orb: _Orbit, k: int) -> float:
        ts = orb.taus[k : k + self.r + 1]
        us = traj_components(ts, orb.values[k : k + self.r + 1])
        return self.q**k * self.lagr.value(ts[0], us)

    def functional(self) -> float:
        return math.fsum(orb.coef * orb.term_sum for orb in self.orbits)

    def _endpoint_value(self, orb: _Orbit | None, i: int) -> float:
        """D^i of the iterate at the endpoint seeding orb (None = degenerate)."""
        if orb is not None:
            if i == 0:
                return orb.values[0]
            return iterated_quotient(orb.taus[: i + 1], orb.values[: i + 1])
        if i == 0:
            return self.fixed_value
        live = self.orbits[0]
        top = live.usable
        if top < i + 1:
            return self.fixed_value
        return extrapolate_to_fixed(self.q, live.taus[: top + 1], live.values[: top + 1], i)

    def violations(self) -> list[float]:
        prob = self.problem
        by_origin = {orb.origin: orb for orb in self.orbits}
        out = []
        for origin, targets in ((Origin.A, prob.alpha), (Origin.B, prob.beta)):
            orb = by_origin.get(origin)
            for i in range(self.r):
                out.append(self._endpoint_value(orb, i) - targets[i])
        return out

    def penalty(self) -> float:
        return math.fsum(v * v for v in self.violations())

    def objective(self) -> float:
        return self.functional() + self.weight * self.penalty()

    def probe(self, coord: tuple[int, int], delta: float, current: float) -> float | None:
        """Objective after moving one coordinate, or None if not an improvement.

        The move is kept on success and rolled back otherwise."""
        oi, n = coord
        if oi < 0:
            old = self.fixed_value
            self.fixed_value = old + delta
            candidate = self.objective()
            if candidate < current:
                return candidate
            self.fixed_value = old
            return None
        orb = self.orbits[oi]
        old = orb.values[n]
        lo = max(0, n - self.r)
        hi = min(orb.top_term, n)
        old_terms = orb.terms[lo : hi + 1]
        orb.values[n] = old + delta
        try:
            new_terms = [self._term(orb, k) for k in range(lo, hi + 1)]
        except (DomainError, NonFiniteValue):
            orb.values[n] = old
            return None
        for k, new_t in zip(range(lo, hi + 1), new_terms):
            orb.term_sum += new_t - orb.terms[k]
            orb.terms[k] = new_t
        candidate = self.objective()
        if candidate < current:
            return candidate
        orb.values[n] = old
        for k in range(lo, hi + 1):
            orb.term_sum += old_terms[k - lo] - orb.terms[k]
            orb.terms[k] = old_terms[k - lo]
        return None

    def refresh(self) -> None:
        for orb in self.orbits:
            orb.term_sum = math.fsum(orb.terms)

    def to_grid(self) -> GridFunction:
        lattice = self.problem.lattice(self.depth)
        by_origin = {orb.origin: orb.values for orb in self.orbits}
        fill = [self.fixed_value] * (self.depth + 1)
        return GridFunction(
            lattice,
            values_a=list(by_origin.get(Origin.A, fill)),
            values_b=list(by_origin.get(Origin.B, fill)),
            value_at_fixed=self.fixed_value,
        )


def minimize_direct(
    problem: Problem,
    depth: int = DEFAULT_DEPTH,
    seed: int = 0,
    max_iters: int = 5000,
    maximize: bool = False,
    step_tol: float = 1e-10,
) -> MinimizeResult:
    """Coordinate pattern search on the truncated functional.

    One iteration is one sweep over all coordinates in seeded-random
    order.  Converged means the search stalled out (step below step_tol
    times the value scale) before exhausting max_iters; running out of
    sweeps reports converged=False with the best iterate kept.

    With maximize=True the negated integrand is minimized and the
    reported objective/history refer to that negated problem.
    """
    if depth < 2 * problem.r + 2:
        raise ValueError(f"depth must be at least {2 * problem.r + 2}")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if maximize:
        neg = Lagrangian(Neg(problem.lagrangian.expr), problem.lagrangian.order)
        problem = replace(problem, lagrangian=neg)

    rng = random.Random(seed)
    search = _Search(problem, depth, rng)

    # Penalty weight proportional to the functional's own magnitude so
    # that scaling the integrand rescales the whole search trace exactly.
    term_count = sum(orb.top_term + 1 for orb in search.orbits)
    mean_term = (
        math.fsum(abs(t) for orb in search.orbits for t in orb.terms) / term_count
        if term_count
        else 0.0
    )
    size = abs(search.functional()) + mean_term
    search.weight = 100.0 * size if size > 0.0 else 100.0

    step = 0.25 * search.scale
    step_floor = step_tol * search.scale
    # A sweep whose total gain is below this counts as stalled even if a
    # few probes were accepted; scales with the integrand like weight.
    improvement_floor = step_tol * size
    current = search.objective()
    history = [current]
    converged = False
    sweeps = 0
    while sweeps < max_iters:
        sweeps += 1
        order = list(search.coords)
        rng.shuffle(order)
        before = current
        start = search.snapshot()
        for coord in order:
            probe_step = step * search.step_scale[coord]
            for delta in (probe_step, -probe_step):
                accepted = search.probe(coord, delta, current)
                if accepted is not None:
                    current = accepted
                    break
        if before - current > improvement_floor:
            # Ride the sweep's aggregate displacement while it pays off
            # (the pattern move that lets the search track narrow valleys).
            base = start
            for _ in range(60):
                prev, ok = search.extrapolate(base)
                if not ok:
                    break
                candidate = search.objective()
                if candidate < current:
                    current = candidate
                    base = prev
                else:
                    search.restore(prev)
                    break
        history.append(current)
        if before - current <= improvement_floor:
            if search.penalty() > _VIOLATION_STALL**2 and search.weight < _MAX_WEIGHT:
                search.weight *= _ESCALATE
                current = search.objective()
            else:
                step *= _SHRINK
                if step < step_floor:
                    converged = True
                    break

    search.refresh()
    final_penalty = search.penalty()
    final_functional = search.functional()
    return MinimizeResult(
        grid=search.to_grid(),
        objective=final_functional + search.weight * final_penalty,
        functional=final_functional,
        history=history,
        converged=converged,
        iterations=sweeps,
        boundary_violation_norm=math.sqrt(final_penalty),
        penalty_weight=search.weight,
    )
