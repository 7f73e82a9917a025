"""Damped Newton on the truncated functional."""

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import rand_problem
from hahnvar import (
    HahnParams,
    LatticePoint,
    Origin,
    Problem,
    el_report,
    el_residual,
    functional_value,
    is_admissible,
    minimize_direct,
)
from hahnvar.demos import double_well_problem, random_admissible_grid
from hahnvar.dsl import Lagrangian
from hahnvar.errors import NotDifferentiable
from hahnvar.minimize import _Newton
from hahnvar.variational import slot_stream, traj_components

P = HahnParams(0.5, 0.5)
QUAD = Problem(P, 1, -1.0, 2.0, (0.0,), (0.0,), "u1^2")


def test_deterministic_for_fixed_seed():
    one = minimize_direct(QUAD, depth=10, seed=7, max_iters=120)
    two = minimize_direct(QUAD, depth=10, seed=7, max_iters=120)
    assert one.history == two.history
    assert one.grid.values_a == two.grid.values_a
    assert one.grid.values_b == two.grid.values_b


def test_quadratic_reaches_flat_minimum():
    # any constant is stationary for L = u1^2; boundary pins it to zero slope
    got = minimize_direct(QUAD, depth=12, seed=0)
    assert got.converged
    assert got.functional == pytest.approx(0.0, abs=1e-6)
    assert got.boundary_violation_norm <= 1e-8
    assert is_admissible(QUAD, got.grid, tol=1e-6)[0]


def test_history_non_increasing_between_escalations():
    got = minimize_direct(QUAD, depth=10, seed=3, max_iters=200)
    drops = sum(1 for x, y in zip(got.history, got.history[1:]) if y > x + 1e-12)
    # weight escalations may lift the penalized objective, nothing else may
    assert drops <= 3


def test_history_scales_exactly_with_integrand():
    base = minimize_direct(QUAD, depth=10, seed=11, max_iters=80)
    double = minimize_direct(
        Problem(P, 1, -1.0, 2.0, (0.0,), (0.0,), "2*u1^2"),
        depth=10,
        seed=11,
        max_iters=80,
    )
    assert double.history == [2.0 * v for v in base.history]


def test_maximize_negates_the_search():
    # maximizing -u1^2 is the same search as minimizing u1^2
    neg = Problem(P, 1, -1.0, 2.0, (0.0,), (0.0,), "-(u1^2)")
    got = minimize_direct(neg, depth=12, seed=0, maximize=True)
    assert got.functional == pytest.approx(0.0, abs=1e-6)


def test_depth_validation():
    with pytest.raises(ValueError):
        minimize_direct(QUAD, depth=3)
    with pytest.raises(ValueError):
        minimize_direct(QUAD, depth=12, max_iters=0)


def test_order_two_stays_finite():
    prob = Problem(P, 2, -1.0, 2.0, (0.0, 0.0), (0.0, 0.0), "u2^2 + 0.1*u0^2")
    got = minimize_direct(prob, depth=10, seed=1, max_iters=60)
    assert all(abs(v) < 1e6 for v in got.history)
    assert functional_value(prob, got.grid, tol=1e-9).value == pytest.approx(
        got.functional, rel=1e-6, abs=1e-6
    )


# ---------------------------------------------------------------------------
# Newton on the truncated functional
# ---------------------------------------------------------------------------

# b = omega0 = 1, so the conditions at b bind the omega0 value and the
# extrapolated D y(omega0) from the deepest values of orbit a.
DEGENERATE_R2 = Problem(P, 2, -1.0, 1.0, (0.0, 0.0), (0.0, 0.3), "u2^2 + 0.1*u0^2")
NON_QUADRATIC = Problem(HahnParams(0.6, 0.3), 1, -1.0, 2.0, (0.2,), (-0.4,),
                        "u1^2 + 0.3*u0^4 - 0.5*t*u0")


def test_double_well_depth_12_converges_to_its_zero_minimum():
    got = minimize_direct(double_well_problem(), depth=12, seed=7)
    assert got.converged
    assert got.objective <= 1e-10
    assert got.objective == got.functional and got.penalty_weight == 0.0
    assert len(got.history) == got.iterations + 1


@pytest.mark.parametrize("seed", [211, 500])
def test_convex_seeds_pattern_search_left_unconverged_now_converge(seed):
    got = minimize_direct(QUAD, depth=12, seed=seed)
    assert got.converged
    assert got.objective <= 1e-12


def test_degenerate_endpoint_order_two_keeps_its_conditions_exactly():
    got = minimize_direct(DEGENERATE_R2, depth=10, seed=1)
    assert got.converged
    assert got.boundary_violation_norm <= 1e-8
    ok, bad = is_admissible(DEGENERATE_R2, got.grid)
    assert ok, bad
    assert got.grid.value_at_fixed == 0.0


def test_iterates_running_off_the_float_range_end_the_search_unconverged():
    # Unbounded below: the iterates grow until the line-search slope
    # overflows math.fsum, which must end the search, not raise.
    got = minimize_direct(rand_problem(random.Random(1012), 1), depth=10, seed=12)
    assert not got.converged
    assert math.isfinite(got.objective) and got.history[-1] == got.objective
    assert all(y <= x for x, y in zip(got.history, got.history[1:]))


def test_kinked_integrand_returns_a_result():
    kinked = Problem(P, 1, -1.0, 2.0, (0.0,), (0.0,), "abs(u1)")
    got = minimize_direct(kinked, depth=10, seed=1, max_iters=50)
    assert got.history[-1] == got.objective
    assert all(y <= x for x, y in zip(got.history, got.history[1:]))


@pytest.mark.parametrize(
    "problem, depth, seed",
    [(QUAD, 12, 7), (double_well_problem(), 12, 7), (NON_QUADRATIC, 12, 3)],
    ids=["convex", "double_well", "non_quadratic"],
)
def test_minimizers_are_stationary_by_the_euler_lagrange_residual(problem, depth, seed):
    got = minimize_direct(problem, depth=depth, seed=seed)
    assert got.converged
    report = el_report(problem, got.grid, depth=depth)
    assert report.max_abs_residual <= 1e-8
    assert report.boundary_violations == []


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 2**32 - 1))
def test_gradient_of_truncated_functional_is_weighted_el_residual(seed):
    # r = 1: dF/dy_n = -c * q^(n-1) * EL(n-1), c the orbit's signed prefactor.
    rng = random.Random(seed)
    problem = rand_problem(rng, 1)
    depth = 10
    grid = random_admissible_grid(problem, rng, depth=depth)
    q = problem.params.q
    search = _Newton(problem, depth, random.Random(0))
    x = [v for orb in search.orbits for v in grid.orbit_values(orb.origin)[1 : orb.usable + 1]]
    grad = search.derivatives(x)[0]

    def truncated(g):
        return functional_value(problem, g, tol=1e-300).value

    for orb in search.orbits:
        prefactor = orb.taus[0] * (1.0 - q) - problem.params.omega
        c = prefactor if orb.origin is Origin.B else -prefactor
        for n in range(1, depth):
            want = -c * q ** (n - 1) * el_residual(problem, grid, LatticePoint(orb.origin, n - 1))
            point = LatticePoint(orb.origin, n)
            h = 1e-4
            up = truncated(grid.replace_value(point, grid.value(point) + h))
            down = truncated(grid.replace_value(point, grid.value(point) - h))
            assert (up - down) / (2 * h) == pytest.approx(want, rel=1e-7, abs=1e-9)
            assert grad[orb.offset + n - 1] == pytest.approx(want, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# One pass per iterate
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=100)
@given(st.floats(0.3, 0.95), st.floats(0.05, 2.0), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_newton_windows_are_traj_components_bit_for_bit(q, omega, r, seed):
    rng = random.Random(seed)
    params = HahnParams(q, omega)
    w0 = params.omega0
    problem = Problem(params, r, w0 - rng.uniform(0.5, 3.0), w0 + rng.uniform(0.5, 3.0),
                      (0.0,) * r, (0.0,) * r, f"u{r}^2")
    search = _Newton(problem, 2 * r + 2 + rng.randrange(20), rng)
    x = [rng.uniform(-2.0, 2.0) for _ in search.x0]
    windows = list(search._windows(x))
    assert len(windows) == sum(len(orb.weights) for orb in search.orbits)
    for orb, k, w, t, us in windows:
        taus, vals = orb.taus[k : k + r + 1], search.values(orb, x)[k : k + r + 1]
        assert w == orb.weights[k]
        assert t == taus[0]
        assert [v.hex() for v in us] == [v.hex() for v in traj_components(taus, vals)]


@pytest.mark.parametrize(
    "problem, depth, steps",
    [(QUAD, 12, 2), (double_well_problem(), 8, 19), (double_well_problem(), 12, 56)],
    ids=["convex_d12", "double_well_d8", "double_well_d12"],
)
def test_hessian_is_built_once_per_newton_step_taken(monkeypatch, problem, depth, steps):
    # none at the point the converging step reaches: the search ends there
    calls = []
    derivatives = _Newton.derivatives

    def counted(self, x):
        calls.append(x)
        return derivatives(self, x)

    monkeypatch.setattr(_Newton, "derivatives", counted)
    got = minimize_direct(problem, depth=depth, seed=7)
    assert got.converged
    assert len(calls) == got.iterations == steps


def test_second_partials_faulting_at_the_optimum_leave_the_result_unchanged():
    # The converging step's point is returned without its derivatives, so
    # a fault in them there is not seen: same history, same grid, converged.
    problem = double_well_problem()
    clean = minimize_direct(problem, depth=8, seed=7)
    optimum = {
        (t, tuple(us))
        for origin in (Origin.A, Origin.B)
        for t, us in slot_stream(1)(clean.grid.orbit(origin).walk())
    }

    class FaultsAtOptimum(Lagrangian):
        def derivatives(self, t, us):
            if (t, tuple(us)) in optimum:
                raise NotDifferentiable("second partials fault at the optimum")
            return super().derivatives(t, us)

    faulty = replace(problem, lagrangian=FaultsAtOptimum(problem.lagrangian.expr, 1))
    with pytest.raises(NotDifferentiable):
        _Newton(faulty, 8, random.Random(0)).derivatives(
            [v for origin in (Origin.A, Origin.B) for v in clean.grid.orbit_values(origin)[1:]]
        )
    got = minimize_direct(faulty, depth=8, seed=7)
    assert got.converged
    assert got.history == clean.history
    assert got.grid == clean.grid
