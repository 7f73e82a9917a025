"""Variational layer: trajectories, functionals, variations, residual checks."""

import enum
import math
import pickle
import random
from collections import Counter
from itertools import starmap

import pytest
from hypothesis import given, settings, strategies as st

from conftest import grid_variation, poly, rand_problem
from hahnvar import (
    ArityError,
    GridFunction,
    HahnParams,
    InsufficientDepth,
    Lagrangian,
    Lattice,
    LatticePoint,
    NotAVariation,
    OMEGA0_POINT,
    Origin,
    Problem,
    compile_lagrangian,
    el_report,
    el_residual,
    first_variation,
    first_variation_fd,
    functional_value,
    grid_derivative_at_fixed,
    h_el_residual,
    hahn_derivative_n,
    is_admissible,
    is_variation,
    materialize,
    norm_r_inf,
    q_el_residual,
    sigma_pow,
    trajectory,
)
from hahnvar import dsl, variational
from hahnvar.core import Orbit
from hahnvar.demos import double_well_problem, random_admissible_grid, ystar
from hahnvar.operators import iterates_at_fixed
from hahnvar.variational import slot_stream, traj_components

P = HahnParams(0.5, 0.5)
FREE = Problem(P, 1, -1.0, 2.0, (0.0,), (0.0,), "u1^2/2")


def test_problem_validation():
    with pytest.raises(ArityError):
        Problem(P, 0, -1.0, 2.0, (), (), "u0")
    with pytest.raises(ValueError):
        Problem(P, 1, 2.0, -1.0, (0.0,), (0.0,), "u1")
    with pytest.raises(ValueError):
        Problem(P, 1, -1.0, 2.0, (0.0, 0.0), (0.0,), "u1")
    with pytest.raises(ValueError, match="3 slots but the order is 1"):
        Problem(P, 1, -1.0, 2.0, (0.0,), (0.0,), compile_lagrangian("u2^2", 2))
    with pytest.raises(ValueError, match="boundary values must be finite"):
        Problem(P, 1, -1.0, 2.0, (math.nan,), (0.0,), "u1")


@pytest.mark.parametrize("order", [1.0, 1.5, True, "1", None])
def test_an_order_that_is_not_an_int_is_refused_where_it_is_given(order):
    # Before the check, 1.0 and True got through and each later use raised
    # a bare TypeError, or (True) ran as order 1.
    with pytest.raises(ArityError, match="must be an integer"):
        compile_lagrangian("u1^2", order)
    with pytest.raises(ValueError, match="must be an integer"):
        Problem(HahnParams(0.5, 0.5), order, 0.0, 2.0, (0.0,), (1.0,), "u1^2")
    with pytest.raises(ValueError, match="must be an integer"):
        hahn_derivative_n(HahnParams(0.5, 0.5), "t^2", order, 2.0)
    grid = GridFunction.sample(Lattice(HahnParams(0.5, 0.5), -1.0, 2.0, 12), lambda t: t * t)
    for operator in (grid_derivative_at_fixed, norm_r_inf):
        with pytest.raises(ValueError, match="must be an integer"):
            operator(grid, order)


class _Order(enum.IntEnum):
    ONE = 1


def test_an_int_subclass_is_an_order_where_it_is_given():
    # An IntEnum member is an int: each entry point takes it as its value.
    params, y = HahnParams(0.5, 0.5), lambda t: t * t
    assert hahn_derivative_n(params, "t^2", _Order.ONE, 2.0) == hahn_derivative_n(params, "t^2", 1, 2.0)
    assert compile_lagrangian("u1^2", _Order.ONE).value(0.0, (1.0, 3.0)) == 9.0
    got, want = (Problem(params, r, 0.0, 2.0, (0.0,), (1.0,), "u1^2") for r in (_Order.ONE, 1))
    assert functional_value(got, y).value == functional_value(want, y).value
    grid = GridFunction.sample(Lattice(params, -1.0, 2.0, 12), y)
    for operator in (grid_derivative_at_fixed, norm_r_inf):
        assert operator(grid, _Order.ONE) == operator(grid, 1)


def test_trajectory_identity_candidate():
    # slots of y = t at order 1: (t, sigma(t), 1)
    assert trajectory(FREE, lambda t: t, LatticePoint(Origin.A, 0)) == (-1.0, 0.0, 1.0)
    assert trajectory(FREE, lambda t: t, OMEGA0_POINT) == (1.0, 1.0, 1.0)


def test_trajectory_constant_candidate_order_two():
    prob = Problem(P, 2, -1.0, 2.0, (0.0, 0.0), (0.0, 0.0), "u2^2")
    t, v0, v1, v2 = trajectory(prob, lambda t: 3.0, LatticePoint(Origin.B, 1))
    assert (t, v0) == (1.5, 3.0)
    assert v1 == 0.0 and v2 == 0.0


def test_trajectory_slots_match_composed_derivatives():
    # slot i equals D^i of (y composed with sigma^(r-i)), evaluated at the point
    rng = random.Random(3)
    for r in (1, 2, 3):
        prob = rand_problem(rng, r)
        params = prob.params
        y = poly([rng.uniform(-0.5, 0.5) for _ in range(4)])
        lat = prob.lattice(32)
        for origin in (Origin.A, Origin.B):
            pt = LatticePoint(origin, 2)
            got = trajectory(prob, y, pt)
            t = lat.realize(pt)
            assert got[0] == pytest.approx(t, abs=1e-12)
            for i in range(r + 1):
                shifted = lambda s, k=r - i: y(sigma_pow(params, k, s))
                want = hahn_derivative_n(params, shifted, i, t)
                assert got[1 + i] == pytest.approx(want, rel=1e-7, abs=1e-7)


def test_materialize_and_depth_guard():
    grid = materialize(FREE, lambda t: t * t, depth=12)
    lat = grid.lattice
    assert grid.value(LatticePoint(Origin.B, 1)) == lat.realize(LatticePoint(Origin.B, 1)) ** 2
    with pytest.raises(InsufficientDepth):
        materialize(FREE, grid, depth=20)
    assert materialize(FREE, grid, depth=10) is grid
    elsewhere = GridFunction.sample(Lattice(P, -1.0, 3.0, 12), lambda t: t * t)
    with pytest.raises(ValueError, match="different lattice"):
        materialize(FREE, elsewhere, depth=12)


def test_functional_constant_integrand_gives_length():
    prob = Problem(P, 1, -1.0, 2.0, (0.0,), (0.0,), "1 + 0*u1")
    got = functional_value(prob, lambda t: 0.0, tol=1e-14)
    assert got.converged
    assert got.value == pytest.approx(3.0, abs=1e-12)


def test_functional_scales_exactly_by_two():
    # doubling the integrand doubles every sample; powers of two are exact
    # in float, so at a fixed truncation depth the whole sum doubles too
    base = Problem(P, 1, -1.0, 2.0, (0.0,), (0.0,), "u1^2 + u0^2")
    double = Problem(P, 1, -1.0, 2.0, (0.0,), (0.0,), "2*(u1^2 + u0^2)")
    y = poly([0.2, -0.3, 0.1])
    lo = functional_value(base, y, tol=1e-30, max_terms=40)
    hi = functional_value(double, y, tol=1e-30, max_terms=40)
    assert hi.value == 2.0 * lo.value


def test_functional_halts_at_grid_depth_as_data():
    # a shallow grid cannot feed the series to tol, so the flag drops
    grid = materialize(FREE, lambda t: t * t, depth=18)
    got = functional_value(FREE, grid, tol=1e-12)
    assert not got.converged
    deeper = functional_value(FREE, lambda t: t * t, tol=1e-12)
    assert deeper.converged
    assert got.value == pytest.approx(deeper.value, rel=1e-4)


def test_admissibility_reports_offenders():
    pp = double_well_problem()
    ok, bad = is_admissible(pp, ystar)
    assert ok and bad == []
    ok, bad = is_admissible(pp, lambda t: 0.0)
    assert not ok
    assert [(v.endpoint, v.index) for v in bad] == [("b", 0)]
    assert bad[0].actual == 0.0 and bad[0].target == -1.0 and bad[0].error == 1.0


def test_degenerate_endpoint_checks_read_a_shallow_grid_at_its_own_depth():
    # b = omega0 = 1, so D y(b) is extrapolated along orbit a from the
    # depth-10 grid itself rather than from a resample at the default 64.
    prob = Problem(P, 2, -1.0, 1.0, (0.0, -0.15), (0.0, 0.3), "u2^2 + 0.1*u0^2")
    grid = materialize(prob, "0.15*(t^2 - 1)", depth=10)
    assert is_admissible(prob, grid) == (True, [])
    assert el_report(prob, grid).boundary_violations == []


def test_variation_check_and_closure():
    rng = random.Random(9)
    prob = rand_problem(rng, 2)
    eta = grid_variation(prob, rng, depth=48)
    ok, bad = is_variation(prob, eta)
    assert ok and bad == []
    assert not is_variation(prob, lambda t: 1.0 + 0.0 * t)[0]
    # admissible plus scaled variation stays admissible: eta's leading
    # orbit values are exact zeros, so the boundary windows are untouched
    y = random_admissible_grid(prob, rng, depth=48)
    assert is_admissible(prob, y)[0]
    assert is_admissible(prob, y.axpy(0.7, eta))[0]


def test_first_variation_rejects_non_variation():
    with pytest.raises(NotAVariation):
        first_variation(FREE, lambda t: t, lambda t: 1.0)


def test_first_variation_fd_rejects_a_nonpositive_eps():
    for eps in (0.0, -1e-5):
        with pytest.raises(ValueError, match="eps must be positive"):
            first_variation_fd(FREE, lambda t: t, lambda t: 0.0, eps=eps)


def test_a_value_that_is_not_a_candidate_raises_type_error():
    with pytest.raises(TypeError, match="not a usable candidate"):
        functional_value(FREE, 3.0)


def test_first_variation_matches_central_difference():
    # both sides truncated at the same index so remainders cancel
    rng = random.Random(2024)
    caps = {1: 25, 2: 10, 3: 5}
    for k in range(9):
        r = [1, 2, 3][k % 3]
        prob = rand_problem(rng, r)
        y = poly([rng.uniform(-0.5, 0.5) for _ in range(4)])
        eta = grid_variation(prob, rng)
        n = caps[r]
        fv = first_variation(prob, y, eta, tol=1e-12, max_terms=n)
        fd = first_variation_fd(prob, y, eta, eps=1e-5, tol=1e-12, max_terms=n)
        assert fv.value == pytest.approx(fd, rel=1e-6, abs=1e-6)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_first_variation_fd_is_two_functional_values_bit_for_bit(r):
    rng = random.Random(40 + r)
    prob = rand_problem(rng, r)
    y = poly([rng.uniform(-0.5, 0.5) for _ in range(4)])

    def eta(t):
        return 0.2 * math.sin(1.3 * t)

    eps = 1e-4
    up, down = (
        functional_value(prob, lambda t: y(t) + coeff * eta(t), tol=1e-12, max_terms=60).value
        for coeff in (eps, -eps)
    )
    fd = first_variation_fd(prob, y, eta, eps=eps, tol=1e-12, max_terms=60)
    assert fd.hex() == ((up - down) / (2.0 * eps)).hex()


def test_first_variation_is_linear_in_eta():
    rng = random.Random(5)
    prob = rand_problem(rng, 1)
    y = poly([0.3, -0.2, 0.1])
    eta = grid_variation(prob, rng)
    one = first_variation(prob, y, eta, max_terms=25, tol=1e-12).value
    two = first_variation(prob, y, eta.axpy(1.0, eta), max_terms=25, tol=1e-12).value
    assert two == pytest.approx(2.0 * one, rel=1e-9, abs=1e-12)


def test_el_residual_free_motion_is_zero():
    # L = u1^2/2 reads D[D y]; linear y makes it vanish identically
    for n in range(4):
        for origin in (Origin.A, Origin.B):
            assert el_residual(FREE, lambda t: t, LatticePoint(origin, n)) == 0.0


def test_el_residual_sign_reads_derivative_minus_slot():
    # convention: residual = D[dL/du1] - dL/du0, so L = u0 gives -1
    prob = Problem(P, 1, -1.0, 2.0, (3.0,), (3.0,), "u0")
    assert el_residual(prob, lambda t: 3.0, LatticePoint(Origin.A, 0)) == -1.0


def test_el_report_flags_boundary_and_residuals():
    pp = double_well_problem()
    rep = el_report(pp, ystar, depth=40, tol=1e-9)
    assert rep.passed
    assert rep.boundary_violations == []
    assert rep.max_abs_residual <= 1e-9
    assert rep.depth_used > 0
    assert all(abs(v) <= 1e-9 for v in rep.residuals.values())

    bad = el_report(pp, lambda t: 0.0, depth=40, tol=1e-9)
    assert not bad.passed
    assert bad.boundary_violations == is_admissible(pp, lambda t: 0.0, depth=40)[1] != []


def test_el_report_depth_validation():
    with pytest.raises(InsufficientDepth):
        el_report(FREE, lambda t: t, depth=2)
    # an r = 1 omega0 estimate reads 4 points; depth 2 leaves each orbit 3
    with pytest.raises(InsufficientDepth, match="no orbit offers 4 usable points"):
        el_residual(FREE, lambda t: t, OMEGA0_POINT, depth=2)


def test_el_report_omega0_is_advisory():
    pp = double_well_problem()
    rep = el_report(pp, ystar, depth=40, tol=1e-9, include_omega0=True)
    assert rep.omega0_included
    assert rep.omega0_residual is not None
    assert OMEGA0_POINT in rep.residuals
    assert abs(rep.omega0_residual) <= 100.0 * rep.tol


def test_pure_dilation_residual():
    # D_q[D_q t^2] = 1 + q on the dilation lattice, L = u1^2/2
    prob = Problem(HahnParams(0.5, 1e-8), 1, 1.0, 3.0, (0.0,), (0.0,), "u1^2/2")
    got = q_el_residual(prob, lambda t: t * t, LatticePoint(Origin.A, 1))
    assert got == pytest.approx(1.5, abs=1e-12)
    with pytest.raises(ValueError):
        q_el_residual(prob, lambda t: t, OMEGA0_POINT)
    with pytest.raises(TypeError):
        q_el_residual(prob, materialize(prob, lambda t: t, 8), LatticePoint(Origin.A, 0))


def test_pure_shift_residual():
    # forward differences of t^2/2 with step h: second difference is exactly 1
    prob = Problem(HahnParams(1.0 - 1e-6, 0.25), 1, 1.0, 3.0, (0.0,), (0.0,), "u1^2/2 + u0")
    assert h_el_residual(prob, lambda t: 0.5 * t * t, LatticePoint(Origin.B, 0)) == 0.0


_SMOOTH = {
    "cubic": lambda t: 0.3 - 1.1 * t + 0.4 * t * t + 0.05 * t**3,
    "sin": lambda t: math.sin(1.7 * t + 0.2),
    "exp": lambda t: math.exp(-0.4 * t),
    "rational": lambda t: 1.0 / (2.0 + t * t),
}


@settings(deadline=None, max_examples=200)
@given(
    st.floats(0.3, 0.999),
    st.floats(0.01, 2.0),
    st.floats(-6.0, 6.0),
    st.integers(1, 6),
    st.sampled_from(sorted(_SMOOTH)),
    st.integers(0, 60),
)
def test_slot_stream_is_traj_components_window_by_window(q, omega, seed, r, name, depth):
    orbit = Orbit(q, omega, seed, _SMOOTH[name])
    points = [point for _, point in zip(range(depth + 1), orbit.walk())]
    windows = list(slot_stream(r)(points))
    assert len(windows) == max(0, len(points) - r)
    for k, (t, slots) in enumerate(windows):
        taus, vals = zip(*points[k : k + r + 1])
        assert t == taus[0]
        assert [v.hex() for v in slots] == [v.hex() for v in traj_components(taus, vals)]


# Lagrangians by order, the later ones with a domain that a series can leave.
_SERIES_LAGRANGIANS = (
    lambda r: f"0.3*t + -0.4*u0^2 + 0.7*u{r}^2 + 0.1*u0*u{r}",
    lambda r: f"ln(u0 + 1.5)*u{r}^2",
    lambda r: f"1/u{r} + u0",
    lambda r: f"exp(3*u{r}) - u0",
)


def _series_outcome(run):
    """The result's bits, or the error's class and text."""
    try:
        res = run()
    except Exception as exc:
        return type(exc), str(exc)
    return res.value.hex(), res.terms_used, res.tail_bound.hex(), res.converged


def _pulled(points, seen):
    for point in points:
        seen.append(point)
        yield point


@settings(deadline=None, max_examples=150)
@given(
    st.integers(1, 4),
    st.one_of(st.floats(0.05, 0.9), st.floats(0.9, 0.995)),
    st.floats(0.3, 1.5),
    st.floats(0.1, 3.0),
    st.floats(0.1, 3.0),
    st.sampled_from(range(len(_SERIES_LAGRANGIANS))),
    st.sampled_from(("callable", "text", "grid", "merging grid")),
    st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
    st.sampled_from([1e-300, 1e-12, 1e-8, 1e-4]),
    st.sampled_from([1, 5, 60, 3000]),
)
def test_the_sample_stream_is_value_over_slot_windows_bit_for_bit(
    r, q, omega0, below, above, lagrangian, kind, cs, tol, max_terms
):
    params = HahnParams(q, omega0 * (1.0 - q))
    w0 = params.omega0
    zeros = (0.0,) * r
    lagr = _SERIES_LAGRANGIANS[lagrangian](r)
    problem = Problem(params, r, w0 - below, w0 + above, zeros, zeros, lagr)
    text = f"{cs[0]!r} + {cs[1]!r}*t + {cs[2]!r}*t^2 + {cs[3]!r}*sin(t)"
    calls = []
    if kind.endswith("grid"):
        # Below q = 0.8 the orbits merge within 200 steps, below the grid depth.
        y = materialize(problem, poly(cs), 200 if kind == "merging grid" else 40)
    else:
        f = variational._resolve(text if kind == "text" else poly(cs[:3]))

        def y(t):
            calls.append(t)
            return f(t)

    def reference(problem, prefactor, points, tol, max_terms):
        samples = starmap(problem.lagrangian.value, slot_stream(problem.r)(points))
        return variational._indexed_series(problem.params.q, prefactor, samples, tol, max_terms)

    # Each side alone: the same outcome from the same points and candidate calls.
    for origin in (Origin.B, Origin.A):
        outcomes = []
        for series in (variational._one_sided_functional, reference):
            calls.clear()
            seen = []
            orbit = variational._orbits(problem, y)[origin]
            points = _pulled(orbit.walk(), seen)
            outcome = _series_outcome(
                lambda: series(problem, orbit.prefactor, points, tol, max_terms)
            )
            outcomes.append((outcome, len(seen), len(calls)))
        assert outcomes[0] == outcomes[1]

    def both_sides():
        at_b, at_a = (
            reference(problem, orbit.prefactor, orbit.walk(), tol, max_terms)
            for orbit in (variational._orbits(problem, y)[o] for o in (Origin.B, Origin.A))
        )
        return at_b - at_a

    got = _series_outcome(lambda: functional_value(problem, y, tol, max_terms))
    assert got == _series_outcome(both_sides)


def _counted(calls):
    def y(t):
        calls.append(t)
        return 0.2 - 0.3 * t + 0.1 * t * t

    return y


@pytest.mark.parametrize(
    "r, value_calls, variation_calls", [(1, 118, 12), (2, 148, 14), (3, 148, 16)]
)
def test_a_series_evaluates_the_candidate_through_its_stopping_term_only(
    r, value_calls, variation_calls
):
    problem = rand_problem(random.Random(5), r)
    calls = []
    functional_value(problem, _counted(calls))
    assert len(calls) == value_calls
    calls.clear()
    zero = GridFunction.sample(problem.lattice(40), lambda t: 0.0)
    first_variation(problem, _counted(calls), zero)
    assert len(calls) == variation_calls


@pytest.mark.parametrize("r", [1, 2, 3])
def test_first_variation_fd_evaluates_each_orbit_node_once(r):
    # two shifted series walk each orbit; the second reads the cached values
    problem = rand_problem(random.Random(5), r)
    calls, eta_calls = [], []

    def eta(t):
        eta_calls.append(t)
        return 0.2 * math.sin(1.3 * t)

    first_variation_fd(problem, _counted(calls), eta)
    for seen in (calls, eta_calls):
        assert seen and max(Counter(seen).values()) == 1


def test_the_omega0_residual_evaluates_the_candidate_on_its_window_only():
    problem = rand_problem(random.Random(5), 2)
    calls = []
    el_residual(problem, _counted(calls), OMEGA0_POINT, 40)
    assert len(calls) == 6
    calls.clear()
    # The report's omega0 entry and boundary check read the values its
    # residual runs realized on the same two orbits: no call beyond theirs.
    el_report(problem, _counted(calls), depth=40, include_omega0=True)
    assert len(calls) == 82


def test_the_omega0_entry_of_a_grid_reads_the_report_depth():
    problem = rand_problem(random.Random(5), 2)
    grid = materialize(problem, "0.2 - 0.3*t + 0.1*t^2", 40)
    report = el_report(problem, grid, depth=20, include_omega0=True)
    r_prev, r_top = [v for point, v in report.residuals.items() if point.origin is Origin.A][-2:]
    q = problem.params.q
    assert report.omega0_residual.hex() == ((r_top - q * r_prev) / (1 - q)).hex()
    assert el_residual(problem, grid, OMEGA0_POINT, 20) == report.omega0_residual


def test_every_omega0_estimate_evaluates_the_candidate_on_its_window_only():
    # omega0 = 1, so on [-1, 1] the endpoint b is omega0.  The slots at
    # omega0 read the value there and one window of r + 2 points of orbit a,
    # D^i y(b), i < r, one of r + 1 points, the omega0 residual 2r + 2; no
    # estimate samples a whole lattice.  Within
    # el_report both read the points its run over orbit a realized, so the
    # report costs that run and the one value at omega0, with or without
    # the omega0 entry.
    free = Problem(P, 2, -1.0, 2.0, (0.0, 0.0), (0.0, 0.0), "u2^2 + u0^2")
    at_b = Problem(P, 2, -1.0, 1.0, (0.0, 0.0), (0.0, 0.0), "u2^2 + u0^2")
    counts = []
    for call in (
        lambda y: trajectory(free, y, OMEGA0_POINT),
        lambda y: is_admissible(at_b, y),
        lambda y: el_report(at_b, y, depth=40),
        lambda y: el_report(at_b, y, depth=40, include_omega0=True),
    ):
        calls = []
        call(_counted(calls))
        counts.append(len(calls))
    assert counts == [5, 6, 42, 42]


@pytest.mark.parametrize("r", [1, 2, 3, 4, 6])
def test_each_estimate_at_omega0_reads_one_window(r):
    # trajectory at omega0 evaluates y there and on one window of r + 2
    # points.  is_admissible with b = omega0 reads the r values at orbit
    # a's seed and, for b, the value at omega0 and (r >= 2) one window of
    # r + 1 points for D^1..D^(r-1).
    source = f"u{r}^2 + u0^2"
    free = Problem(P, r, -1.0, 2.0, (0.0,) * r, (0.0,) * r, source)
    at_b = Problem(P, r, -1.0, 1.0, (0.0,) * r, (0.0,) * r, source)
    calls = []
    trajectory(free, _counted(calls), OMEGA0_POINT, depth=40)
    assert len(calls) == r + 3
    calls.clear()
    is_admissible(at_b, _counted(calls), depth=40)
    assert len(calls) == r + 1 + (r + 1) * (r >= 2)


def test_a_live_orbit_too_short_for_the_window_leaves_every_order_to_the_next():
    # a is 4 ulps below omega0 = 1: orbit a is live with 4 usable points, too
    # few for the r + 2 = 5 point window, so every slot at omega0 reads orbit
    # b.  Slot 1 was 0.5 when orders 1 and 2 read orbit a; the exact value
    # of q^2 * D y(omega0) is 0.25 * 1.3 = 0.325.
    a = P.omega0 - 4.4e-16
    prob = Problem(P, 3, a, 3.0, (0.0,) * 3, (0.0,) * 3, "u3^2")
    assert not Orbit(P.q, P.omega, a).degenerate and Orbit(P.q, P.omega, a).cap(40) == 3

    def y(t):
        return 0.1 * t**3 + t

    got = trajectory(prob, y, OMEGA0_POINT, depth=40)
    assert got[:3] == (1.0, 1.1, 0.3250274658203125)
    taus, vals = Orbit(P.q, P.omega, 3.0, y).window(40 - 4, 5)
    deep = iterates_at_fixed(P.q, taus, vals, 3)
    assert got[2:] == tuple(P.q ** (i * (3 - i)) * d for i, d in enumerate(deep, 1))


def test_trajectory_at_omega0_reads_a_shallow_grid_at_its_own_depth():
    prob = Problem(P, 2, -1.0, 1.0, (0.0, -0.15), (0.0, 0.3), "u2^2 + 0.1*u0^2")
    grid = materialize(prob, "0.15*(t^2 - 1)", depth=10)
    want = trajectory(prob, grid, OMEGA0_POINT, depth=10)
    assert want[1:] == tuple(P.q ** (i * (2 - i)) * grid_derivative_at_fixed(grid, i) for i in range(3))
    # Orbit b is degenerate, so its points are omega0 too.
    for point in (OMEGA0_POINT, LatticePoint(Origin.B, 3)):
        assert trajectory(prob, grid, point) == want


def test_every_omega0_estimate_skips_a_live_orbit_too_short():
    # a rounds to omega0 but its prefactor is 1.1e-16, so orbit a is live
    # with cap 1; the estimates read orbit b.  For y = (t - omega0)^2 the
    # residual D[2 v_1] - 2 v_0 at omega0 is 2(1 + q) = 3.426.
    p = HahnParams(0.713, 0.881)
    prob = Problem(p, 1, p.omega0, p.omega0 + 1.0, (0.0,), (1.0,), "u1^2 + u0^2")
    short = Orbit(p.q, p.omega, prob.a)
    assert prob.a == p.omega0 and not short.degenerate and short.cap(20) == 1

    def y(t):
        return (t - p.omega0) ** 2

    got = el_residual(prob, y, OMEGA0_POINT, 20)
    assert got == 3.426007334033802 == pytest.approx(2.0 * (1.0 + p.q), rel=3e-6)
    assert el_report(prob, y, depth=20, include_omega0=True).omega0_residual == got
    assert trajectory(prob, y, OMEGA0_POINT, 20)[1:] == (0.0, -1.1469121239254324e-15)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(4, 64))
def test_trajectory_at_omega0_is_the_sampled_grid_estimate_bit_for_bit(seed, r, depth):
    rng = random.Random(seed)
    problem = rand_problem(rng, r)
    q = problem.params.q
    for form, y in _three_forms(rng, problem, depth).items():
        if form == "grid":
            continue
        want = [q ** (i * (r - i)) * grid_derivative_at_fixed(materialize(problem, y, depth), i)
                for i in range(r + 1)]
        assert list(trajectory(problem, y, OMEGA0_POINT, depth)[1:]) == want, form


def _three_forms(rng, problem, depth):
    """One cubic candidate as a callable, as its source text and as its grid."""
    coeffs = [rng.uniform(-0.5, 0.5) for _ in range(4)]
    source = " + ".join(f"({c!r})*t^{i}" for i, c in enumerate(coeffs))
    return {"callable": poly(coeffs), "source": source, "grid": materialize(problem, source, depth)}


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_el_residual_is_the_el_report_entry_bit_for_bit(seed, r):
    rng = random.Random(seed)
    problem = rand_problem(rng, r)
    for form, y in _three_forms(rng, problem, 24).items():
        report = el_report(problem, y, depth=24)
        assert report.residuals
        for point, value in report.residuals.items():
            assert el_residual(problem, y, point, 24).hex() == value.hex(), (form, point)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_omega0_residual_extrapolates_the_last_two_orbit_residuals(seed, r):
    rng = random.Random(seed)
    problem = rand_problem(rng, r)
    y = _three_forms(rng, problem, 24)["callable"]
    residuals = el_report(problem, y, depth=24).residuals
    first_live = [v for point, v in residuals.items() if point.origin is Origin.A]
    r_prev, r_top = first_live[-2:]
    q = problem.params.q
    want = (r_top - q * r_prev) / (1 - q)
    assert el_residual(problem, y, OMEGA0_POINT, 24).hex() == want.hex()


def _violations(bad):
    return [(v.endpoint, v.index, v.actual.hex(), v.target.hex(), v.error.hex()) for v in bad]


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.sampled_from(["none", "a", "b"]),
       st.sampled_from([1e-9, 0.5]), st.integers(12, 40))
def test_el_report_agrees_with_the_one_point_checks_bit_for_bit(seed, r, at_omega0, tol, depth):
    # Dyadic (q, omega) put omega0 on an endpoint exactly, so its orbit is
    # degenerate; random cubics miss most boundary conditions.
    rng = random.Random(seed)
    problem = rand_problem(rng, r)
    if at_omega0 != "none":
        params = HahnParams(rng.choice([0.25, 0.5, 0.75]), rng.choice([0.25, 0.5, 1.0]))
        w0 = params.omega0
        a, b = (w0, w0 + 2.0) if at_omega0 == "a" else (w0 - 2.0, w0)
        problem = Problem(params, r, a, b, problem.alpha, problem.beta, problem.lagrangian)
        assert problem.lattice().orbit_degenerate(Origin.A if at_omega0 == "a" else Origin.B)
    for form, y in _three_forms(rng, problem, depth).items():
        report = el_report(problem, y, depth=depth, tol=tol, include_omega0=True)
        _, bad = is_admissible(problem, y, tol=tol, depth=depth)
        assert _violations(report.boundary_violations) == _violations(bad), form
        want = el_residual(problem, y, OMEGA0_POINT, depth)
        assert report.residuals[OMEGA0_POINT].hex() == want.hex(), form
        assert report.omega0_residual.hex() == want.hex(), form


def _public_calls(problem, y, eta):
    """Every public function of ``variational`` that takes candidates, with
    the number of candidates it takes."""
    return {
        "el_report": (1, lambda: el_report(problem, y, depth=16)),
        "el_report omega0": (1, lambda: el_report(problem, y, depth=16, include_omega0=True)),
        "is_admissible": (1, lambda: is_admissible(problem, y, depth=16)),
        "is_variation": (1, lambda: is_variation(problem, y, depth=16)),
        "first_variation": (2, lambda: first_variation(problem, y, eta, max_terms=60)),
        "first_variation_fd": (2, lambda: first_variation_fd(problem, y, eta, max_terms=60)),
        "functional_value": (1, lambda: functional_value(problem, y, max_terms=60)),
        "trajectory": (1, lambda: trajectory(problem, y, LatticePoint(Origin.A, 2), 16)),
        "trajectory omega0": (1, lambda: trajectory(problem, y, OMEGA0_POINT, 16)),
        "el_residual": (1, lambda: el_residual(problem, y, LatticePoint(Origin.B, 1), 16)),
        "el_residual omega0": (1, lambda: el_residual(problem, y, OMEGA0_POINT, 16)),
    }


@pytest.mark.parametrize("b", [2.0, 1.0])  # 1.0 is omega0: orbit b is degenerate
@pytest.mark.parametrize("form", ["callable", "source", "grid"])
def test_each_public_function_builds_one_orbit_per_endpoint_per_candidate(monkeypatch, b, form):
    problem = Problem(P, 2, -1.0, b, (0.0, 0.0), (0.0, 0.0), "u2^2 + u0^2")
    y = {"callable": poly([0.2, -0.3, 0.1]), "source": "0.2 - 0.3*t + 0.1*t^2",
         "grid": materialize(problem, "0.2 - 0.3*t + 0.1*t^2", 16)}[form]
    eta = GridFunction.sample(problem.lattice(16), lambda t: 0.0)
    built = []
    init = Orbit.__init__

    def counting(self, *args, **kwargs):
        built.append(args[2])
        init(self, *args, **kwargs)

    monkeypatch.setattr(Orbit, "__init__", counting)
    for name, (candidates, call) in _public_calls(problem, y, eta).items():
        built.clear()
        call()
        assert sorted(built) == sorted([problem.a, problem.b] * candidates), name


def test_a_deep_window_evaluates_the_candidate_on_the_window_only():
    problem = rand_problem(random.Random(4), 2)
    point = LatticePoint(Origin.A, 20)
    calls = []

    def y(t):
        calls.append(t)
        return 0.2 - 0.3 * t + 0.1 * t * t

    counts = []
    for call in (q_el_residual, h_el_residual, el_residual, trajectory):
        calls.clear()
        call(problem, y, point)
        counts.append(len(calls))
    assert counts == [5, 5, 5, 3]


def _count_candidate_parses(monkeypatch, source):
    parses = []
    original = variational.parse

    def counting(text):
        parses.append(text)
        return original(text)

    monkeypatch.setattr(variational, "parse", counting)
    return lambda: parses.count(source)


@pytest.mark.parametrize("call", ["el_report", "functional_value", "first_variation"])
def test_a_source_candidate_is_parsed_once_per_call(monkeypatch, call):
    rng = random.Random(17)
    problem = rand_problem(rng, 2)
    source = "0.2 - 0.3*t + 0.1*t^2 - 0.02*t^3"
    eta = grid_variation(problem, rng)
    count = _count_candidate_parses(monkeypatch, source)
    {
        "el_report": lambda: el_report(problem, source, depth=20, include_omega0=True),
        "functional_value": lambda: functional_value(problem, source),
        "first_variation": lambda: first_variation(problem, source, eta),
    }[call]()
    assert count() == 1


def test_a_used_problem_pickles():
    problem = double_well_problem()
    want = el_report(problem, ystar, depth=10)
    clone = pickle.loads(pickle.dumps(problem))
    assert clone == problem
    got = el_report(clone, ystar, depth=10)
    assert got.residuals == want.residuals and got.passed == want.passed
    assert functional_value(clone, ystar).value == functional_value(problem, ystar).value


# ---------------------------------------------------------------------------
# Problems built again from the same strings share one Lagrangian
# ---------------------------------------------------------------------------

_SHARED_TEXT = "0.3*t + 0.2*u0^2 - 0.4*u1^2 + 0.1*u2^2 + 0.05*u0*u2 - 0.1*u1"


def _shared_problem(lagrangian):
    return Problem(HahnParams(0.6, 0.4), 2, -1.5, 2.5, (0.1, -0.2), (0.3, 0.1), lagrangian)


def test_problems_built_from_equal_strings_share_one_lagrangian():
    first, second = _shared_problem(_SHARED_TEXT), _shared_problem(_SHARED_TEXT)
    assert first.lagrangian is second.lagrangian


def test_a_shared_lagrangian_gives_the_cold_results_bit_for_bit():
    y = "0.1 - 0.2*t + 0.05*t^2"
    eta = grid_variation(_shared_problem(_SHARED_TEXT), random.Random(5))

    def results(problem):
        # repr of a float round-trips its bits, so equal reprs are equal bits.
        return repr((
            functional_value(problem, y),
            first_variation(problem, y, eta),
            el_report(problem, y, depth=20, include_omega0=True),
        ))

    shared = [results(_shared_problem(_SHARED_TEXT)) for _ in range(2)]
    for cached in (dsl._parsed, dsl._text_lagrangian, dsl._template):
        cached.cache_clear()
    cold = results(_shared_problem(Lagrangian(dsl.parse(_SHARED_TEXT), 2)))
    assert shared == [cold, cold]
