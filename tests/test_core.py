"""Lattice geometry: parameters, points, grids."""

import math

import pytest
from hypothesis import example, given, strategies as st

from hahnvar import (
    DegenerateDenominator,
    GridFunction,
    HahnParams,
    InsufficientDepth,
    Lattice,
    LatticePoint,
    NonFiniteValue,
    OMEGA0_POINT,
    Origin,
    integral_from_fixed,
    q_bracket,
    sigma_pow,
)


def test_q_bracket_values():
    assert q_bracket(0, 0.5) == 0.0
    assert q_bracket(1, 0.5) == 1.0
    assert q_bracket(3, 0.5) == 1.75  # 1 + 1/2 + 1/4


@pytest.mark.parametrize("q", [0.0, 1.0, 1.2, -0.3, math.nan, math.inf])
def test_params_reject_bad_q(q):
    with pytest.raises(ValueError):
        HahnParams(q, 0.5)


@pytest.mark.parametrize("omega", [0.0, -1.0, math.nan, math.inf])
def test_params_reject_bad_omega(omega):
    with pytest.raises(ValueError):
        HahnParams(0.5, omega)


def test_params_reject_a_q_that_is_not_a_number():
    with pytest.raises(TypeError):
        HahnParams("0.5", 0.5)


def test_fixed_point_and_step():
    p = HahnParams(0.5, 0.5)
    assert p.omega0 == 1.0
    assert p.sigma(2.0) == 1.5
    assert p.denominator(2.0) == -0.5
    # omega0 does not move
    assert p.sigma(p.omega0) == p.omega0


@given(
    q=st.floats(0.05, 0.95),
    omega=st.floats(0.1, 2.0),
    t=st.floats(-5.0, 5.0),
    k=st.integers(0, 25),
)
def test_sigma_pow_matches_iteration(q, omega, t, k):
    p = HahnParams(q, omega)
    it = t
    for _ in range(k):
        it = p.sigma(it)
    assert sigma_pow(p, k, t) == pytest.approx(it, abs=1e-10)


@given(
    q=st.floats(0.3, 0.9),
    omega=st.floats(0.1, 2.0),
    t=st.floats(-5.0, 5.0),
    k=st.integers(0, 8),
)
def test_sigma_pow_negative_inverts(q, omega, t, k):
    # the inverse divides by q^k, so roundoff grows like eps/q^k
    p = HahnParams(q, omega)
    fwd = sigma_pow(p, k, t)
    assert sigma_pow(p, -k, fwd) == pytest.approx(t, rel=1e-9, abs=1e-9)


def test_lattice_point_validation():
    with pytest.raises(ValueError):
        LatticePoint(Origin.A, -1)
    with pytest.raises(ValueError):
        LatticePoint(Origin.FIXED, 2)
    assert LatticePoint(Origin.A, 3).advanced(2) == LatticePoint(Origin.A, 5)
    assert OMEGA0_POINT.advanced() == OMEGA0_POINT


def test_lattice_validation():
    p = HahnParams(0.5, 0.5)
    with pytest.raises(ValueError):
        Lattice(p, 2.0, -1.0)
    with pytest.raises(ValueError):
        Lattice(p, -1.0, 2.0, depth=0)
    with pytest.raises(ValueError):
        Lattice(p, math.inf, 2.0)


def test_lattice_realize():
    p = HahnParams(0.5, 0.5)
    lat = Lattice(p, -1.0, 2.0, depth=8)
    assert lat.realize(LatticePoint(Origin.A, 0)) == -1.0
    assert lat.realize(LatticePoint(Origin.B, 0)) == 2.0
    assert lat.realize(LatticePoint(Origin.B, 1)) == 1.5
    assert lat.realize(OMEGA0_POINT) == 1.0
    assert lat.seed(Origin.FIXED) == 1.0
    with pytest.raises(InsufficientDepth):
        lat.realize(LatticePoint(Origin.A, 9))


def test_lattice_interval_is_hull():
    # omega0 = 1 lies right of both endpoints here, so it stretches the hull
    p = HahnParams(0.5, 0.5)
    lat = Lattice(p, -3.0, -1.0, depth=4)
    assert lat.interval() == (-3.0, 1.0)


def test_lattice_points_and_size():
    p = HahnParams(0.5, 0.5)
    lat = Lattice(p, -1.0, 2.0, depth=3)
    pts = list(lat.points())
    assert len(pts) == lat.size() == 9
    assert pts[-1] == OMEGA0_POINT


def test_orbit_degenerate_exact():
    p = HahnParams(0.5, 0.5)
    lat = Lattice(p, 1.0, 2.0, depth=4)  # a is exactly omega0
    assert lat.orbit_degenerate(Origin.A)
    assert not lat.orbit_degenerate(Origin.B)
    assert lat.orbit_degenerate(Origin.FIXED)


def test_grid_sample_and_value():
    p = HahnParams(0.5, 0.5)
    lat = Lattice(p, -1.0, 2.0, depth=6)
    g = GridFunction.sample(lat, lambda t: t * t)
    for pt in lat.points():
        assert g.value(pt) == lat.realize(pt) ** 2
    assert g.orbit_values(Origin.B)[1] == 1.5**2
    with pytest.raises(InsufficientDepth):
        g.value(LatticePoint(Origin.A, 7))


def test_grid_validation():
    p = HahnParams(0.5, 0.5)
    lat = Lattice(p, -1.0, 2.0, depth=2)
    with pytest.raises(ValueError):
        GridFunction(lat, [0.0, 0.0], [0.0, 0.0, 0.0], 0.0)
    with pytest.raises(NonFiniteValue):
        GridFunction(lat, [0.0, math.nan, 0.0], [0.0, 0.0, 0.0], 0.0)
    g = GridFunction(lat, [1.0, 2.0, 3.0], [4.0, 5.0, 6.0], 7.0)
    with pytest.raises(ValueError):
        g.orbit_values(Origin.FIXED)


def test_grid_axpy():
    p = HahnParams(0.5, 0.5)
    lat = Lattice(p, -1.0, 2.0, depth=4)
    f = GridFunction.sample(lat, lambda t: t)
    g = GridFunction.sample(lat, lambda t: t * t)
    h = f.axpy(-2.0, g)
    for pt in lat.points():
        t = lat.realize(pt)
        assert h.value(pt) == pytest.approx(t - 2.0 * t * t, rel=1e-15, abs=1e-15)
    other = GridFunction.sample(Lattice(p, -1.0, 2.0, depth=5), lambda t: t)
    with pytest.raises(ValueError):
        f.axpy(1.0, other)


def test_grid_replace_value_copies():
    p = HahnParams(0.5, 0.5)
    lat = Lattice(p, -1.0, 2.0, depth=2)
    g = GridFunction.sample(lat, lambda t: 0.0)
    pt = LatticePoint(Origin.A, 1)
    h = g.replace_value(pt, 9.0)
    assert h.value(pt) == 9.0
    assert g.value(pt) == 0.0
    k = g.replace_value(OMEGA0_POINT, 3.0)
    assert k.value_at_fixed == 3.0


# Orbit realization.  (0.9, 0.1) from -1.5 is an orbit whose closed form
# sigma_pow rounds two nodes together at index 335 and apart again at 336.
orbit_params = dict(
    q=st.floats(0.05, 0.95),
    omega=st.floats(0.1, 2.0),
    seed=st.floats(-5.0, 5.0),
)


@given(**orbit_params)
@example(q=0.9, omega=0.1, seed=-1.5)
def test_realize_is_sigma_iteration(q, omega, seed):
    p = HahnParams(q, omega)
    lat = Lattice(p, seed, seed + 1.0, depth=400)
    t = seed
    for n in range(lat.depth + 1):
        assert lat.realize(LatticePoint(Origin.A, n)) == t
        t = p.sigma(t)


@given(**orbit_params)
@example(q=0.9, omega=0.1, seed=-1.5)
def test_realized_merge_is_absorbing(q, omega, seed):
    lat = Lattice(HahnParams(q, omega), seed, seed + 1.0, depth=1000)
    nodes = [lat.realize(LatticePoint(Origin.A, n)) for n in range(lat.depth + 1)]
    merged = next((n for n in range(lat.depth) if nodes[n + 1] == nodes[n]), None)
    if merged is not None:
        assert all(t == nodes[merged] for t in nodes[merged:])


@given(**orbit_params)
@example(q=0.9, omega=0.1, seed=-1.5)
def test_integral_samples_at_realized_nodes(q, omega, seed):
    p = HahnParams(q, omega)
    args = []

    def f(t):
        args.append(t)
        return t * t

    integral_from_fixed(p, f, seed, max_terms=500)
    lat = Lattice(p, seed, seed + 1.0, depth=max(1, len(args)))
    assert args == [lat.realize(LatticePoint(Origin.A, n)) for n in range(len(args))]


def test_orbit_cap_is_grid_depth_or_first_merge():
    from hahnvar.core import Orbit

    grid = Orbit(0.5, 0.5, 2.0, [float(n) for n in range(5)])
    assert grid.cap(10) == 4
    with pytest.raises(InsufficientDepth):
        grid.window(5, 1)
    lazy = Orbit(0.9, 0.1, -1.5, lambda t: 2.0 * t)
    cap = lazy.cap(10_000)
    assert cap < 10_000
    assert lazy.node(cap + 1) == lazy.node(cap) != lazy.node(cap - 1)
    # Past the merge every node is the merged point, so its value repeats.
    assert lazy.cap(cap + 7) == cap
    _, vals = lazy.window(0, cap + 1)
    assert vals[cap] == lazy.values[cap] == 2.0 * lazy.node(cap + 7) == 2.0 * lazy.node(cap)
    with pytest.raises(DegenerateDenominator):
        lazy.window(cap, 2)


@pytest.mark.parametrize("depth", [1, 2, 3, 7, 40, 100])
def test_a_full_walk_of_a_grid_orbit_realizes_no_node_past_its_depth(depth):
    from hahnvar.core import Orbit

    values = [float(n) for n in range(depth + 1)]
    orbit = Orbit(0.9, 0.1, -1.5, values)
    assert [v for _, v in orbit.walk()] == values
    assert len(orbit.nodes) <= depth + 1


def test_walks_and_windows_interleaved_on_one_orbit_share_its_values():
    from hahnvar.core import Orbit

    # Two walks realizing one function-of-t orbit in turn, and a window
    # under a suspended walk, each read what the other realized.
    calls = []

    def f(t):
        calls.append(t)
        return t * t

    orbit = Orbit(0.9, 0.1, 3.0, f)
    first, second = orbit.walk(), orbit.walk()
    pairs = []
    for n in range(20):
        pairs += [next(first), next(second)]
        if n == 5:
            orbit.window(0, 12)
    assert pairs == [(t, t * t) for t in orbit.nodes[:20] for _ in range(2)]
    assert orbit.values == [t * t for t in orbit.nodes[:20]]
    assert calls == orbit.nodes[:20]


def test_walks_and_a_window_interleaved_on_one_grid_orbit_read_the_same_pairs():
    from hahnvar.core import Orbit

    # Two walks of one grid orbit in turn, and a window under a suspended
    # walk that realizes nodes ahead of both: every reader sees the same
    # (node, stored value) pairs, through the depth and no further.
    values = [float(n) for n in range(41)]
    orbit = Orbit(0.9, 0.1, 3.0, values)
    first, second = orbit.walk(), orbit.walk()
    pairs = []
    for n in range(41):
        pairs += [next(first), next(second)]
        if n == 5:
            assert orbit.window(0, 30) == (orbit.nodes[:30], values[:30])
    assert pairs == [(t, v) for t, v in zip(orbit.nodes, values) for _ in range(2)]
    assert next(first, None) is next(second, None) is None
    assert len(orbit.nodes) == 41


def test_a_grid_walk_stops_at_the_first_merge_below_its_depth():
    from hahnvar.core import Orbit

    # the orbit of 3.0 under t -> t/2 + 1/2 merges into 1.0 after 54 steps
    values = [float(n) for n in range(81)]
    orbit = Orbit(0.5, 0.5, 3.0, values)
    pairs = list(orbit.walk())
    assert len(orbit.nodes) == 55
    assert pairs == list(zip(orbit.nodes, values[:55]))


@pytest.mark.parametrize("depth", [math.inf, 1000])
def test_a_walk_calls_grow_once_per_doubling(monkeypatch, depth):
    from hahnvar.core import Orbit

    grow, asked = Orbit.grow, []

    def counted(q, omega, nodes, m):
        asked.append(m)
        return grow(q, omega, nodes, m)

    monkeypatch.setattr(Orbit, "grow", staticmethod(counted))
    # a function of t walks to its merge, grid data to its depth
    values = (lambda t: t) if depth == math.inf else [float(n) for n in range(depth + 1)]
    orbit = Orbit(0.999, 0.001, 3.0, values)
    walked = sum(1 for _ in orbit.walk())
    # past its n-th node it asks for index min(2n, depth): 2**k - 1 nodes
    # after k doublings, until the merge or the depth ends the walk
    assert asked == [min(2 * min(2**k - 1, walked), depth) for k in range(1, len(asked) + 1)]
    assert len(asked) <= walked.bit_length() + 1
    assert walked == len(orbit.nodes) == orbit.cap(depth) + 1


def test_series_samples_repeat_the_value_at_the_cap_of_a_grid_merging_below_its_depth():
    from itertools import islice

    from hahnvar.core import Orbit
    from hahnvar.integrals import _orbit_samples

    # the orbit of 3.0 under t -> t/2 + 1/2 merges into 1.0 after 54 steps
    orbit = Orbit(0.5, 0.5, 3.0, [float(n) for n in range(81)])
    assert orbit.cap(80) == 54
    assert list(islice(_orbit_samples(orbit), 60)) == [float(n) for n in range(55)] + [54.0] * 5
