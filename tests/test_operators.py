"""Difference-quotient operators against hand-computed values and identities."""

import math

import pytest
from hypothesis import given, strategies as st

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
    forward_h_difference,
    grid_derivative_at_fixed,
    hahn_derivative,
    hahn_derivative_n,
    iterated_quotient,
    jackson_q_derivative,
    norm_r_inf,
    q_bracket,
)
from hahnvar.core import Orbit
from hahnvar.demos import ystar
from hahnvar.operators import extrapolate_to_fixed, iterates_at_fixed, quotient_levels

P = HahnParams(0.5, 0.5)


def test_square_at_two_exact():
    # sigma(2) = 1.5, so (1.5^2 - 2^2)/(1.5 - 2) = 3.5 with no rounding
    assert hahn_derivative(P, lambda t: t * t, 2.0) == 3.5


def test_at_fixed_point_uses_classical_limit():
    assert hahn_derivative(P, lambda t: t * t, P.omega0) == pytest.approx(2.0, abs=1e-9)


def test_piecewise_minimizer_quotients():
    # frozen from the sieve candidate: jump values drive the quotients
    assert hahn_derivative(P, ystar, -1.0) == 1.0
    assert hahn_derivative(P, ystar, 0.0) == -3.0
    assert hahn_derivative(P, ystar, 0.5) == -1.0


@given(
    q=st.floats(0.2, 0.9),
    omega=st.floats(0.1, 1.5),
    t=st.floats(-3.0, 3.0),
    a=st.floats(-2.0, 2.0),
    b=st.floats(-2.0, 2.0),
)
def test_linearity(q, omega, t, a, b):
    p = HahnParams(q, omega)
    f = lambda s: s * s - 1.0
    g = lambda s: 0.5 * s + 2.0
    combo = hahn_derivative(p, lambda s: a * f(s) + b * g(s), t)
    parts = a * hahn_derivative(p, f, t) + b * hahn_derivative(p, g, t)
    assert combo == pytest.approx(parts, rel=1e-9, abs=1e-9)


def test_product_rule():
    f = lambda t: 0.3 * t**3 - 0.5 * t + 0.7
    g = lambda t: 0.2 * t**2 + 1.5
    for t in (-1.0, 0.3, 2.0):
        st_ = P.sigma(t)
        lhs = hahn_derivative(P, lambda s: f(s) * g(s), t)
        rhs = hahn_derivative(P, f, t) * g(t) + f(st_) * hahn_derivative(P, g, t)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_quotient_rule():
    f = lambda t: 0.3 * t**3 - 0.5 * t + 0.7
    g = lambda t: 0.2 * t**2 + 1.5  # never zero
    for t in (-1.0, 0.3, 2.0):
        st_ = P.sigma(t)
        lhs = hahn_derivative(P, lambda s: f(s) / g(s), t)
        num = hahn_derivative(P, f, t) * g(t) - f(t) * hahn_derivative(P, g, t)
        assert lhs == pytest.approx(num / (g(t) * g(st_)), abs=1e-10)


def test_shift_identity():
    f = lambda t: math.sin(t) + 0.2 * t
    for t in (-2.0, 0.0, 1.7):
        shifted = f(t) + P.denominator(t) * hahn_derivative(P, f, t)
        assert shifted == pytest.approx(f(P.sigma(t)), abs=1e-12)


def test_chain_with_sigma():
    # composing with sigma commutes up to one factor of q
    f = lambda t: t**3 - 2.0 * t
    for t in (-1.5, 0.25, 2.0):
        lhs = hahn_derivative(P, lambda s: f(P.sigma(s)), t)
        rhs = P.q * hahn_derivative(P, f, P.sigma(t))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_second_derivative_of_square_is_constant():
    # D[t^2] = (q+1)t + omega, so the second derivative is q + 1 everywhere
    for t in (-1.0, 0.0, 2.0):
        assert hahn_derivative_n(P, lambda s: s * s, 2, t) == pytest.approx(1.5, abs=1e-10)


def test_third_derivative_of_cube_is_q_factorial():
    want = q_bracket(1, 0.5) * q_bracket(2, 0.5) * q_bracket(3, 0.5) * 1.0
    got = hahn_derivative_n(P, lambda s: s**3, 3, 2.0)
    assert got == pytest.approx(want, abs=1e-9)
    assert want == 2.625


def test_order_zero_returns_value():
    assert hahn_derivative_n(P, lambda t: t + 3.0, 0, 2.0) == 5.0
    g = GridFunction.sample(Lattice(P, -1.0, 2.0, depth=4), lambda t: t + 3.0)
    assert hahn_derivative_n(P, g, 0, LatticePoint(Origin.B, 1)) == 4.5


def test_order_validation():
    with pytest.raises(ValueError):
        hahn_derivative_n(P, lambda t: t, -1, 0.0)


def test_grid_matches_callable():
    lat = Lattice(P, -1.0, 2.0, depth=12)
    g = GridFunction.sample(lat, lambda t: t**3)
    for n in range(4):
        for origin in (Origin.A, Origin.B):
            pt = LatticePoint(origin, n)
            want = hahn_derivative_n(P, lambda t: t**3, 2, lat.realize(pt))
            assert hahn_derivative_n(P, g, 2, pt) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_grid_argument_type_mismatch():
    lat = Lattice(P, -1.0, 2.0, depth=4)
    g = GridFunction.sample(lat, lambda t: t)
    with pytest.raises(TypeError):
        hahn_derivative_n(P, g, 1, 0.5)
    with pytest.raises(TypeError):
        hahn_derivative_n(P, lambda t: t, 1, LatticePoint(Origin.A, 0))


def test_grid_runs_out_of_depth():
    lat = Lattice(P, -1.0, 2.0, depth=4)
    g = GridFunction.sample(lat, lambda t: t)
    with pytest.raises(InsufficientDepth):
        hahn_derivative_n(P, g, 2, LatticePoint(Origin.A, 3))


def test_grid_derivative_at_fixed_point():
    lat = Lattice(P, -1.0, 2.0, depth=24)
    g = GridFunction.sample(lat, lambda t: t * t)
    got = hahn_derivative_n(P, g, 1, OMEGA0_POINT)
    assert got == pytest.approx(2.0 * P.omega0, abs=1e-9)
    assert got == grid_derivative_at_fixed(g, 1)


def test_grid_derivative_at_fixed_refuses_a_negative_order():
    # Before the check, it raised a bare IndexError.
    g = GridFunction.sample(Lattice(P, -1.0, 2.0, depth=12), lambda t: t * t)
    with pytest.raises(ValueError, match="order r must be non-negative"):
        grid_derivative_at_fixed(g, -1)


@given(
    st.floats(0.05, 0.95),
    st.floats(-3.0, 3.0),
    st.floats(-4.0, 4.0).filter(lambda x: abs(x) > 1e-3),
    st.integers(0, 30),
    st.integers(1, 7),
    st.lists(st.floats(-1e3, 1e3), min_size=9, max_size=9),
)
def test_each_iterate_at_omega0_reads_the_last_points_of_its_one_window(q, omega0, s0, k, n, vals):
    # Every order of one n + 2 point window equals the two-level rule over
    # the window's last i + 2 points, bit for bit.
    orbit = Orbit(q, omega0 * (1.0 - q), omega0 + s0)
    if orbit.degenerate or orbit.cap(k + n + 1) < k + n + 1:
        return
    taus, vals = orbit.window(k, n + 2)[0], vals[: n + 2]
    got = iterates_at_fixed(q, taus, vals, n)
    want = [extrapolate_to_fixed(q, quotient_levels(taus[-i - 2 :], vals[-i - 2 :], i))
            for i in range(1, n + 1)]
    assert list(map(repr, got)) == list(map(repr, want))  # deep windows may overflow to nan


def test_iterated_quotient_degenerate():
    with pytest.raises(DegenerateDenominator):
        iterated_quotient([1.0, 1.0], [2.0, 3.0])


def test_norm_counts_all_orders():
    # sup|t| = 2 at b, sup|Dt| = 1, so the order-1 norm is 3
    lat = Lattice(P, -1.0, 2.0, depth=8)
    g = GridFunction.sample(lat, lambda t: t)
    assert norm_r_inf(g, 1) == pytest.approx(3.0, abs=1e-12)
    with pytest.raises(InsufficientDepth):
        norm_r_inf(GridFunction.sample(Lattice(P, -1.0, 2.0, depth=1), lambda t: t), 2)
    with pytest.raises(ValueError, match="non-negative"):
        norm_r_inf(g, -1)


def test_forward_h_difference():
    assert forward_h_difference(0.25, lambda t: t * t, 1.0) == 2.25
    with pytest.raises(ValueError):
        forward_h_difference(0.0, lambda t: t, 1.0)


def test_jackson_q_derivative():
    # ((q t)^3 - t^3)/((q - 1) t) at q = 1/2, t = 2 is exactly 7
    assert jackson_q_derivative(0.5, lambda t: t**3, 2.0) == 7.0
    assert jackson_q_derivative(0.5, lambda t: t**3, 0.0) == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValueError):
        jackson_q_derivative(1.5, lambda t: t, 1.0)


def _seeds_near_the_fixed_point(params, ulps):
    w0 = params.omega0
    out, lo, hi = [], w0, w0
    for _ in range(ulps):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


@pytest.mark.parametrize("q, omega", [(0.5, 0.5), (0.9, 0.1), (0.3, 2.0), (0.99, 0.01)])
def test_point_derivative_takes_the_orbit_nodes(q, omega):
    params = HahnParams(q, omega)
    f = lambda t: math.sin(t) + 0.1 * t**3  # noqa: E731
    seeds = [-2.0, 0.37, 3.5, params.omega0 + 1e-9] + _seeds_near_the_fixed_point(params, 4)
    merged = 0
    for t in seeds:
        for r in range(5):
            try:
                want = iterated_quotient(*Orbit(q, omega, t, f).window(0, r + 1))
            except DegenerateDenominator:
                merged += 1
                with pytest.raises(DegenerateDenominator):
                    hahn_derivative_n(params, f, r, t)
                continue
            assert hahn_derivative_n(params, f, r, t) == want
    assert merged > 0


@pytest.mark.parametrize("r", range(5))
def test_derivative_at_the_fixed_point_is_scaled_classical(r):
    # In s = t - omega0 sigma is s -> q*s, so D^r f(omega0) = [r]_q!/r! f^(r)(omega0).
    factor = math.prod(q_bracket(k, P.q) for k in range(1, r + 1)) / math.factorial(r)
    w0 = P.omega0
    exact = factor * math.exp(w0)
    assert hahn_derivative_n(P, "exp(t)", r, w0) == pytest.approx(exact, rel=1e-15)
    tolerance = (0.0, 3e-13, 3e-10, 2e-8, 5e-7)[r]
    assert hahn_derivative_n(P, math.exp, r, w0) == pytest.approx(exact, rel=tolerance, abs=0.0)


def test_expression_and_callable_agree_off_the_fixed_point():
    for r in range(4):
        for t in (-1.0, 0.25, 3.0):
            want = hahn_derivative_n(P, lambda s: s**3 - 2.0 * s, r, t)
            assert hahn_derivative_n(P, "t^3 - 2*t", r, t) == want


_SMOOTH = [math.sin, lambda t: math.exp(0.1 * t), lambda t: t**3 - 2.0 * t, lambda t: 1.0 / (2.0 + t * t)]


def _table_quotient(q, omega, f, t):
    """Order 1 the way orders r >= 2 take it: the grow stencil, padded past
    a merge, through the quotient table."""
    taus = Orbit.grow(q, omega, [t], 1)
    taus += taus[-1:] * (2 - len(taus))
    return iterated_quotient(taus, [f(x) for x in taus])


def _first_order_paths(q, omega):
    """(scale q, omega, derivative of f at t) for each operator on the order-1 path."""
    return [
        (q, omega, lambda f, t: hahn_derivative(HahnParams(q, omega), f, t)),
        (1.0, omega, lambda f, t: forward_h_difference(omega, f, t)),
        (q, 0.0, lambda f, t: jackson_q_derivative(q, f, t)),
    ]


@given(
    q=st.floats(0.01, 0.99),
    omega=st.floats(0.01, 5.0),
    t=st.floats(-50.0, 50.0),
    k=st.integers(0, len(_SMOOTH) - 1),
)
def test_first_order_quotient_is_the_table_bit_for_bit(q, omega, t, k):
    f = _SMOOTH[k]
    for scale, shift, derivative in _first_order_paths(q, omega):
        if t == (shift / (1.0 - scale) if scale < 1.0 else None):
            continue
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)

        try:
            want = _table_quotient(scale, shift, f, t)
        except DegenerateDenominator:
            with pytest.raises(DegenerateDenominator):
                derivative(counted, t)
            assert calls == [t, t]
            continue
        assert derivative(counted, t).hex() == want.hex()
        assert calls == [t, scale * t + shift]


@pytest.mark.parametrize(
    "derivative, t",
    [
        (lambda f, t: hahn_derivative(HahnParams(0.9, 0.1), f, t), 0.9999999999999998),
        (lambda f, t: forward_h_difference(0.25, f, t), 1e17),
        (lambda f, t: jackson_q_derivative(0.75, f, t), 5e-324),
    ],
)
def test_first_order_quotient_at_a_merged_node(derivative, t):
    calls = []

    def f(x):
        calls.append(x)
        return x

    with pytest.raises(DegenerateDenominator):
        derivative(f, t)
    assert calls == [t, t]
    # A non-finite value is reported before the zero step.
    with pytest.raises(NonFiniteValue):
        derivative(lambda x: math.inf, t)


@pytest.mark.parametrize(
    "derivative",
    [
        lambda f: hahn_derivative(P, f, 2.0),
        lambda f: forward_h_difference(0.25, f, 2.0),
        lambda f: jackson_q_derivative(0.5, f, 2.0),
    ],
)
def test_first_order_quotient_refuses_non_finite_values(derivative):
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(NonFiniteValue):
            derivative(lambda x: bad if x == 2.0 else x)
        with pytest.raises(NonFiniteValue):
            derivative(lambda x: x if x == 2.0 else bad)
