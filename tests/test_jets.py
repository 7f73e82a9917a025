"""Taylor jets at omega0: D^r there, and series of expression candidates
closed by the Jackson integral of the integrand's jet where it is a
polynomial."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hahnvar import (
    DomainError,
    HahnParams,
    Problem,
    dsl,
    evaluate,
    functional_value,
    hahn_derivative_n,
    jets,
    parse,
    q_bracket,
)
from hahnvar.core import Orbit
from hahnvar.variational import traj_components

# Expressions smooth at every omega0 drawn below, with the highest order at
# which the symbolic reference stays small enough to evaluate: its r-fold
# derivative tree grows with each order, and for the entries at 5 it reaches
# millions of nodes by order 8.
_SMOOTH = {
    "exp(t)*sin(t)": 8,
    "exp(-t^2)": 8,
    "t^-2": 8,
    "2^t": 8,
    "t^7 - 3*t^2 + 1": 8,
    "cos(2*t) + sin(t)^2": 8,
    "ln(1 + t^2)": 5,
    "sqrt(2 + t)": 5,
    "cos(t)/(3 + t)": 5,
    "(1 + t)^2.5": 5,
    "abs(t - 5)*t^3": 5,
    "1/(t^2 + 1)": 5,
}


def _symbolic_derivative_at(params, source, r):
    """The reference: [r]_q!/r! times the r-th derivative tree, evaluated."""
    tree = parse(source)
    for _ in range(r):
        tree = dsl.derivative(tree, "t")
    factor = math.prod(q_bracket(k, params.q) for k in range(1, r + 1)) / math.factorial(r)
    return factor * evaluate(tree, {"t": params.omega0})


@settings(deadline=None, max_examples=120)
@given(st.sampled_from(sorted(_SMOOTH)), st.floats(0.3, 0.99), st.floats(0.5, 2.0), st.data())
def test_the_jet_derivative_at_omega0_is_the_symbolic_one(source, q, omega0, data):
    r = data.draw(st.integers(1, _SMOOTH[source]))
    params = HahnParams(q, omega0 * (1.0 - q))
    want = _symbolic_derivative_at(params, source, r)
    got = hahn_derivative_n(params, source, r, params.omega0)
    assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


def test_a_high_order_derivative_at_omega0_is_the_closed_form():
    # exp(t)*sin(t) = Im e^((1+i)t), so its n-th derivative is
    # 2^(n/2) e^t sin(t + n*pi/4); at order 30 the symbolic tree would need
    # some 10^10 nodes.
    params, r = HahnParams(0.5, 0.5), 30
    factor = math.prod(q_bracket(k, params.q) for k in range(1, r + 1)) / math.factorial(r)
    want = factor * 2.0**15 * math.e * math.sin(1.0 + r * math.pi / 4)
    assert hahn_derivative_n(params, "exp(t)*sin(t)", r, 1.0) == pytest.approx(want, rel=1e-12)


def test_a_t_that_equals_omega0_as_an_int_reads_float_literals():
    assert hahn_derivative_n(HahnParams(0.5, 0.5), "0.5*t^2 + 0.25*t", 1, 1) == 1.25


@pytest.mark.parametrize("source", ["abs(t - 1)", "sqrt(abs(t - 1))", "ln(t - 1)", "1/(t - 1)",
                                    "(t - 1)^0.5"])
def test_where_the_jet_refuses_d_at_omega0_raises_as_the_symbolic_path_did(source):
    params = HahnParams(0.5, 0.5)
    with pytest.raises(DomainError):
        _symbolic_derivative_at(params, source, 1)
    with pytest.raises(DomainError):
        hahn_derivative_n(params, source, 1, params.omega0)


# ---------------------------------------------------------------------------
# Closed series of polynomial problems against an exact Fraction oracle
# ---------------------------------------------------------------------------

def _rand_polynomial_problem(rng, r):
    """A problem quadratic in the slots with polynomial coefficients in t, a
    cubic candidate, and endpoints each live far from omega0, live within a
    hair of it, or on it as a float."""
    q = rng.uniform(0.5, 0.99)
    params = HahnParams(q, rng.uniform(0.3, 1.5) * (1.0 - q))
    w0 = params.omega0

    def endpoint(side):
        kind = rng.choice(("far", "near", "on"))
        if kind == "on":
            return w0
        return w0 + side * (rng.uniform(0.5, 2.5) if kind == "far" else 10.0 ** rng.uniform(-9, -3))

    a, b = endpoint(-1.0), endpoint(1.0)
    if not a < b:
        b = w0 + rng.uniform(0.5, 2.5)
    terms = [f"{rng.uniform(-1, 1)!r}*t"]
    for i in range(r + 1):
        terms.append(f"{rng.uniform(-1, 1)!r}*u{i}^2")
        terms.append(f"{rng.uniform(-1, 1)!r}*t*u{i}")
    terms.append(f"{rng.uniform(-1, 1)!r}*u0*u{rng.randrange(r + 1)}")
    problem = Problem(params, r, a, b, (0.0,) * r, (0.0,) * r, " + ".join(terms))
    cs = [rng.uniform(-1, 1) for _ in range(4)]
    return problem, f"{cs[0]!r} + {cs[1]!r}*t + {cs[2]!r}*t^2 + {cs[3]!r}*t^3"


def _exact(problem, source):
    """The functional of a polynomial problem over the binary values of its
    inputs, by the same jets in Fraction arithmetic: each one-sided series
    is sum_m F_m s^(m+1) / [m+1]_q, exactly; also the sum of the terms'
    sizes, the scale of the float result's roundoff."""
    q, omega = Fraction(problem.params.q), Fraction(problem.params.omega)
    w0 = omega / (1 - q)
    jet = jets.integrand(problem.lagrangian.expr, problem.r, parse(source), q, w0)
    assert jet is not None
    sides = [jets.terms(jet, q, Fraction(seed) - w0) for seed in (problem.b, problem.a)]
    return sum(sides[0]) - sum(sides[1]), sum(abs(x) for side in sides for x in side)


# Roundoff allowed to the float result, in units of 1 plus the exact terms'
# sizes: about 450 eps.  Over seeds 0-599 the largest error read 1.1e-14.
_ROUNDOFF = 1e-13


@pytest.mark.parametrize("seed", range(40))
def test_a_closed_polynomial_functional_is_within_roundoff_of_the_exact_jets(seed):
    rng = random.Random(seed)
    problem, source = _rand_polynomial_problem(rng, 1 + seed % 3)
    got = functional_value(problem, source)
    exact, scale = _exact(problem, source)
    assert (got.terms_used, got.tail_bound, got.converged) == (0, 0.0, True)
    assert abs(Fraction(got.value) - exact) <= Fraction(got.tail_bound) + Fraction(_ROUNDOFF) * (1 + scale)
    # The slot jets are the quotient tables: at an orbit node, exactly.
    q, omega = Fraction(problem.params.q), Fraction(problem.params.omega)
    w0, y = omega / (1 - q), parse(source)
    cubic = jets.Expansion(Fraction, 3, 3).jet(y, {"t": ([w0, Fraction(1)], True)})[0]
    orbit, n = Orbit(q, omega, Fraction(problem.b)), rng.randrange(6)
    taus = [orbit.node(n + k) for k in range(problem.r + 1)]
    vals = [jets.Expansion(Fraction, 0, 0).jet(y, {"t": ([t], True)})[0][0] for t in taus]
    s = taus[0] - w0
    at_node = [sum(c * s**k for k, c in enumerate(v)) for v in jets.slots(cubic, q, problem.r)]
    assert at_node == traj_components(taus, vals)


# ---------------------------------------------------------------------------
# Where the jet refuses or is a series, the series walks as before
# ---------------------------------------------------------------------------

_P = HahnParams(0.5, 0.5)  # omega0 = 1


def _bits(res):
    return res.value.hex(), res.terms_used, res.tail_bound.hex(), res.converged


# The jet of t + 1e-170*t^2 refuses too, though it is smooth: the square
# of its t^2 coefficient underflows, where no value on the orbits does.
@pytest.mark.parametrize("source", ["sqrt(abs(t - 1))", "abs(t - 1)", "t + 1e-170*t^2"])
@pytest.mark.parametrize("r", [1, 2])
def test_a_candidate_not_smooth_at_omega0_walks_its_orbits_bit_for_bit(source, r):
    problem = Problem(_P, r, -1.0, 2.5, (0.0,) * r, (0.0,) * r, "u0^2 + t*u1^2")
    tree = parse(source)
    with pytest.raises(DomainError):
        jets.integrand(problem.lagrangian.expr, r, tree, _P.q, _P.omega0)
    walked = functional_value(problem, lambda t: evaluate(tree, {"t": t}))
    assert _bits(functional_value(problem, source)) == _bits(walked)
    assert _bits(functional_value(problem, tree)) == _bits(walked)
    assert walked.terms_used > 0


@pytest.mark.parametrize("source, lagrangian", [
    # The jet of sin(t - 1)^26 at omega0 = 1 vanishes through order 25, so
    # no truncated series of it could tell the integral from 3.
    ("1 + sin(t - 1)^26", "u0"),
    ("exp(t)*cos(t)", "u1^2 + u0^2"),
    ("t^2", "exp(u0)*u1"),
    ("t", "u1/(1 + u0^2)"),
    ("(t - 1)^70", "u0"),
    # abs of a non-constant operand has a series jet, kinked in range or
    # not: abs(t - 2) at the seed b = 2, abs(u1) at t = -1/3, where
    # D[t^2] = q*t + omega + t vanishes, and abs(t + 5) nowhere on [-1, 2].
    ("abs(t - 2)", "u0^2 + u1^2"),
    ("t^2", "abs(u1)"),
    ("abs(t + 5)", "u0^2 + u1^2"),
])
def test_a_candidate_whose_integrand_jet_is_a_series_walks_its_orbits_bit_for_bit(source, lagrangian):
    problem = Problem(_P, 1, -1.0, 2.0, (0.0,), (0.0,), lagrangian)
    tree = parse(source)
    assert jets.integrand(problem.lagrangian.expr, 1, tree, _P.q, _P.omega0) is None
    walked = functional_value(problem, lambda t: evaluate(tree, {"t": t}))
    assert _bits(functional_value(problem, source)) == _bits(walked)
    assert walked.terms_used > 0


def test_a_jet_that_underflows_raises_where_the_callable_raises():
    # Slot u0 of 1e-200*t has coefficients near 1e-200, so u0*u0 underflows
    # in the jet as on every orbit node.
    problem = Problem(_P, 1, -1.0, 2.0, (0.0,), (0.0,), "u0*u0")
    tree = parse("1e-200*t")
    with pytest.raises(DomainError, match="underflowed"):
        jets.integrand(problem.lagrangian.expr, 1, tree, _P.q, _P.omega0)
    with pytest.raises(DomainError, match="underflowed"):
        functional_value(problem, lambda t: evaluate(tree, {"t": t}))
    with pytest.raises(DomainError, match="underflowed"):
        functional_value(problem, tree)


def test_an_endpoint_on_omega0_as_a_float_closes_where_the_walk_runs_out():
    # The seed equals omega0 as a float but its prefactor is 1.1e-16, so its
    # orbit is live with one usable point: a function of t stops unconverged
    # after 82 terms, and the expression's series close with no term walked.
    params = HahnParams(0.713, 0.881)
    problem = Problem(params, 1, params.omega0, params.omega0 + 1.0, (0.0,), (1.0,),
                      "u1^2 + u0^2")
    walked = functional_value(problem, lambda t: t - params.omega0)
    assert (walked.converged, walked.terms_used) == (False, 82)
    got = functional_value(problem, f"t - {params.omega0!r}")
    assert (got.converged, got.terms_used, got.tail_bound) == (True, 0, 0.0)
    # y = s, so u0 = y(sigma(t)) = q*s and u1 = 1: the integral of
    # 1 + q^2 s^2 from 0 to 1 is 1 + q^2/[3]_q.
    q = params.q
    assert got.value == pytest.approx(1.0 + q * q / q_bracket(3, q), rel=1e-15)


@pytest.mark.parametrize("kwargs", [{"max_terms": 0}, {"max_terms": -3}, {"tol": 0.0},
                                    {"tol": float("nan")}, {"tol": -1.0}])
def test_a_closing_series_refuses_what_the_walk_refuses(kwargs):
    problem = Problem(_P, 1, -1.0, 2.0, (0.0,), (0.0,), "u1^2")
    with pytest.raises(ValueError):
        functional_value(problem, lambda t: t * t - 1.0, **kwargs)
    with pytest.raises(ValueError):
        functional_value(problem, "t^2 - 1", **kwargs)
