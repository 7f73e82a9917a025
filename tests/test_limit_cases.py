"""The q-calculus (omega = 0) and h-calculus (q = 1) as limits of the Hahn calculus.

Both limits are parameter values of the one node recurrence and the one
series driver; the Hahn results must tend to them at first order.
"""

import math

import pytest

from hahnvar import (
    DegenerateDenominator,
    HahnParams,
    LatticePoint,
    Origin,
    Problem,
    forward_h_difference,
    h_el_residual,
    hahn_derivative,
    integral,
    jackson_q_derivative,
    jackson_q_integral,
    norlund_sum,
)
from hahnvar import integrals

QUAD = lambda t: 0.3 - 1.1 * t + 0.4 * t * t  # noqa: E731
DECAY = lambda t: math.exp(-t)  # noqa: E731

# (Hahn result at scale parameter eps, the limit result, the rate of (Hahn - limit)/eps)
RATES = {
    "jackson integral, omega -> 0": (
        lambda eps: integral(HahnParams(0.5, eps), QUAD, -1.0, 2.0).value,
        lambda: jackson_q_integral(0.5, QUAD, -1.0, 2.0).value,
        1.2857,
    ),
    "noerlund sum, q -> 1": (
        lambda eps: integral(HahnParams(1.0 - eps, 0.25), DECAY, 0.0, 2.0).value,
        lambda: norlund_sum(0.25, DECAY, 0.0, 2.0).value,
        -0.2656,
    ),
    "forward difference, q -> 1": (
        lambda eps: hahn_derivative(HahnParams(1.0 - eps, 0.25), QUAD, 1.3),
        lambda: forward_h_difference(0.25, QUAD, 1.3),
        -0.52,
    ),
    "jackson derivative, omega -> 0": (
        lambda eps: hahn_derivative(HahnParams(0.5, eps), QUAD, 1.3),
        lambda: jackson_q_derivative(0.5, QUAD, 1.3),
        0.40,
    ),
}


@pytest.mark.parametrize("case", list(RATES))
def test_hahn_results_tend_to_the_limit_calculi_at_first_order(case):
    hahn, limit, rate = RATES[case]
    ratios = {eps: (hahn(eps) - limit()) / eps for eps in (1e-2, 1e-3, 1e-4)}
    assert ratios[1e-4] == pytest.approx(rate, rel=1e-3)
    for eps in (1e-2, 1e-3):
        assert ratios[eps] == pytest.approx(ratios[1e-4], rel=0.05)


def test_every_integral_runs_through_the_one_series_driver(monkeypatch):
    calls = []
    driver = integrals._indexed_series

    def counted(*args):
        calls.append(args[0])
        return driver(*args)

    monkeypatch.setattr(integrals, "_indexed_series", counted)
    for run in (
        lambda: integral(HahnParams(0.5, 0.5), QUAD, -1.0, 2.0),
        lambda: jackson_q_integral(0.5, QUAD, -1.0, 2.0),
        lambda: norlund_sum(0.25, DECAY, 0.0, 2.0),
    ):
        calls.clear()
        run()
        assert len(calls) == 2


def test_h_residual_raises_where_the_step_is_lost_to_rounding():
    # 1e17 + 0.25 == 1e17: the shift lattice has no second node there
    prob = Problem(HahnParams(1.0 - 1e-6, 0.25), 1, 1e17, 2e17, (0.0,), (0.0,), "u1^2/2")
    with pytest.raises(DegenerateDenominator):
        h_el_residual(prob, lambda t: 0.0, LatticePoint(Origin.A, 0))


def test_forward_difference_raises_where_the_step_is_lost_to_rounding():
    with pytest.raises(DegenerateDenominator):
        forward_h_difference(0.25, QUAD, 1e17)
