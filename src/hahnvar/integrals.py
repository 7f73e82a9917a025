"""Series-based integrals on sigma-lattices.

The integral from the fixed point omega0 out to x is the weighted node
sum

    (x*(1-q) - omega) * sum_{k>=0} q^k * f(sigma^k(x))

and a general interval integral is the difference of two such series.
The classical limits are parameter values of the same sum, summed by
the same driver: omega = 0 is Jackson's q-integral (fixed point 0), and
q = 1 with omega = h is the Noerlund sum -h * sum_k f(x + k*h).  The
driver draws its samples from an iterator, one per term, so a series is
one streaming pass over its orbit: no sample past the stopping term is
formed, and an iterator that runs out is an exhausted orbit.
``_orbit_samples`` maps an integral's f over the orbit's nodes
(``Orbit.trail``) through C-level iterators, so a term resumes no
generator and costs one call of f.

For q < 1 convergence is judged by a geometric tail bound: if later
samples stay below M, the largest of the last five, the unsummed remainder
is at most |prefactor| * q^(k+1) * M / (1 - q); nothing checks that, so an
integrand zero on the nodes walked that spikes nearer omega0 converges
with a bound of 0.  At q = 1 there is no envelope; the driver stops once
|prefactor| * M <= tol, which is empirical, so converged is not a
certificate there.  Results carry the bound instead of raising, so a
caller can tell "converged under tol" from "ran out of terms".

A caller that knows the whole series exactly passes it to
``_indexed_series``, which returns it with 0 terms and bound 0.0:
``variational.functional_value`` closes each series of an expression
candidate whose integrand has a polynomial Taylor jet at omega0
(``jets``).  Every other integrand walks, as does every integrand of
``integral`` and the other functions here.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import chain, repeat, tee
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from .core import DEFAULT_MAX_TERMS, DEFAULT_TOL, HahnParams, Orbit
from .errors import NonFiniteValue

# Samples must stay below the running maximum for this many consecutive
# terms before the tail bound is trusted; guards against f vanishing at
# the first few nodes by accident.
_TAIL_WINDOW = 5


@dataclass(frozen=True)
class SeriesResult:
    """Outcome of one series evaluation.

    converged means the tail bound (which assumes later samples stay below
    the last five) dropped to the requested tolerance before max_terms, or
    before the samples ran out (an exhausted orbit); the partial value and
    bound are reported either way.  terms_used is the number of samples
    drawn from the iterator.
    At q = 1 (the Noerlund sum) the bound is the weighted maximum of the
    last few terms, so converged there is empirical, not a certificate.
    A series closed exactly (``functional_value`` of an expression
    candidate whose integrand has a polynomial jet at omega0) is
    converged with terms_used 0 and bound 0.0.
    """

    value: float
    terms_used: int
    tail_bound: float
    converged: bool

    def __sub__(self, other: "SeriesResult") -> "SeriesResult":
        """Two-sided result self - other: the bounds add, the larger term
        count is kept, and it converged only if both sides did."""
        return SeriesResult(
            value=self.value - other.value,
            terms_used=max(self.terms_used, other.terms_used),
            tail_bound=self.tail_bound + other.tail_bound,
            converged=self.converged and other.converged,
        )


def _indexed_series(
    q: float,
    prefactor: float,
    samples: Iterable[float],
    tol: float,
    max_terms: int,
    closed: float | None = None,
) -> SeriesResult:
    """prefactor * sum_k q^k * s_k over the samples s_0, s_1, ...,
    Kahan-compensated.

    A ``closed`` value, the whole series known exactly, is returned
    converged with 0 terms and bound 0.0, and no sample is drawn.  A bool
    is no term budget: ``max_terms=True`` raises TypeError, as a float does.

    A sample is drawn only when its term is summed, so nothing past the
    stopping term is evaluated.  A zero prefactor is an exact empty sum
    regardless of the samples.  When the samples run out the orbit is
    exhausted: the partial sum is returned with converged=False (the
    orbit ran out of usable points, same as running out of terms).  At
    q = 1 there is no geometric envelope: the bound is |prefactor| times
    the largest recent sample.  The bound, envelope * max(recent), is
    formed only on terms whose envelope * |s_k| is within tol, the only
    ones where it can be (rounding is monotone and max(recent) >= |s_k|),
    and once after the loop for an unconverged result.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if isinstance(max_terms, bool):
        raise TypeError(f"max_terms must be an integer, got {max_terms!r}")
    if max_terms < 1:
        raise ValueError(f"max_terms must be at least 1, got {max_terms!r}")
    if prefactor == 0.0:
        return SeriesResult(0.0, 0, 0.0, True)
    if closed is not None:
        return SeriesResult(closed, 0, 0.0, True)
    total = 0.0
    comp = 0.0
    weight = 1.0
    scale = abs(prefactor) * (q / (1.0 - q) if q < 1.0 else 1.0)
    recent: deque[float] = deque(maxlen=_TAIL_WINDOW)
    isfinite, remember, window = math.isfinite, recent.append, _TAIL_WINDOW
    done = 0
    for done, fx in zip(range(1, max_terms + 1), samples):
        if not isfinite(fx):
            raise NonFiniteValue(f"series term {done - 1} evaluated to {fx!r}")
        y = weight * fx - comp
        t = total + y
        comp = (t - total) - y
        total = t
        size = abs(fx)
        remember(size)
        envelope = scale * weight
        weight *= q
        if envelope * size <= tol and done >= window:
            tail = envelope * max(recent)
            if tail <= tol:
                return SeriesResult(prefactor * total, done, tail, True)
    tail = envelope * max(recent) if done else math.inf
    return SeriesResult(prefactor * total, done, tail, False)


def _orbit_samples(orbit: Orbit) -> Iterator[float]:
    """The orbit's values through the cap, then the value at the cap
    forever: past a merge every node is the merged point.  That is not
    ``values[-1]`` on a grid that merges below its depth.  A function of t
    is mapped over the orbit's ``trail``, each value formed when its term
    draws it and not stored; grid data comes off the walk.  Both are C-level
    iterators, so a term resumes no generator; ``tee`` keeps the values
    drawn, and the tail takes the last of them once the trail has ended."""
    source = orbit.source
    values = map(itemgetter(1), orbit.walk()) if source is None else map(source, orbit.trail())
    head, drawn = tee(values)

    def at_cap() -> Iterator[float]:
        yield from repeat(deque(drawn, maxlen=1).pop())

    return chain(head, at_cap())


def _one_sided(
    q: float, omega: float, f: Callable[[float], float], x: float, tol: float, max_terms: int
) -> SeriesResult:
    """Integral of f from the fixed point of t -> q*t + omega out to x."""
    if not math.isfinite(x):
        raise ValueError(f"endpoint must be finite, got {x!r}")
    orbit = Orbit(q, omega, x, f)
    return _indexed_series(q, orbit.prefactor, _orbit_samples(orbit), tol, max_terms)


def integral_from_fixed(
    params: HahnParams,
    f: Callable[[float], float],
    x: float,
    tol: float = DEFAULT_TOL,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> SeriesResult:
    """Integral of f over [omega0, x] (signed; x may sit on either side)."""
    return _one_sided(params.q, params.omega, f, x, tol, max_terms)


def integral(
    params: HahnParams,
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = DEFAULT_TOL,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> SeriesResult:
    """Integral of f over [a, b] as the difference of the fixed-point series.

    Antisymmetric in the endpoints; both orbit series share tol and
    max_terms and the reported tail bound is the sum of the two."""
    at_b = _one_sided(params.q, params.omega, f, b, tol, max_terms)
    return at_b - _one_sided(params.q, params.omega, f, a, tol, max_terms)


def sigma_cell_integral(params: HahnParams, f: Callable[[float], float], t: float) -> float:
    """Exact integral over the single cell [sigma(t), t]:
    -denominator(t) * f(t), the one-node case of the series."""
    return _one_sided(params.q, params.omega, f, t, DEFAULT_TOL, 1).value


def jackson_q_integral(
    q: float,
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = DEFAULT_TOL,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> SeriesResult:
    """Pure dilation (omega = 0) integral; the fixed point is 0."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q!r}")
    at_b = _one_sided(q, 0.0, f, b, tol, max_terms)
    return at_b - _one_sided(q, 0.0, f, a, tol, max_terms)


def norlund_sum(
    omega: float,
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = DEFAULT_TOL,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> SeriesResult:
    """Pure shift (q = 1) integral over [a, b] with step omega > 0.

    There is no geometric envelope at q = 1, so converged means only that
    the last few weighted terms fell below tol (see SeriesResult)."""
    if not (omega > 0.0 and math.isfinite(omega)):
        raise ValueError(f"omega must be positive and finite, got {omega!r}")
    at_b = _one_sided(1.0, omega, f, b, tol, max_terms)
    return at_b - _one_sided(1.0, omega, f, a, tol, max_terms)
