"""Parameters, sigma-orbits and grid functions.

The operator scale is the affine map sigma(t) = q*t + omega with
0 < q < 1 and omega > 0.  sigma has the unique fixed point
omega0 = omega/(1-q) and every orbit t, sigma(t), sigma^2(t), ...
converges to omega0 geometrically.  A computational lattice consists of
the two orbits seeded at the endpoints of a working interval plus the
fixed point itself.

Every orbit node is realized in one place, ``Orbit.grow``, by the
recurrence t[n+1] = q*t[n] + omega (the n-fold application of
``HahnParams.sigma``); only the first-order quotient takes its one step
inline.
Near omega0 two consecutive nodes eventually round to the same float;
under the recurrence such a merge is absorbing, since fl(q*t + omega) = t
fixes t for good, so a single index caps the usable part of an orbit.

Lattice points are identified by the integer pair (origin, n), never by
their float realizations: close to omega0 distinct points realize to
floats that are equal or nearly equal, so float comparison would merge
them incorrectly.
"""

from __future__ import annotations

import enum
import math
from functools import cached_property
from itertools import chain
from typing import Callable, Iterator

from .errors import DegenerateDenominator, InsufficientDepth, NonFiniteValue

# Package-wide numeric defaults.
DEFAULT_TOL = 1e-12
DEFAULT_MAX_TERMS = 10_000
DEFAULT_DEPTH = 64


class Record:
    """Base of the package's value classes.  As on a dataclass, a subclass
    declares its fields by annotation, in order; ``__init__`` takes them by
    position or by name and sets them in that order, in ``__dict__``; the
    repr lists them, == compares them between instances of one class, and an
    instance is unhashable.  The classes that check or convert their inputs
    (``HahnParams``, ``Lattice``, ``LatticePoint``, ``GridFunction``, ``Number``,
    ``Lagrangian``, ``Problem``) write their own ``__init__``, as do the
    expression nodes, built by the thousand: a written-out one is faster."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__) or cls._fields

    def __init__(self, *args, **kwargs) -> None:
        name, fields = type(self).__qualname__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} fields but {len(args)} were given")
        values = dict(zip(fields, args))
        for key in kwargs:
            if key not in fields:
                raise TypeError(f"{name} has no field {key!r}")
            if key in values:
                raise TypeError(f"{name} got field {key!r} twice")
        values.update(kwargs)
        if len(values) < len(fields):
            missing = next(key for key in fields if key not in values)
            raise TypeError(f"{name} is missing field {missing!r}")
        self.__dict__.update((key, values[key]) for key in fields)

    def _values(self) -> list:
        return [getattr(self, name) for name in self._fields]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented


class Frozen(Record):
    """A Record whose fields are set once, in ``__dict__``, by ``__init__``:
    assignment raises AttributeError, and the hash is the fields' tuple's."""

    def __hash__(self) -> int:
        return hash(tuple(self._values()))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def q_bracket(k: int, q: float) -> float:
    """The q-integer [k]_q = (1 - q**k)/(1 - q) = 1 + q + ... + q**(k-1)."""
    return (1.0 - q**k) / (1.0 - q)


class HahnParams(Frozen):
    """Scale pair (q, omega) for sigma(t) = q*t + omega."""

    q: float
    omega: float

    def __init__(self, q: float, omega: float) -> None:
        if not (isinstance(q, float) or isinstance(q, int)):
            raise TypeError("q must be a real number")
        if not math.isfinite(q) or not (0.0 < q < 1.0):
            raise ValueError(f"q must be a finite number strictly inside (0, 1), got {q!r}")
        if not math.isfinite(omega) or not omega > 0.0:
            raise ValueError(f"omega must be finite and strictly positive, got {omega!r}")
        self.__dict__.update(q=q, omega=omega)

    @cached_property
    def omega0(self) -> float:
        """Fixed point of sigma: omega / (1 - q)."""
        return self.omega / (1.0 - self.q)

    def sigma(self, t: float) -> float:
        return self.q * t + self.omega

    def denominator(self, t: float) -> float:
        """(q - 1)*t + omega, the step sigma(t) - t appearing in difference quotients."""
        return (self.q - 1.0) * t + self.omega


def sigma_pow(params: HahnParams, k: int, t: float) -> float:
    """k-fold iterate of sigma; negative k applies the inverse map.

    sigma^k(t)  = q**k * t + omega*[k]_q          for k >= 0
    sigma^-k(t) = (t - omega*[k]_q) / q**k        for k >= 0
    """
    q, omega = params.q, params.omega
    if k >= 0:
        return q**k * t + omega * q_bracket(k, q)
    m = -k
    return (t - omega * q_bracket(m, q)) / q**m


class Orbit:
    """The orbit t[0] = seed, t[n+1] = q*t[n] + omega, with values on it.

    Nodes are realized once, by the recurrence, into ``nodes``.  The list
    stops at the first merge t[n+1] == t[n]: merges are absorbing, so
    every later node equals the last one.  ``values`` is either grid data,
    read directly, or filled lazily from a function of t, the ``source``.
    The usable depth (the cap) is the smaller of the grid depth and the
    merge index: up to it every value exists and every step
    t[j+1] - t[j] is nonzero.  ``cap`` finds it from the nodes, ``window``
    reads nodes and values on a run of indices, ``trail`` streams the
    nodes through the cap and ``walk`` nodes and values.  Built from raw
    (q, omega, seed), so the omega = 0 q-lattice fits too.
    """

    def __init__(
        self,
        q: float,
        omega: float,
        seed: float,
        values: list[float] | Callable[[float], float] | None = None,
    ):
        self.q = q
        self.omega = omega
        self.prefactor = seed * (1.0 - q) - omega
        self.degenerate = self.prefactor == 0.0
        self.nodes = [seed]
        self.values: list[float] = []
        self.source: Callable[[float], float] | None = None
        self._grid_depth = math.inf
        if callable(values):
            self.source = values
        elif values is not None:
            self.values = values
            self._grid_depth = len(values) - 1

    @staticmethod
    def grow(q: float, omega: float, nodes: list[float], m: int) -> list[float]:
        """Extend the realized orbit prefix ``nodes`` in place by
        t[n+1] = q*t[n] + omega through index m, stopping early at the
        first merge t[n+1] == t[n]; returns ``nodes``.  The one node
        recurrence: every orbit node, ``trail``'s too, and every point
        stencil of order r >= 2 comes from it."""
        while len(nodes) <= m:
            t = nodes[-1]
            nxt = q * t + omega
            if nxt == t:
                break
            nodes.append(nxt)
        return nodes

    def node(self, n: int) -> float:
        """t[n], the n-fold sigma iterate of the seed."""
        nodes = self.grow(self.q, self.omega, self.nodes, n)
        return nodes[min(n, len(nodes) - 1)]

    def cap(self, m: int) -> int:
        """min(m, cap): realizes nodes through that index, values none."""
        m = min(m, self._grid_depth)
        nodes = self.nodes
        if len(nodes) <= m:
            self.grow(self.q, self.omega, nodes, m)
        return min(m, len(nodes) - 1)

    def trail(self) -> Iterator[float]:
        """t[0], t[1], ... through the cap, one C-level iterator over runs of
        realized nodes: past the last run, at node n, it asks ``grow`` for
        index min(2n, grid depth), so a reader pays one call per doubling
        and realizes no node past a grid's depth."""
        nodes, depth = self.nodes, self._grid_depth

        def runs() -> Iterator[list[float]]:
            n = 0
            while n <= depth:
                run = nodes[n : min(len(nodes), depth + 1)]
                yield run
                n += len(run)
                if n > depth or n == len(self.grow(self.q, self.omega, nodes, min(2 * n, depth))):
                    return

        return chain.from_iterable(runs())

    def walk(self) -> Iterator[tuple[float, float]]:
        """(t[n], value[n]) for n = 0, 1, ... through the cap, off ``trail``.
        Grid data streams through C-level iterators alone, the nodes zipped
        with the stored values; a function of t walks a generator that
        realizes each value when the walk gets to it, into ``values``, so
        walks and windows of one orbit share what any of them realized."""
        if self.source is None:
            return zip(self.trail(), self.values)
        return self._realizing()

    def _realizing(self) -> Iterator[tuple[float, float]]:
        vals, source = self.values, self.source
        for n, t in enumerate(self.trail()):
            if n == len(vals):
                vals.append(source(t))
            yield t, vals[n]

    def window(self, k: int, width: int) -> tuple[list[float], list[float]]:
        """Nodes and values at indices k .. k + width - 1.  A window past
        the grid depth raises InsufficientDepth, one past a merge (a zero
        step) DegenerateDenominator.  Values from a function of t not yet
        realized through k are evaluated on the window alone, so a deep
        window costs width calls, and the dense prefix is left unfilled;
        otherwise ``values`` is filled through the window's end."""
        end = k + width - 1
        if end > self._grid_depth:
            raise InsufficientDepth(f"orbit index {end} exceeds grid depth {self._grid_depth}")
        if len(self.grow(self.q, self.omega, self.nodes, end)) <= end:
            raise DegenerateDenominator(f"orbit step underflowed to zero near t={self.nodes[-1]!r}")
        source, vals = self.source, self.values
        if source is not None:
            if len(vals) < k:
                return self.nodes[k : end + 1], [source(t) for t in self.nodes[k : end + 1]]
            vals += [source(t) for t in self.nodes[len(vals) : end + 1]]
        return self.nodes[k : end + 1], vals[k : end + 1]


class Origin(enum.Enum):
    """Which seed a lattice point's orbit starts from."""

    A = "a"
    B = "b"
    FIXED = "omega0"


class LatticePoint(Frozen):
    """Integer identity of a lattice point: n-th sigma-iterate of the origin seed.

    ``el_report`` keys a dict with one per residual, so construction,
    hashing and == are written out rather than inherited."""

    origin: Origin
    n: int

    def __init__(self, origin: Origin, n: int) -> None:
        if n < 0:
            raise ValueError("lattice index n must be non-negative")
        if origin is Origin.FIXED and n != 0:
            raise ValueError("the fixed point has index 0")
        fields = self.__dict__
        fields["origin"] = origin
        fields["n"] = n

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.origin == other.origin and self.n == other.n
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.origin, self.n))

    def advanced(self, k: int = 1) -> "LatticePoint":
        """Point k sigma-steps deeper along the same orbit (omega0 is a fixed point)."""
        if self.origin is Origin.FIXED:
            return self
        return LatticePoint(self.origin, self.n + k)


OMEGA0_POINT = LatticePoint(Origin.FIXED, 0)


class Lattice(Frozen):
    """Finite two-orbit lattice over a working interval.

    Holds the orbit of ``a`` and the orbit of ``b`` up to ``depth``
    sigma-steps, plus the fixed point omega0.  The working interval is
    the convex hull of {a, b, omega0}; orbits can only leave [a, b] by
    heading toward omega0.
    """

    params: HahnParams
    a: float
    b: float
    depth: int

    def __init__(self, params: HahnParams, a: float, b: float, depth: int = DEFAULT_DEPTH) -> None:
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError("endpoints must be finite")
        if not a < b:
            raise ValueError(f"need a < b, got a={a!r}, b={b!r}")
        if depth < 1:
            raise ValueError("depth must be at least 1")
        self.__dict__.update(params=params, a=a, b=b, depth=depth)

    def seed(self, origin: Origin) -> float:
        if origin is Origin.A:
            return self.a
        if origin is Origin.B:
            return self.b
        return self.params.omega0

    def orbit_degenerate(self, origin: Origin) -> bool:
        """True when the orbit seed coincides with omega0, collapsing the orbit.

        Detected through the exact vanishing of the prefactor
        s*(1-q) - omega rather than a float comparison against omega0.
        """
        return origin is Origin.FIXED or self._orbits[origin].degenerate

    @cached_property
    def _orbits(self) -> dict[Origin, Orbit]:
        q, omega = self.params.q, self.params.omega
        return {origin: Orbit(q, omega, self.seed(origin)) for origin in (Origin.A, Origin.B)}

    def realize(self, point: LatticePoint) -> float:
        """Float coordinate of a lattice point: sigma^n applied to its seed."""
        if point.origin is Origin.FIXED:
            return self.params.omega0
        if point.n > self.depth:
            raise InsufficientDepth(
                f"point index {point.n} exceeds lattice depth {self.depth}"
            )
        return self._orbits[point.origin].node(point.n)

    def interval(self) -> tuple[float, float]:
        """Convex hull of {a, b, omega0}."""
        w0 = self.params.omega0
        return min(self.a, self.b, w0), max(self.a, self.b, w0)

    def points(self) -> Iterator[LatticePoint]:
        """All points: both orbits to full depth, then the fixed point."""
        for origin in (Origin.A, Origin.B):
            for n in range(self.depth + 1):
                yield LatticePoint(origin, n)
        yield OMEGA0_POINT

    def size(self) -> int:
        return 2 * (self.depth + 1) + 1


class GridFunction(Record):
    """Real values attached to every point of a lattice.

    Orbit values are stored as dense per-orbit lists indexed by n; the
    fixed point carries its own value.  Instances are treated as
    immutable once built: derived grids are produced by ``sample``,
    ``axpy`` or ``replace_value``, never by in-place mutation.
    """

    lattice: Lattice
    values_a: list[float]
    values_b: list[float]
    value_at_fixed: float

    def __init__(self, lattice: Lattice, values_a: list[float], values_b: list[float],
                 value_at_fixed: float) -> None:
        self.lattice = lattice
        self.values_a = values_a
        self.values_b = values_b
        self.value_at_fixed = value_at_fixed
        want = lattice.depth + 1
        if len(values_a) != want or len(values_b) != want:
            raise ValueError(f"need {want} values per orbit, got {len(values_a)}/{len(values_b)}")
        for v in values_a:
            _require_finite(v)
        for v in values_b:
            _require_finite(v)
        _require_finite(value_at_fixed)

    @classmethod
    def sample(cls, lattice: Lattice, fn: Callable[[float], float]) -> "GridFunction":
        """Attach fn's values at every realized lattice point."""
        va, vb = (
            [fn(orbit.node(n)) for n in range(lattice.depth + 1)]
            for orbit in (lattice._orbits[Origin.A], lattice._orbits[Origin.B])
        )
        return cls(lattice, va, vb, fn(lattice.params.omega0))

    def orbit_values(self, origin: Origin) -> list[float]:
        if origin is Origin.A:
            return self.values_a
        if origin is Origin.B:
            return self.values_b
        raise ValueError("the fixed point is not an orbit")

    def orbit(self, origin: Origin) -> Orbit:
        """The endpoint orbit of ``origin`` carrying this grid's values."""
        lat = self.lattice
        return Orbit(lat.params.q, lat.params.omega, lat.seed(origin), self.orbit_values(origin))

    def value(self, point: LatticePoint) -> float:
        if point.origin is Origin.FIXED:
            return self.value_at_fixed
        if point.n > self.lattice.depth:
            raise InsufficientDepth(
                f"point index {point.n} exceeds lattice depth {self.lattice.depth}"
            )
        return self.orbit_values(point.origin)[point.n]

    def axpy(self, coeff: float, other: "GridFunction") -> "GridFunction":
        """Pointwise self + coeff*other on the shared lattice."""
        if other.lattice != self.lattice:
            raise ValueError("grid functions live on different lattices")
        return GridFunction(
            self.lattice,
            [x + coeff * y for x, y in zip(self.values_a, other.values_a)],
            [x + coeff * y for x, y in zip(self.values_b, other.values_b)],
            self.value_at_fixed + coeff * other.value_at_fixed,
        )

    def replace_value(self, point: LatticePoint, value: float) -> "GridFunction":
        """Copy with one value replaced."""
        _require_finite(value)
        va, vb, vf = list(self.values_a), list(self.values_b), self.value_at_fixed
        if point.origin is Origin.FIXED:
            vf = value
        elif point.origin is Origin.A:
            va[point.n] = value
        else:
            vb[point.n] = value
        return GridFunction(self.lattice, va, vb, vf)


def _require_finite(v: float) -> None:
    if not math.isfinite(v):
        raise NonFiniteValue(f"grid value {v!r} is not finite")
