"""Exception types shared across the package.

Numerical non-convergence is deliberately *not* an exception: series
routines report it through ``SeriesResult.converged`` so that partial
values stay inspectable.  Everything raised here signals a structural
problem with the inputs.
"""

from __future__ import annotations


class HahnvarError(Exception):
    """Base class for all errors raised by this package."""


class NonFiniteValue(HahnvarError):
    """A sampled function returned NaN or an infinity."""


class DegenerateDenominator(HahnvarError):
    """(q - 1)*t + omega vanished at a point not identified as omega0."""


class InsufficientDepth(HahnvarError):
    """A lattice stencil or series ran past the available orbit depth."""


class ExprSyntaxError(HahnvarError):
    """Parse failure; carries the offset and the token kinds expected there."""

    def __init__(self, position: int, expected: set[str], found: str = ""):
        self.position = position
        self.expected = set(expected)
        self.found = found
        what = f", found {found!r}" if found else ""
        super().__init__(
            f"syntax error at position {position}: expected "
            f"{' or '.join(sorted(self.expected))}{what}"
        )


class UnknownIdentifier(HahnvarError):
    """An identifier that is neither a variable (t, u0..u9) nor a known function."""

    def __init__(self, name: str, position: int = -1):
        self.name = name
        self.position = position
        super().__init__(f"unknown identifier {name!r}")


class DomainError(HahnvarError):
    """Evaluation left the real domain (log of a non-positive value, 0-division, ...)."""


class UnboundVariable(HahnvarError):
    """An expression referenced a variable missing from the bindings."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unbound variable {name!r}")


class NotDifferentiable(HahnvarError):
    """A partial has no finite value where the expression is defined (abs or sqrt at 0)."""


class ArityError(HahnvarError):
    """A Lagrangian expression used a slot index above the declared order."""


class NotAVariation(HahnvarError):
    """A perturbation failed the zero-boundary requirements for variations."""


class ConfigError(HahnvarError):
    """A run configuration violated the documented schema."""
