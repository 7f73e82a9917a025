"""Variational calculus on q-omega lattices.

Derivatives and integrals built from the difference quotient
(f(q*t + omega) - f(t)) / ((q - 1)*t + omega), plus higher-order
fixed-endpoint variational problems over them: functional evaluation,
first variations, Euler-Lagrange residual checks, limit-case (pure
dilation / pure shift) residuals, and a direct lattice minimizer.

Importing the package imports none of its modules.  A public name, or a
module such as ``hahnvar.variational``, imports its module on first use
(PEP 562), so ``from hahnvar import integral`` never loads the minimizer.
Once a module is imported, by any route, its public names are bound here.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# Each public name, under the module that defines it.
_EXPORTS = {
    "core": (
        "DEFAULT_DEPTH",
        "DEFAULT_MAX_TERMS",
        "DEFAULT_TOL",
        "GridFunction",
        "HahnParams",
        "Lattice",
        "LatticePoint",
        "OMEGA0_POINT",
        "Origin",
        "q_bracket",
        "sigma_pow",
    ),
    "dsl": ("Expr", "Lagrangian", "compile_lagrangian", "evaluate", "parse", "to_string"),
    "errors": (
        "ArityError",
        "ConfigError",
        "DegenerateDenominator",
        "DomainError",
        "ExprSyntaxError",
        "HahnvarError",
        "InsufficientDepth",
        "NonFiniteValue",
        "NotAVariation",
        "NotDifferentiable",
        "UnboundVariable",
        "UnknownIdentifier",
    ),
    "integrals": (
        "SeriesResult",
        "integral",
        "integral_from_fixed",
        "jackson_q_integral",
        "norlund_sum",
        "sigma_cell_integral",
    ),
    "minimize": ("MinimizeResult", "minimize_direct"),
    "operators": (
        "forward_h_difference",
        "grid_derivative_at_fixed",
        "hahn_derivative",
        "hahn_derivative_n",
        "iterated_quotient",
        "jackson_q_derivative",
        "norm_r_inf",
    ),
    "variational": (
        "BoundaryViolation",
        "ElReport",
        "Problem",
        "el_report",
        "el_residual",
        "first_variation",
        "first_variation_fd",
        "functional_value",
        "h_el_residual",
        "is_admissible",
        "is_variation",
        "materialize",
        "q_el_residual",
        "trajectory",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


class _Package(types.ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # The import system binds each module it loads here by name; its
        # names follow, so vars(hahnvar) holds them as an eager import would.
        super().__setattr__(name, value)
        for export in _EXPORTS.get(name, ()):
            super().__setattr__(export, getattr(value, export))


sys.modules[__name__].__class__ = _Package


def __getattr__(name: str):
    module = name if name in _EXPORTS else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    importlib.import_module(f"{__name__}.{module}")
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
