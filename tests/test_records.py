"""The package's value classes behave as dataclasses of their fields: repr
text, == and hash, refused assignment when frozen, field order in vars(),
pickles and copies, and a constructor that takes the fields by position or
by name."""

import copy
import pickle

import pytest

from hahnvar import (
    BoundaryViolation,
    ElReport,
    GridFunction,
    HahnParams,
    Lagrangian,
    Lattice,
    LatticePoint,
    MinimizeResult,
    Origin,
    Problem,
    parse,
)
from hahnvar.core import Frozen
from hahnvar.dsl import BinOp, Call, Neg, Number, Var

_PARAMS = "HahnParams(q=0.5, omega=0.25)"
_LATTICE = f"Lattice(params={_PARAMS}, a=-1.0, b=1.0, depth=2)"
_GRID = (f"GridFunction(lattice={_LATTICE}, values_a=[1.0, 2.0, 3.0], values_b=[4.0, 5.0, 6.0], "
         "value_at_fixed=0.5)")


def _lattice():
    return Lattice(HahnParams(0.5, 0.25), -1.0, 1.0, 2)


def _grid():
    return GridFunction(_lattice(), [1.0, 2.0, 3.0], [4.0, 5.0, 6.0], 0.5)


# Each class: a builder of one instance, its repr and whether it is frozen.
CASES = [
    pytest.param(lambda: HahnParams(0.5, 0.25), _PARAMS, True, id="HahnParams"),
    pytest.param(lambda: LatticePoint(Origin.B, 3), "LatticePoint(origin=<Origin.B: 'b'>, n=3)",
                 True, id="LatticePoint"),
    pytest.param(_lattice, _LATTICE, True, id="Lattice"),
    pytest.param(_grid, _GRID, False, id="GridFunction"),
    pytest.param(lambda: Number(2.0), "Number(value=2.0)", True, id="Number"),
    pytest.param(lambda: Var("u0"), "Var(name='u0')", True, id="Var"),
    pytest.param(lambda: Neg(Var("t")), "Neg(operand=Var(name='t'))", True, id="Neg"),
    pytest.param(lambda: BinOp("*", Number(0.5), Var("u1")),
                 "BinOp(op='*', left=Number(value=0.5), right=Var(name='u1'))", True, id="BinOp"),
    pytest.param(lambda: Call("sin", Var("t")), "Call(fn='sin', operand=Var(name='t'))", True,
                 id="Call"),
    pytest.param(lambda: Lagrangian(parse("u1^2"), 1),
                 "Lagrangian(expr=BinOp(op='^', left=Var(name='u1'), right=Number(value=2.0)), "
                 "order=1)", False, id="Lagrangian"),
    pytest.param(lambda: BoundaryViolation("a", 1, 0.5, 0.25, 0.25),
                 "BoundaryViolation(endpoint='a', index=1, actual=0.5, target=0.25, error=0.25)",
                 True, id="BoundaryViolation"),
    pytest.param(lambda: ElReport({LatticePoint(Origin.A, 0): 0.0}, 0.0, [], 0, False, None, 1e-9,
                                  True),
                 "ElReport(residuals={LatticePoint(origin=<Origin.A: 'a'>, n=0): 0.0}, "
                 "max_abs_residual=0.0, boundary_violations=[], depth_used=0, "
                 "omega0_included=False, omega0_residual=None, tol=1e-09, passed=True)",
                 False, id="ElReport"),
    pytest.param(lambda: MinimizeResult(_grid(), 0.5, 0.5, [1.0, 0.5], True, 1, 0.0, 0.0),
                 f"MinimizeResult(grid={_GRID}, objective=0.5, functional=0.5, history=[1.0, 0.5], "
                 "converged=True, iterations=1, boundary_violation_norm=0.0, penalty_weight=0.0)",
                 False, id="MinimizeResult"),
]


@pytest.mark.parametrize("build, text, frozen", CASES)
def test_a_value_class_acts_as_the_dataclass_of_its_fields(build, text, frozen):
    obj, twin = build(), build()
    assert repr(obj) == text
    # vars() holds the fields, in the repr's order.
    fields = ", ".join(f"{name}={value!r}" for name, value in vars(obj).items())
    assert text == f"{type(obj).__name__}({fields})"
    assert obj == twin and not obj != twin and obj is not twin
    assert obj.__eq__(text) is NotImplemented and obj != text
    for clone in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert clone == obj and repr(clone) == text
    first = next(iter(vars(obj)))
    if frozen:
        assert hash(obj) == hash(twin) == hash(tuple(vars(obj).values()))
        with pytest.raises(AttributeError, match=f"cannot assign to field '{first}'"):
            setattr(obj, first, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{first}'"):
            delattr(obj, first)
        assert repr(obj) == text
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(obj)
        setattr(obj, first, None)
        assert obj != twin


def test_boundary_violations_list_their_fields_in_order():
    # The CLI renders each violation as vars(v), so this order is its column order.
    violation = BoundaryViolation("b", 0, 1.0, 2.0, 1.0)
    assert list(vars(violation)) == ["endpoint", "index", "actual", "target", "error"]
    assert BoundaryViolation(endpoint="b", index=0, actual=1.0, target=2.0, error=1.0) == violation


def test_cached_properties_stay_out_of_the_fields():
    params, lattice = HahnParams(0.5, 0.25), _lattice()
    assert params.omega0 == 0.5 and lattice.realize(LatticePoint(Origin.A, 1)) == -0.25
    assert repr(params) == _PARAMS and repr(lattice) == _LATTICE
    assert params == HahnParams(0.5, 0.25) and lattice == _lattice()
    assert hash(lattice) == hash(_lattice())


def _problem():
    return Problem(HahnParams(0.5, 0.25), 1, -1.0, 1.0, [0], (1,), "u1^2")


_PROBLEM = (f"Problem(params={_PARAMS}, r=1, a=-1.0, b=1.0, alpha=(0.0,), beta=(1.0,), "
            "lagrangian=Lagrangian(expr=BinOp(op='^', left=Var(name='u1'), "
            "right=Number(value=2.0)), order=1))")


def test_a_problem_is_a_frozen_record_with_an_unhashable_field():
    obj, twin = _problem(), _problem()
    assert isinstance(obj, Frozen)
    assert repr(obj) == _PROBLEM
    assert list(vars(obj)) == ["params", "r", "a", "b", "alpha", "beta", "lagrangian"]
    assert obj == twin and not obj != twin and obj is not twin
    assert obj.__eq__(_PROBLEM) is NotImplemented and obj != _PROBLEM
    for clone in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert clone == obj and repr(clone) == _PROBLEM
    with pytest.raises(AttributeError, match="cannot assign to field 'r'"):
        obj.r = 2
    with pytest.raises(TypeError, match="unhashable type: 'Lagrangian'"):
        hash(obj)
    assert repr(obj) == _PROBLEM


# Each class with the generic constructor, and Problem, which writes its
# own: its field values in order.
FIELDS = [
    pytest.param(BoundaryViolation, ("a", 1, 0.5, 0.25, 0.25), id="BoundaryViolation"),
    pytest.param(ElReport, ({LatticePoint(Origin.A, 0): 0.0}, 0.0, [], 0, False, None, 1e-9, True),
                 id="ElReport"),
    pytest.param(MinimizeResult, (_grid(), 0.5, 0.5, [1.0, 0.5], True, 1, 0.0, 0.0),
                 id="MinimizeResult"),
    pytest.param(Problem, (HahnParams(0.5, 0.25), 1, -1.0, 1.0, (0.0,), (1.0,),
                           Lagrangian(parse("u1^2"), 1)), id="Problem"),
]


@pytest.mark.parametrize("cls, values", FIELDS)
def test_a_record_takes_its_fields_by_position_or_by_name(cls, values):
    obj = cls(*values)
    names = list(vars(obj))
    assert list(vars(obj).values()) == list(values)
    assert cls(**dict(zip(names, values))) == obj
    assert cls(*values[:2], **dict(zip(names[2:], values[2:]))) == obj
    assert cls(**dict(zip(reversed(names), reversed(values)))) == obj


@pytest.mark.parametrize("cls, values", FIELDS)
def test_a_record_refuses_a_missing_repeated_or_unknown_field(cls, values):
    names = list(vars(cls(*values)))
    without_second = {k: v for k, v in zip(names, values) if k != names[1]}
    # Each wrong call, with what its message names after the class.
    wrong = [
        (lambda: cls(*values[:-1]), repr(names[-1])),  # missing, by position
        (lambda: cls(**without_second), repr(names[1])),  # missing, by name
        (lambda: cls(*values, **{names[0]: values[0]}), repr(names[0])),  # repeated
        (lambda: cls(*values, values[-1]), "were given"),  # one too many
        (lambda: cls(*values, nope=1), "'nope'"),  # unknown
        (lambda: cls(*values[:-1], nope=values[-1]), "'nope'"),  # unknown for a missing one
    ]
    for build, named in wrong:
        with pytest.raises(TypeError, match=f"^{cls.__name__}.*{named}"):
            build()
