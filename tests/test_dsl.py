"""Expression language: parsing, printing, evaluation, symbolic partials."""

import copy
import gc
import math
import pickle
import random
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from hahnvar import (
    ArityError,
    DomainError,
    ExprSyntaxError,
    HahnvarError,
    Lagrangian,
    NotDifferentiable,
    UnboundVariable,
    UnknownIdentifier,
    compile_lagrangian,
    evaluate,
    parse,
    to_string,
)
from hahnvar import dsl
from hahnvar.dsl import (
    FUNCTIONS,
    MAX_NESTING,
    BinOp,
    Call,
    Neg,
    Number,
    _emit,
    _walk_eval,
    _walks,
    derivative,
    function_of_t,
    partial_eval,
)

PRODUCT_SRC = "(u0 + 0.5)^2 * (u1^2 - 1)^2"

# printing must survive one round trip unchanged and preserve values
CORPUS = [
    "t",
    "u0",
    "u9",
    "3",
    "3.5",
    "1e-3",
    "2.5e2",
    "-t",
    "- t + 1",
    "t + u0",
    "t - u0 - u1",
    "t*u0 + u1/u2",
    "t * (u0 + u1)",
    "(t + 1) * (t - 1)",
    "t^2",
    "t^2^3",
    "(t^2)^3",
    "-u0^2",
    "-(u0^2)",
    "t / (1 + t^2)",
    "sin(t)",
    "cos(t) + sin(u0)",
    "exp(-t)",
    "exp(t*u0)",
    "ln(1 + t^2)",
    "sqrt(1 + u0^2)",
    "abs(t - 1) + 1",
    "sin(cos(t))",
    "u0*u1*u2",
    "u0 + u1 + u2 + u3",
    "0.5*u1^2 + 0.2*u0^2 + 0.1*t*u0",
    PRODUCT_SRC,
    "(u0 - u1)^3",
    "1/(2 + sin(t))",
    "t^2 - 2*t + 1",
    "u1^2/2",
    "(t + u0)^2 / (1 + u1^2)",
    "sqrt(exp(t))",
    "ln(exp(t) + 1)",
    "abs(u0) + abs(u1)",
    "2*3 + 4*5",
    "2*(3 + 4)*5",
    "t - (u0 - u1)",
    "t - u0 + u1",
    "t / (2 + u0^2) / (2 + u1^2)",
    "-sin(t)",
    "sin(-t)",
    "((t))",
    "u0^2*u1 + u1^2*u0",
    "3.25e-1*t^3",
    "(1 + t)^3",
    "cos(t)^2 + sin(t)^2",
    "exp(ln(2 + t^2))",
    "sqrt(t^2 + 1) - 1",
]


def test_corpus_is_large_enough():
    assert len(CORPUS) >= 50


@pytest.mark.parametrize("src", CORPUS)
def test_round_trip_preserves_tree(src):
    tree = parse(src)
    printed = to_string(tree)
    assert parse(printed) == tree
    assert to_string(parse(printed)) == printed


@pytest.mark.parametrize("src", CORPUS)
def test_round_trip_preserves_values(src):
    rng = random.Random(hash(src) & 0xFFFF)
    tree = parse(src)
    reparsed = parse(to_string(tree))
    for _ in range(5):
        env = {"t": rng.uniform(0.1, 2.0)}
        env.update({f"u{i}": rng.uniform(0.1, 2.0) for i in range(10)})
        assert evaluate(tree, env) == evaluate(reparsed, env)


def test_syntax_error_reports_position():
    with pytest.raises(ExprSyntaxError, match="position 3"):
        parse("(u2")
    with pytest.raises(ExprSyntaxError):
        parse("")
    with pytest.raises(ExprSyntaxError):
        parse("2 +* 3")
    with pytest.raises(ExprSyntaxError, match="position 3: .* found '\\$'"):
        parse("u0 $ 1")
    with pytest.raises(ExprSyntaxError, match="position 2: expected end of input or operator"):
        parse("1 2")
    with pytest.raises(ExprSyntaxError, match="position 4: expected finite number, found '1e999'"):
        parse("2 + 1e999")


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifier):
        parse("foo(t)")
    with pytest.raises(UnknownIdentifier):
        parse("u0 + velocity")


def test_product_form_parses_to_top_level_multiply():
    tree = parse(PRODUCT_SRC)
    assert isinstance(tree, BinOp) and tree.op == "*"


def test_product_form_values():
    tree = parse(PRODUCT_SRC)
    # zeros of either factor, plus the hand value (0.5)^2 * (-1)^2
    assert evaluate(tree, {"u0": -0.5, "u1": 7.0}) == 0.0
    assert evaluate(tree, {"u0": 3.0, "u1": 1.0}) == 0.0
    assert evaluate(tree, {"u0": 0.0, "u1": 0.0}) == 0.25


def test_power_is_right_associative():
    tree = parse("2^3^2")
    assert isinstance(tree.right, BinOp) and tree.right.op == "^"
    # the composite exponent goes through exp(g ln f), hence approx
    assert evaluate(tree, {}) == pytest.approx(512.0, rel=1e-12)
    assert evaluate(parse("(2^3)^2"), {}) == 64.0


def test_unary_minus_binds_tighter_than_power():
    assert evaluate(parse("-u0^2"), {"u0": 3.0}) == 9.0
    assert evaluate(parse("-(u0^2)"), {"u0": 3.0}) == -9.0


def test_functions_match_math():
    env = {"t": 0.7}
    for name, fn in [
        ("sin", math.sin),
        ("cos", math.cos),
        ("exp", math.exp),
        ("ln", math.log),
        ("sqrt", math.sqrt),
        ("abs", abs),
    ]:
        assert evaluate(parse(f"{name}(t)"), env) == fn(0.7)


def test_evaluate_domain_errors():
    with pytest.raises(DomainError):
        evaluate(parse("ln(t)"), {"t": -1.0})
    with pytest.raises(DomainError):
        evaluate(parse("sqrt(t)"), {"t": -4.0})
    with pytest.raises(DomainError):
        evaluate(parse("1/t"), {"t": 0.0})
    with pytest.raises(DomainError):
        evaluate(parse("t^0.5"), {"t": -4.0})
    with pytest.raises(DomainError, match="overflows"):
        evaluate(parse("exp(u0)"), {"u0": 1000.0})


def test_unbound_variable():
    with pytest.raises(UnboundVariable):
        evaluate(parse("u3 + 1"), {"t": 0.0})


def test_partial_simple_square():
    assert partial_eval(parse("u0^2"), {"u0": 3.0}, "u0") == 6.0


def test_partial_product_form_hand_values():
    tree = parse(PRODUCT_SRC)
    # 2(u0+1/2)^2 (u1^2-1) 2u1 = 2*1*3*4 at (0.5, 2)
    assert partial_eval(tree, {"u0": 0.5, "u1": 2.0}, "u1") == pytest.approx(24.0, abs=1e-12)
    assert partial_eval(tree, {"u0": 0.0, "u1": 0.0}, "u1") == 0.0


def test_partial_not_differentiable_at_kink():
    with pytest.raises(NotDifferentiable):
        partial_eval(parse("abs(u0)"), {"u0": 0.0}, "u0")
    assert partial_eval(parse("abs(u0)"), {"u0": -2.0}, "u0") == -1.0


@pytest.mark.parametrize(
    "src",
    [s for s in CORPUS if "abs" not in s],
)
def test_partials_match_central_differences(src):
    tree = parse(src)
    rng = random.Random(len(src))
    for var in ("t", "u0", "u1"):
        env = {"t": rng.uniform(0.2, 1.5)}
        env.update({f"u{i}": rng.uniform(0.2, 1.5) for i in range(10)})
        ad = partial_eval(tree, env, var)
        h = 1e-6
        hi = dict(env, **{var: env[var] + h})
        lo = dict(env, **{var: env[var] - h})
        fd = (evaluate(tree, hi) - evaluate(tree, lo)) / (2 * h)
        assert ad == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_lagrangian_slot_arity_checked():
    with pytest.raises(ArityError):
        compile_lagrangian("u2 + t", 1)
    with pytest.raises(ArityError):
        compile_lagrangian("u0", 0)
    L = compile_lagrangian("u1^2/2", 1)
    with pytest.raises(ArityError):
        L.partial(2, 0.0, (0.0, 0.0))
    # Built directly, a Lagrangian is checked too.
    with pytest.raises(ArityError, match="uses slot u5 but the order is 1"):
        Lagrangian(parse("u5 + u0"), 1)
    # A window of another length than r + 1 is refused, not cut short or left unbound.
    L = compile_lagrangian("u1^2 + u0", 1)
    for us in ((1.0,), (1.0, 2.0, 3.0)):
        for call in (L.value, L.gradient, L.derivatives, lambda t, window: L.partial(0, t, window)):
            with pytest.raises(ArityError, match=f"order 1 takes 2 slot values, got {len(us)}"):
                call(0.0, us)


def test_lagrangian_fast_path_matches_walker():
    for src in ("0.5*u1^2 + 0.2*u0^2 + 0.1*t*u0", "u0^3 + u1^7 - 0.3*t^-2"):
        L = compile_lagrangian(src, 1)
        rng = random.Random(11)
        for _ in range(20):
            t, u0, u1 = (rng.uniform(-2, 2) for _ in range(3))
            assert L.value(t, (u0, u1)) == _walk_eval(L.expr, {"t": t, "u0": u0, "u1": u1})


_leaf = st.sampled_from([parse(s) for s in ("t", "u0", "u1", "2", "0.5")])


def _trees(depth):
    if depth == 0:
        return _leaf
    sub = _trees(depth - 1)
    return st.one_of(
        _leaf,
        st.builds(lambda a, b, op: BinOp(op, a, b), sub, sub, st.sampled_from("+-*/")),
        st.builds(lambda a, fn: parse(f"{fn}({to_string(a)})"), sub, st.sampled_from(FUNCTIONS)),
        st.builds(lambda a, k: parse(f"({to_string(a)})^{k}"), sub, st.integers(-3, 4)),
    )


@given(_trees(3))
def test_printing_round_trips_random_trees(tree):
    assert parse(to_string(tree)) == tree


def test_zero_base_under_negative_integer_exponent_is_a_domain_error():
    with pytest.raises(DomainError, match="division by zero"):
        evaluate(parse("t^-1"), {"t": 0.0})
    L = compile_lagrangian("u0^-1", 1)
    with pytest.raises(DomainError, match="division by zero"):
        L.value(0.0, (0.0, 1.0))
    with pytest.raises(DomainError, match="division by zero"):
        L.partial(0, 0.0, (0.0, 1.0))


def test_kink_in_a_term_free_of_the_slot_does_not_raise():
    # d(abs(t)*u0)/du0 = abs(t): the abs kink at t = 0 lies in a factor
    # that does not depend on u0, so the partial is 0 there.
    L = compile_lagrangian("abs(t)*u0", 1)
    assert L.partial(0, 0.0, (1.0, 2.0)) == 0.0
    assert partial_eval(L.expr, {"t": 0.0, "u0": 1.0}, "u0") == 0.0


def test_kinks_in_the_slot_raise_not_differentiable_on_both_paths():
    for src, slope_u1 in (("abs(u0)*u1", 0.0), ("sqrt(u0) + u1", 1.0)):
        L = compile_lagrangian(src, 1)
        with pytest.raises(NotDifferentiable):
            L.partial(0, 0.3, (0.0, 2.0))
        with pytest.raises(NotDifferentiable):
            partial_eval(L.expr, {"t": 0.3, "u0": 0.0, "u1": 2.0}, "u0")
        assert L.partial(1, 0.3, (0.0, 2.0)) == slope_u1


# Sources nested k levels deep, by kind of nesting.
_NESTINGS = {
    "brackets": lambda k: "(" * k + "u0*u1" + ")" * k,
    "minus": lambda k: "-" * k + "u0",
    "power": lambda k: "u0^" * k + "u1",
    "product": lambda k: "u0*(" * k + "u1" + ")" * k,
    "calls": lambda k: "u1/" + "sin(" * (k - 1) + "u0" + ")" * (k - 1),
    "sum": lambda k: "u0" + " + u1" * k,
}


@pytest.mark.parametrize("make", _NESTINGS.values(), ids=_NESTINGS.keys())
def test_nesting_past_the_bound_is_a_syntax_error(make):
    parse(make(MAX_NESTING))
    with pytest.raises(ExprSyntaxError, match="nesting"):
        parse(make(MAX_NESTING + 1))


@pytest.mark.parametrize("make", _NESTINGS.values(), ids=_NESTINGS.keys())
def test_trees_at_the_nesting_bound_evaluate_with_their_partials(make):
    # Partials nest deeper than their source: Python's compiler refuses
    # those of the power tower, and the checked walk serves them.
    L = compile_lagrangian(make(MAX_NESTING), 1)
    t, us = 0.3, (1.1, 0.95)
    env = {"t": t, "u0": us[0], "u1": us[1]}
    assert L.value(t, us) == _walk_eval(L.expr, env)
    for i in (0, 1):
        assert L.partial(i, t, us) == partial_eval(L.expr, env, f"u{i}")


def test_value_takes_the_walk_where_python_cannot_compile():
    # Trees past Python's compiler, of two shapes and at several scales: all
    # get one template whose body always faults, so a value comes from the
    # checked walk and a fault raises through it every time.
    codes = set()
    for factor in ("u0", "1.5*u0", "2.5*u0"):
        tree = BinOp("/", parse("0.5*u1"), parse("u0"))
        for _ in range(3 * MAX_NESTING):
            tree = BinOp("*", parse(factor), tree)
        L = Lagrangian(tree, 1)
        codes.add(L._value.func.__code__)
        env = {"u0": 1.001, "u1": 2.0}
        assert L.value(0.0, (1.001, 2.0)) == _walk_eval(tree, env)
        assert L.partial(1, 0.0, (1.001, 2.0)) == partial_eval(tree, env, "u1")
        for _ in range(3):
            with pytest.raises(DomainError, match="division by zero"):
                L.value(0.0, (0.0, 1.0))
            with pytest.raises(DomainError, match="division by zero"):
                L.gradient(0.0, (0.0, 1.0))
    assert len(codes) == 1


def _outcome(fn, *args):
    """fn(*args), or the class of the package error it raises."""
    try:
        return fn(*args)
    except HahnvarError as exc:
        return type(exc)


_coord = st.floats(-2.0, 2.0)


@settings(deadline=None, max_examples=300)
@given(_trees(3), _coord, _coord, _coord)
def test_compiled_partials_agree_with_the_checked_walk(tree, t, u0, u1):
    L = compile_lagrangian(tree, 1)
    env = {"t": t, "u0": u0, "u1": u1}
    value = _outcome(L.value, t, (u0, u1))
    for i in (0, 1):
        fast = _outcome(L.partial, i, t, (u0, u1))
        slow = _outcome(partial_eval, tree, env, f"u{i}")
        if isinstance(value, type):
            assert fast is value
        if isinstance(fast, float) and isinstance(slow, float):
            assert fast == slow


@settings(deadline=None, max_examples=300)
@given(_trees(3), _coord, _coord, _coord)
def test_partial_is_the_gradients_entry_wherever_the_gradient_returns(tree, t, u0, u1):
    L = compile_lagrangian(tree, 1)
    grad = _outcome(L.gradient, t, (u0, u1))
    if isinstance(grad, tuple):
        assert tuple(L.partial(i, t, (u0, u1)) for i in (0, 1)) == grad


def _is_literal(e):
    return isinstance(e, Number) or isinstance(e, Neg) and isinstance(e.operand, Number)


def _literal_products(e):
    """Products of two literals (a negated literal counts) in the tree."""
    if isinstance(e, BinOp):
        here = e.op == "*" and _is_literal(e.left) and _is_literal(e.right)
        return here + _literal_products(e.left) + _literal_products(e.right)
    return _literal_products(e.operand) if isinstance(e, (Neg, Call)) else 0


def _unfolded_mul(a, b):
    if a == dsl._ZERO or b == dsl._ZERO:
        return dsl._ZERO
    return b if a == dsl._ONE else a if b == dsl._ONE else BinOp("*", a, b)


def test_slopes_fold_literal_products_and_keep_every_value(monkeypatch):
    rng, unfolded_products = random.Random(3), 0

    def c():
        return rng.choice(["2", "0.5", "3", "1.7", "-2.5", "0.1"])

    for _ in range(60):
        terms = [f"{c()}*({c()}*u{rng.randint(0, 2)} + {c()}*t)^{rng.randint(2, 4)}",
                 f"{c()}*sin({c()}*u{rng.randint(0, 2)})*exp({c()}*u{rng.randint(0, 2)})"]
        L = compile_lagrangian(" + ".join(terms), 2)
        folded = L._derivatives.args[0][1:]
        assert sum(map(_literal_products, folded)) == 0
        with monkeypatch.context() as m:
            m.setattr(dsl, "_mul", _unfolded_mul)
            grad = [derivative(L.expr, u) for u in ("u0", "u1", "u2")]
            unfolded = grad + [derivative(g, u) for i, g in enumerate(grad)
                               for u in ("u0", "u1", "u2")[i:]]
        unfolded_products += sum(map(_literal_products, unfolded))
        for _ in range(10):
            env = dict(zip(("t", "u0", "u1", "u2"), (rng.uniform(-2, 2) for _ in range(4))))
            for a, b in zip(folded, unfolded):
                assert _outcome(evaluate, a, env) == _outcome(evaluate, b, env)
    assert unfolded_products >= 10


@pytest.mark.parametrize("source, product", [("(1e-200*u1)^2", (2e-200, 1e-200)),
                                             ("(1e200*u1)^2", (2e200, 1e200))])
def test_a_literal_product_that_underflows_or_overflows_stays_and_raises(source, product):
    second = compile_lagrangian(source, 1)._derivatives.args[0][-1]
    assert second == BinOp("*", *map(Number, product))
    with pytest.raises(DomainError, match="underflowed|overflowed"):
        _walk_eval(second, {})


_EPS = 2.0**-52


def _rounded(e, bindings):
    """The checked walk's value of e, with a first-order bound on its
    rounding error: each operation adds an ulp of its result to the error
    of its operands, carried through the operation's slope."""
    v = _walk_eval(e, bindings)
    if not isinstance(e, (Neg, Call, BinOp)):
        return v, 0.0  # a number or a variable is exact
    if isinstance(e, BinOp) and not (e.op == "^" and dsl.literal_int_exponent(e.right) is not None):
        a, ea = _rounded(e.left, bindings)
        b, eb = _rounded(e.right, bindings)
        if e.op in "+-":
            err = ea + eb
        elif e.op == "*":
            err = abs(b) * ea + abs(a) * eb
        elif e.op == "/":
            err = (ea + abs(v) * eb) / abs(b)
        else:  # a^b as exp(b ln a)
            err = abs(v) * (abs(b) * ea / a + abs(math.log(a)) * (eb + _EPS * abs(b)))
        err += _EPS * abs(v)
    else:
        a, ea = _rounded(e.left if isinstance(e, BinOp) else e.operand, bindings)
        fn = "^" if isinstance(e, BinOp) else getattr(e, "fn", "neg")
        if fn in ("neg", "abs"):
            slope = 1.0
        elif fn == "^":
            k = dsl.literal_int_exponent(e.right)
            slope = abs(k * v / a) if a != 0.0 else float(k == 1)
        elif fn in ("sin", "cos"):
            slope = abs(math.cos(a) if fn == "sin" else math.sin(a))
        elif fn == "exp":
            slope = v
        elif fn == "ln":
            slope = 1 / a
        else:  # sqrt
            slope = math.inf if v == 0.0 else 0.5 / v
        err = (slope * ea if ea else 0.0) + 2 * _EPS * abs(v)
    return v, math.inf if math.isnan(err) else err


def _smooth_tolerance(values, noise, h):
    """How far a derivative at x may be from the central difference of the
    values at x - 2h .. x + 2h, or None where they do not resolve it; noise
    bounds the rounding error of any one value."""
    lo2, lo, mid, hi, hi2 = values
    central = (hi - lo) / (2 * h)
    wide = (hi2 - lo2) / (4 * h)
    # rounding in the three values, plus a relative allowance for truncation
    tol = 1e-4 * (1.0 + abs(central)) + 1e-14 * max(abs(lo), abs(mid), abs(hi)) / h
    # The rounding error of a value is bounded by its operations, not its
    # size: (t + 0.5/u1) - (u0 + 0.5/u1) at u1 = 1e-8 is t - u0 only to
    # within 7e-9, and sin(1/u1) at u1 = 1e-27 is noise.
    if 2 * noise / h > tol:
        return None
    if abs((hi - mid) - (mid - lo)) / h > tol:
        return None  # a kink or a sharp bend inside the stencil
    # The truncation error of `central` is h^2/6 times the third derivative
    # and that of `wide` four times it, so their gap is three times the error
    # of `central`, as for (t + t/u1)^-3 = u1^3 / (t (1 + u1))^3 near u1 = 0
    # with small t: an odd cubic, whose second difference is 0 but whose
    # third derivative is 6/t^3.
    if abs(wide - central) > tol:
        return None
    # The curvature read at steps h and 2h must agree too.  This test has no
    # absolute floor, so it also sees a pole inside the stencil of a function
    # whose values are all far below tol, as for t/u1 with t = 1e-173 and
    # u1 = 5e-141: the four outer values are odd about the pole and pass the
    # tests above, while the centre value sits on it.
    curv = (hi - 2 * mid + lo) / h**2
    curv_wide = (hi2 - 2 * mid + lo2) / (2 * h) ** 2
    if abs(curv_wide - curv) > 1e-2 * (abs(curv) + abs(curv_wide)) + 8 * noise / h**2:
        return None
    return tol


@settings(deadline=None, max_examples=300)
@given(_trees(3), _coord, _coord, _coord, st.sampled_from((0, 1)))
def test_partials_match_central_differences_at_smooth_points(tree, t, u0, u1, i):
    L = compile_lagrangian(tree, 1)
    h = 1e-6

    def env(x):
        bindings = {"t": t, "u0": u0, "u1": u1}
        bindings[f"u{i}"] = x
        return bindings

    x = (u0, u1)[i]
    stencil = [env(x + k * h) for k in (-2, -1, 0, 1, 2)]
    nodes = {node for node, _ in dsl._walk(tree)}
    try:
        values = [L.value(b["t"], (b["u0"], b["u1"])) for b in stencil]
        fast = L.partial(i, t, (u0, u1))
        slow = partial_eval(tree, {"t": t, "u0": u0, "u1": u1}, f"u{i}")
        walked = {node: [_rounded(node, b) for b in stencil] for node in nodes}
    except HahnvarError:
        return  # not defined on the whole stencil
    # By the chain rule every subexpression must be smooth on the stencil,
    # not just the root: in 2 + t/sin(u0) at t = 4e-250, u0 = 2e-235 the pole
    # of t/sin(u0) moves the root's values by a few ulps only.
    for node in nodes - {tree}:
        node_values, node_noise = zip(*walked[node])
        if _smooth_tolerance(node_values, max(node_noise), h) is None:
            return
    tol = _smooth_tolerance(values, max(err for _, err in walked[tree]), h)
    if tol is None:
        return
    central = (values[3] - values[1]) / (2 * h)
    assert fast == slow
    assert abs(fast - central) <= tol


@pytest.mark.xfail(strict=True, reason="the symbolic slope loses its precision here (CHANGES.md FOUND)")
@pytest.mark.parametrize(
    "source, t, us, i",
    [
        # u0/(t*u0) = 1/t does not depend on u0.  The quotient rule's
        # numerator 1 - (u0/(t*u0))*t cancels to an ulp, which dividing by
        # t*u0 = 3e-284 turns into a slope of -6.4e267.
        ("sin(u0/(t*u0))", 1.78125, (1.6384655325909898e-284, 0.0), 0),
        ("ln(u1/(t*u1))", 1.192237222384376e-111, (0.0, 1.192237222384376e-111), 1),
        # The slopes 1 and -1 cancel to 0.0 in these two.  The property
        # skips the first, whose subexpression t/u0 has a pole inside the
        # stencil, and fails on the second.
        ("(t*u0)*(t + t/u0)", 1.0, (5.97e-56, 0.0), 0),
        ("u1/(sin(u1)*exp(u1))", 0.0, (0.0, 3.16e-135), 1),
        # u1*u1 = 1.3e-322 is subnormal, 26 times the smallest float: the
        # slope of u1 reads 1.0012.
        ("(u1*u1)/u1", 0.0, (0.0, 1.1340777288321272e-161), 1),
    ],
    ids=["removable-sin", "removable-ln", "cancel-product", "cancel-quotient", "subnormal"],
)
def test_partials_match_central_differences_where_the_slope_rounds_badly(source, t, us, i):
    L = compile_lagrangian(source, 1)
    h = 1e-6

    def at(x):
        shifted = list(us)
        shifted[i] = x
        return L.value(t, shifted)

    central = (at(us[i] + h) - at(us[i] - h)) / (2 * h)
    assert abs(L.partial(i, t, us) - central) <= 1e-4 * (1.0 + abs(central))


@pytest.mark.parametrize("source", ["1/(u0*u0)", "1e300/(u0*u0)"])
def test_an_overflow_divided_away_raises_on_every_path(source):
    # u0*u0 overflows at 1e200, which the checked walk refuses; dividing
    # by the infinity would give 0.0 (1e300/(u0*u0) is really 1e-100).
    L = compile_lagrangian(source, 1)
    us = (1e200, 0.0)
    with pytest.raises(DomainError, match="overflowed"):
        L.value(0.0, us)
    for i in (0, 1):
        with pytest.raises(DomainError, match="overflowed"):
            L.partial(i, 0.0, us)
    with pytest.raises(DomainError, match="overflowed"):
        L.derivatives(0.0, us)
    with pytest.raises(DomainError, match="overflowed"):
        function_of_t(parse(source.replace("u0", "t")))(1e200)


def test_only_operations_that_can_hide_an_infinity_are_checked():
    # Sums, products and positive powers keep an infinity to the final
    # check; divisors, non-positive powers and function arguments may not.
    for src in (PRODUCT_SRC, "0.3*t + 0.2*u0^2 - 0.1*u1 + 0.05*u0*u1", "-u0^3"):
        assert "_fin" not in _emit(parse(src))
    for src in ("u1/u0", "exp(u0)", "u0^-2", "u0^0", "u0^u1"):
        assert "_fin" in _emit(parse(src))


def test_derivatives_are_the_partials_and_second_partials():
    L = compile_lagrangian(PRODUCT_SRC, 1)
    t, us = 0.3, (0.7, -1.2)
    env = {"t": t, "u0": us[0], "u1": us[1]}
    grad, hess = L.derivatives(t, us)
    assert grad == [L.partial(i, t, us) for i in (0, 1)]
    for i in (0, 1):
        for j in (0, 1):
            second = _walk_eval(derivative(derivative(L.expr, f"u{i}"), f"u{j}"), env)
            assert hess[i][j] == pytest.approx(second, rel=1e-14)
    with pytest.raises(NotDifferentiable):
        compile_lagrangian("abs(u1) + u0", 1).derivatives(0.0, (1.0, 0.0))


@settings(deadline=None, max_examples=300)
@given(_trees(3), _coord, _coord, _coord)
def test_compiled_second_partials_agree_with_the_checked_walk(tree, t, u0, u1):
    L = compile_lagrangian(tree, 1)
    env = {"t": t, "u0": u0, "u1": u1}
    value = _outcome(L.value, t, (u0, u1))
    got = _outcome(L.derivatives, t, (u0, u1))
    if isinstance(value, type):
        assert got is value
    if isinstance(got, type):
        return
    grad, hess = got
    for i in (0, 1):
        assert grad[i] == partial_eval(tree, env, f"u{i}")
        for j in range(i, 2):
            assert hess[i][j] == hess[j][i] == _walk_eval(
                derivative(derivative(tree, f"u{i}"), f"u{j}"), env
            )


def _raised(fn, *args):
    """fn(*args), or the class and text of the package error it raises."""
    try:
        return fn(*args)
    except HahnvarError as exc:
        return type(exc), str(exc)


@settings(deadline=None, max_examples=300)
@given(_trees(3), _coord, _coord, _coord, st.sampled_from(("all", "extra", "missing")))
def test_evaluate_is_the_checked_walk_bit_for_bit(tree, t, u0, u1, names):
    # function_of_t joins with the tree's slots read as t, a tree in t alone.
    env = {"t": t, "u0": u0, "u1": u1}
    if names == "extra":
        env["u7"] = 1.5
    elif names == "missing":
        del env["u1"]
    in_t = parse(to_string(tree).replace("u0", "t").replace("u1", "t"))
    for got, walk in ((_raised(evaluate, tree, env), _raised(_walk_eval, tree, env)),
                      (_raised(function_of_t(in_t), t), _raised(_walk_eval, in_t, {"t": t}))):
        if isinstance(walk, tuple):
            assert got == walk
        else:
            assert isinstance(got, float) and got == walk and math.copysign(1.0, got) == math.copysign(1.0, walk)


def test_no_tree_or_lagrangian_forms_a_reference_cycle_with_its_code():
    # Each caches its compiled code; were that code to refer back to its
    # owner, only the cycle collector could free either.
    gc.disable()
    try:
        tree = parse("0.5*t^2 - sin(t)")
        evaluate(tree, {"t": 0.3})
        function_of_t(tree)(0.7)
        L = compile_lagrangian(parse("0.5*u1^2 + sin(u0)*t"), 1)
        L.value(0.2, (0.3, 0.4))
        L.gradient(0.2, (0.3, 0.4))
        L.derivatives(0.2, (0.3, 0.4))
        dsl._parsed.cache_clear()
        refs = weakref.ref(tree), weakref.ref(L)
        del tree, L
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def _cold():
    """Empty the source-text caches and the template cache, so the next parse
    or compile_lagrangian of any text builds its tree and code anew."""
    dsl._parsed.cache_clear()
    dsl._text_lagrangian.cache_clear()
    dsl._template.cache_clear()


def test_each_tree_compiles_once_and_fallbacks_compile_nothing(monkeypatch):
    _cold()
    compiles = []
    original = dsl._checked

    def counting(*args):
        compiles.append(args)
        return original(*args)

    monkeypatch.setattr(dsl, "_checked", counting)
    tree = parse("0.3*t^3 - 1.2*t^2 + 0.5*t + 2")
    for i in range(1000):
        evaluate(tree, {"t": i / 1000.0})
    assert len(compiles) == 1

    L = compile_lagrangian("1/u0 + u1^2", 1)
    assert L.value(0.0, (2.0, 1.0)) == 1.5
    assert L.partial(0, 0.0, (2.0, 1.0)) == -0.25
    before = len(compiles)
    for _ in range(3):
        with pytest.raises(DomainError):
            L.value(0.0, (0.0, 1.0))
        with pytest.raises(DomainError):
            L.partial(0, 0.0, (0.0, 1.0))
    assert len(compiles) == before


def test_an_evaluated_tree_still_pickles_and_copies():
    tree = parse("t^2 + sin(u0)")
    env = {"t": 2.0, "u0": 0.5}
    want = evaluate(tree, env)
    for clone in (pickle.loads(pickle.dumps(tree)), copy.deepcopy(tree)):
        assert clone == tree
        assert evaluate(clone, env) == want


def test_an_underflow_of_nonzero_operands_raises_on_every_path():
    # u0^3 flushes to 0.0 at 1.51e-150 although u0^3/sin(u0), about
    # 2.3e-300, is representable; read as 0 the quotient rule loses its
    # -g/u0^2 term and the slope reads 3 where the true one is 1.
    tree = parse("(u0^3/sin(u0))/u0")
    L = compile_lagrangian(tree, 1)
    us = (1.51e-150, 0.0)
    for call in (
        lambda: L.value(0.0, us),
        lambda: L.partial(0, 0.0, us),
        lambda: L.gradient(0.0, us),
        lambda: L.derivatives(0.0, us),
        lambda: evaluate(tree, {"t": 0.0, "u0": us[0], "u1": us[1]}),
        lambda: function_of_t(parse("(t^3/sin(t))/t"))(us[0]),
    ):
        with pytest.raises(DomainError, match="underflowed"):
            call()


@pytest.mark.parametrize("source, env", [
    ("u0*u1", {"u0": 1e-200, "u1": 1e-200}),
    ("0.5*u0", {"u0": 5e-324}),
    ("u0/u1", {"u0": 1e-300, "u1": 1e300}),
    ("u0^-2", {"u0": 1e200}),
    ("u0^3", {"u0": -1e-120}),
])
def test_each_underflowing_operation_raises_on_both_paths(source, env):
    tree = parse(source)
    with pytest.raises(DomainError, match="underflowed"):
        evaluate(tree, env)
    with pytest.raises(DomainError, match="underflowed"):
        _walk_eval(tree, env)


@pytest.mark.parametrize("source, env, want", [
    ("exp(u0)", {"u0": -1000.0}, 0.0),
    ("exp(u0)*u1", {"u0": -1000.0, "u1": 2.0}, 0.0),
    ("u0*u1", {"u0": 0.0, "u1": 1e-300}, 0.0),
    ("u0*u1", {"u0": -0.0, "u1": 3.0}, -0.0),
    ("u0/u1", {"u0": -0.0, "u1": 1e300}, -0.0),
    ("u0^2", {"u0": 0.0}, 0.0),
    ("u0*u1", {"u0": 1e-160, "u1": 1e-160}, 1e-160 * 1e-160),
    ("0.5*u0", {"u0": 1e-320}, 5e-321),
])
def test_true_zeros_and_subnormal_results_do_not_raise(source, env, want):
    # A zero operand, exp of a large negative number and a subnormal
    # (nonzero) result are not underflows to zero.
    tree = parse(source)
    for got in (evaluate(tree, env), _walk_eval(tree, env)):
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def test_gradient_is_one_compile_shared_with_every_partial(monkeypatch):
    _cold()
    compiles = []
    original = dsl._checked

    def counting(*args):
        compiles.append(args)
        return original(*args)

    monkeypatch.setattr(dsl, "_checked", counting)
    L = compile_lagrangian("u0^2*u1 + sin(u2)*u3 - t*u3^3", 3)
    us = (0.4, -1.3, 0.7, 2.1)
    partials = [L.partial(i, 0.2, us) for i in range(4)]
    assert len(compiles) == 1
    assert list(L.gradient(0.2, us)) == partials
    assert len(compiles) == 1


def test_a_kink_in_one_slot_raises_only_for_that_slot():
    L = compile_lagrangian("abs(u1) + u0^2", 1)
    us = (0.75, 0.0)
    assert L.partial(0, 0.3, us) == 1.5
    with pytest.raises(NotDifferentiable):
        L.partial(1, 0.3, us)
    with pytest.raises(NotDifferentiable):
        L.gradient(0.3, us)


@settings(deadline=None, max_examples=300)
@given(_trees(3), _coord, _coord, _coord)
def test_gradient_is_the_checked_walk_bit_for_bit(tree, t, u0, u1):
    L = compile_lagrangian(tree, 1)
    env = {"t": t, "u0": u0, "u1": u1}
    got = _outcome(L.gradient, t, (u0, u1))
    slow = [_outcome(partial_eval, tree, env, f"u{i}") for i in (0, 1)]
    if isinstance(got, type):
        assert got in [s for s in slow if isinstance(s, type)]
        return
    for fast, walk in zip(got, slow):
        assert isinstance(walk, float) and fast.hex() == walk.hex()


def test_a_used_lagrangian_pickles_and_copies():
    L = compile_lagrangian(PRODUCT_SRC, 1)
    t, us = 0.3, (0.7, -1.2)
    want = (L.value(t, us), L.gradient(t, us), L.derivatives(t, us))
    for clone in (pickle.loads(pickle.dumps(L)), copy.deepcopy(L)):
        assert clone == L
        assert (clone.value(t, us), clone.gradient(t, us), clone.derivatives(t, us)) == want


# ---------------------------------------------------------------------------
# Equal source texts share one tree and one Lagrangian
# ---------------------------------------------------------------------------

def test_equal_texts_share_one_tree_and_one_lagrangian():
    _cold()
    text = "u0^2*u1 + sin(t)*u2"
    assert parse(text) is parse(text)
    L = compile_lagrangian(text, 2)
    assert compile_lagrangian(text, 2) is L
    assert L.expr is parse(text)
    assert compile_lagrangian(text, 3) is not L
    assert compile_lagrangian(text, 3).expr is L.expr
    # A tree takes the uncached path: a Lagrangian of its own on every call.
    tree = parse(text)
    assert compile_lagrangian(tree, 2) is not compile_lagrangian(tree, 2)
    assert compile_lagrangian(tree, 2) == L


def test_a_shared_text_compiles_once_across_calls(monkeypatch):
    _cold()
    compiles = []
    original = dsl._checked

    def counting(*args):
        compiles.append(args)
        return original(*args)

    monkeypatch.setattr(dsl, "_checked", counting)
    for _ in range(3):
        assert evaluate(parse("t^2 - 3*t"), {"t": 2.0}) == -2.0
        assert function_of_t(parse("t^2 - 3*t"))(1.0) == -2.0
        L = compile_lagrangian(PRODUCT_SRC, 1)
        L.value(0.3, (0.7, -1.2))
        L.gradient(0.3, (0.7, -1.2))
        L.derivatives(0.3, (0.7, -1.2))
    # One code for the tree, and value, gradient and second-partial code for L.
    assert len(compiles) == 4


@pytest.mark.parametrize("source, error", [
    ("1 +", ExprSyntaxError), ("2*)", ExprSyntaxError), ("1e999", ExprSyntaxError),
    ("u10", UnknownIdentifier), ("sin t", UnknownIdentifier),
])
def test_a_faulty_text_raises_on_every_call(source, error):
    _cold()
    for _ in range(3):
        with pytest.raises(error):
            parse(source)
        with pytest.raises(error):
            compile_lagrangian(source, 1)


def test_a_bad_order_raises_on_every_call():
    _cold()
    for _ in range(3):
        with pytest.raises(ArityError, match="uses slot u2 but the order is 1"):
            compile_lagrangian("u2^2", 1)
        with pytest.raises(ArityError, match="between 1 and 9"):
            compile_lagrangian("u2^2", 0)
    assert compile_lagrangian("u2^2", 2).order == 2


def test_the_text_caches_hold_a_fixed_number_of_entries():
    _cold()
    first = parse("t + 0")
    for k in range(100):
        compile_lagrangian(f"u1^2 + {k}*t", 1)
    for cached in (dsl._parsed, dsl._text_lagrangian):
        info = cached.cache_info()
        assert info.currsize == info.maxsize == 32
    # An evicted text parses again to an equal, new tree.
    again = parse("t + 0")
    assert again == first and again is not first


# ---------------------------------------------------------------------------
# Expressions that differ only in their numbers share compiled code
# ---------------------------------------------------------------------------

def test_texts_that_differ_only_in_their_numbers_share_code():
    _cold()
    first = compile_lagrangian("0.3*t + 0.2*u0^2 + -0.4*u1^2 + 0.05*u0*u1", 1)
    second = compile_lagrangian("1.5*t + 7*u0^2 + 0.25*u1^2 + -2e-3*u0*u1", 1)
    t, us = 0.3, (0.7, -1.2)
    env = {"t": t, "u0": us[0], "u1": us[1]}
    for L in (first, second):
        assert L.value(t, us) == _walk_eval(L.expr, env)
        assert list(L.gradient(t, us)) == _walks([L.expr, *L._slopes], env)[1:]
        L.derivatives(t, us)
    for code in ("_value", "_gradient", "_derivatives"):
        assert getattr(first, code).func.__code__ is getattr(second, code).func.__code__
    assert first.value(t, us) != second.value(t, us)
    info = dsl._template.cache_info()
    assert (info.misses, info.maxsize) == (3, 32)


def test_a_negated_zero_literal_keeps_its_sign():
    for got in (compile_lagrangian("-0.0*u0", 1).value(0.0, (1.0, 0.0)),
                evaluate(parse("-0*t"), {"t": 1.0})):
        assert got == 0.0 and math.copysign(1.0, got) == -1.0


def test_integer_exponents_are_part_of_the_shape():
    square, cube = (compile_lagrangian(f"0.5*u0^{k}", 1) for k in (2, 3))
    assert square._value.func.__code__ is not cube._value.func.__code__
    assert (square.value(0.0, (2.0, 0.0)), cube.value(0.0, (2.0, 0.0))) == (2.0, 4.0)


def _renumbered(tree, values):
    """tree with each literal in turn replaced by the next of values; an
    integer exponent, which picks the code, stays."""
    if isinstance(tree, Number):
        return Number(next(values))
    if isinstance(tree, Neg):
        return Neg(_renumbered(tree.operand, values))
    if isinstance(tree, Call):
        return Call(tree.fn, _renumbered(tree.operand, values))
    if isinstance(tree, BinOp):
        left = _renumbered(tree.left, values)
        if tree.op == "^" and dsl.literal_int_exponent(tree.right) is not None:
            return BinOp("^", left, tree.right)
        return BinOp(tree.op, left, _renumbered(tree.right, values))
    return tree


def _outcomes(L, t, us):
    """repr of value, gradient and derivatives at (t, us), a package error as
    its class; repr of a float round-trips its bits, the sign of 0.0 too."""
    return repr([_outcome(call, t, us) for call in (L.value, L.gradient, L.derivatives)])


# A tree of _trees(3) has at most 8 leaves, so at most 8 literals to replace.
_literal_values = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=8, max_size=8)


def _folded_products(tree):
    """Each product of two literals that ``derivative`` forms, and so folds
    into one literal where it is finite and nonzero, in tree's first and
    second partials at order 1."""
    products, fold = [], dsl._mul

    def recording(a, b):
        x, y = dsl._literal(a), dsl._literal(b)
        if x and y:  # _mul folds a 0 operand before it multiplies
            products.append(x * y)
        return fold(a, b)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(dsl, "_mul", recording)
        for u in ("u0", "u1"):
            for v in ("u0", "u1"):
                derivative(derivative(tree, u), v)
    return products


@settings(deadline=None, max_examples=200)
@given(_trees(3), _literal_values, _coord, _coord, _coord)
# Renumbered literals whose product in a slope overflows, or is 1 where the
# tree's is not, so the slopes' shapes differ.
@example(parse("sin((u0*2)^2)"), [9.5e153] * 8, 0.5, 0.5, 0.5)
@example(parse("sin(u0*2*0.5)"), [3.0, 0.7] + [2.0] * 6, 0.5, 0.5, 0.5)
def test_a_shared_template_gives_the_cold_results_bit_for_bit(tree, values, t, u0, u1):
    us = (u0, u1)
    warm = Lagrangian(tree, 1)
    _outcomes(warm, t, us)
    other = _renumbered(tree, iter(values))
    shared = Lagrangian(other, 1)
    got = _outcomes(shared, t, us)
    assert shared._value.func.__code__ is warm._value.func.__code__
    # derivative folds a literal 0 or 1 away, and a product of two literals
    # into one literal only while it is finite and nonzero; a product of 1
    # then folds away.  Where no literal or product of either tree is 0, 1
    # or not finite, both fold alike, so their slopes have one shape.
    products = _folded_products(tree) + _folded_products(other)
    if not {0.0, 1.0} & set(values) and all(math.isfinite(p) and p not in (0.0, 1.0) for p in products):
        assert shared._derivatives.func.__code__ is warm._derivatives.func.__code__
    dsl._template.cache_clear()
    assert got == _outcomes(Lagrangian(other, 1), t, us)
    # The checked walk decides what each should read.
    env = {"t": t, "u0": u0, "u1": u1}
    assert repr(_outcome(shared.value, t, us)) == repr(_outcome(_walk_eval, other, env))
    gradient = _outcome(lambda *a: list(shared.gradient(*a)), t, us)
    assert repr(gradient) == repr(_outcome(lambda: _walks([other, *shared._slopes], env)[1:]))
    walked = _outcome(_walks, shared._derivatives.args[0], env)
    if isinstance(walked, list):
        g0, g1, h00, h01, h11 = walked[1:]
        walked = ([g0, g1], [[h00, h01], [h01, h11]])
    assert repr(_outcome(shared.derivatives, t, us)) == repr(walked)
