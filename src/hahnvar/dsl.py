"""A small expression language for integrands and Lagrangians.

Grammar (whitespace-insensitive)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' factor)?          # right-associative
    base   := number | var | fn '(' expr ')' | '(' expr ')' | '-' base

Variables are ``t`` and the slot values ``u0`` .. ``u9``; functions are
sin, cos, exp, ln, sqrt and abs.  Note that unary minus binds tighter
than '^', so ``-u0^2`` means ``(-u0)^2``.  Nesting past MAX_NESTING
(brackets, unary minus, '^' or tree levels) is a syntax error.  A power
with an integer literal exponent is the float power ``**``; any other
exponent g uses exp(g*ln(f)) and requires a positive base.

Every number comes from one rule, compiled with its trees' code
(``_emit``) into one function (``_checked``): where that code faults or
a value is not finite, the checked walk, which does the same float
operations, gives the numbers and raises the precise error.
``evaluate``, ``function_of_t`` and a ``Lagrangian``'s ``value``,
``gradient`` and ``derivatives`` are each one call of such a function.
The code holds no literal: it is compiled once per shape, and trees that
differ only in their numbers share it, each bound to its own literals.
The walk refuses every non-finite intermediate, and every product,
quotient or integer power of nonzero operands that rounds to 0.0 (a
subnormal result and exp(-1000) are no such zero); compiled code checks
only operands that could make one finite again (divisors, bases under
an exponent that is not a positive literal, function arguments), and
the operands of a zero product, quotient or power.  ``derivative``
builds partials as trees, folding 0 and 1, with d abs(a) = a/abs(a)*da
and d sqrt(a) = 0.5/sqrt(a)*da, so kinks divide by zero in the slope.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from functools import cached_property, lru_cache
from typing import Callable, Iterator, Mapping, Sequence

from .core import Frozen, Record
from .errors import (
    ArityError,
    DomainError,
    ExprSyntaxError,
    NotDifferentiable,
    UnboundVariable,
    UnknownIdentifier,
)

FUNCTIONS = ("sin", "cos", "exp", "ln", "sqrt", "abs")

# What each function name means, to the checked walk and in compiled code.
_MATH = dict(zip(FUNCTIONS, (math.sin, math.cos, math.exp, math.log, math.sqrt, abs)))

MAX_NESTING = 100

_VAR_RE = re.compile(r"^(t|u[0-9])$")


# ---------------------------------------------------------------------------
# Syntax tree
# ---------------------------------------------------------------------------

class Expr(Frozen):
    """Base class for expression nodes.

    Parsing and the folding of partials build nodes by the thousand, so
    each node writes out its construction.  The folding also compares
    literals with 0 and 1 (about 180 times for the partials of a six-term
    quadratic), so a Number writes out its ==; the other nodes inherit
    theirs."""

    @cached_property
    def _code(self) -> Callable[[Expr, Mapping[str, float]], float]:
        """``evaluate``'s checked function of (tree, bindings), built once."""
        return _checked([self], 0)

    def __getstate__(self) -> dict:
        # Pickles and copies leave the compiled code behind: it is a cache.
        return {k: v for k, v in vars(self).items() if k != "_code"}


class Number(Expr):
    value: float

    def __init__(self, value: float) -> None:
        if not math.isfinite(value):
            raise ValueError("numeric literals must be finite")
        self.__dict__["value"] = value

    def __eq__(self, other):
        return self.value == other.value if other.__class__ is self.__class__ else NotImplemented

    __hash__ = Frozen.__hash__


class Var(Expr):
    name: str

    def __init__(self, name: str) -> None:
        self.__dict__["name"] = name


class Neg(Expr):
    operand: Expr

    def __init__(self, operand: Expr) -> None:
        self.__dict__["operand"] = operand


class BinOp(Expr):
    op: str  # one of + - * / ^
    left: Expr
    right: Expr

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        fields = self.__dict__
        fields["op"] = op
        fields["left"] = left
        fields["right"] = right


class Call(Expr):
    fn: str
    operand: Expr

    def __init__(self, fn: str, operand: Expr) -> None:
        fields = self.__dict__
        fields["fn"] = fn
        fields["operand"] = operand


def _walk(e: Expr) -> Iterator[tuple[Expr, int]]:
    """Every node with its depth (the root is 0); iterative, so any depth is safe."""
    stack = [(e, 0)]
    while stack:
        node, depth = stack.pop()
        yield node, depth
        if isinstance(node, BinOp):
            stack += ((node.left, depth + 1), (node.right, depth + 1))
        elif isinstance(node, (Neg, Call)):
            stack.append((node.operand, depth + 1))


def variables(e: Expr) -> set[str]:
    """Names of the variables the expression uses."""
    return {node.name for node, _ in _walk(e) if isinstance(node, Var)}


# ---------------------------------------------------------------------------
# Tokenizer and parser
# ---------------------------------------------------------------------------

_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_OPS = set("+-*/^()")
_TOO_DEEP = {f"at most {MAX_NESTING} levels of nesting"}


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int) -> None:
        self.kind = kind  # "num", "ident", one of _OPS, or "end"
        self.text = text
        self.pos = pos


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            toks.append(_Token(c, c, i))
            i += 1
            continue
        m = _NUMBER_RE.match(text, i)
        if m:
            toks.append(_Token("num", m.group(), i))
            i = m.end()
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            toks.append(_Token("ident", m.group(), i))
            i = m.end()
            continue
        raise ExprSyntaxError(i, {"number", "identifier", "operator", "parenthesis"}, c)
    toks.append(_Token("end", "", n))
    return toks


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0
        self.level = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected: set[str]) -> None:
        tok = self.peek()
        raise ExprSyntaxError(tok.pos, expected, tok.text or "end of input")

    def nested(self, parse_inner: Callable[[], Expr]) -> Expr:
        """parse_inner one level deeper, refusing to go past MAX_NESTING."""
        self.level += 1
        if self.level > MAX_NESTING:
            self.fail(_TOO_DEEP)
        node = parse_inner()
        self.level -= 1
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.take().kind
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Expr:
        node = self.base()
        if self.peek().kind == "^":
            self.take()
            node = BinOp("^", node, self.nested(self.factor))
        return node

    def base(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            if not math.isfinite(float(tok.text)):  # a literal past the float range
                self.fail({"finite number"})
            self.take()
            return Number(float(tok.text))
        if tok.kind == "ident":
            self.take()
            if self.peek().kind == "(":
                if tok.text not in FUNCTIONS:
                    raise UnknownIdentifier(tok.text, tok.pos)
                return Call(tok.text, self.bracketed())
            if not _VAR_RE.match(tok.text):
                raise UnknownIdentifier(tok.text, tok.pos)
            return Var(tok.text)
        if tok.kind == "(":
            return self.bracketed()
        if tok.kind == "-":
            self.take()
            return Neg(self.nested(self.base))
        self.fail({"number", "identifier", "'('", "'-'"})
        raise AssertionError("unreachable")

    def bracketed(self) -> Expr:
        self.take()
        inner = self.nested(self.expr)
        if self.peek().kind != ")":
            self.fail({"')'"})
        self.take()
        return inner


def parse(text: str) -> Expr:
    """The tree of the source text.  Equal texts share one tree (a bounded
    cache of recent texts); trees are immutable, so the shared tree's
    compiled code is built once too.  A faulty text raises on every call."""
    return _parsed(text)


@lru_cache(maxsize=32)
def _parsed(text: str) -> Expr:
    parser = _Parser(_tokenize(text))
    node = parser.expr()
    if parser.peek().kind != "end":
        parser.fail({"end of input", "operator"})
    if max(depth for _, depth in _walk(node)) > MAX_NESTING:
        raise ExprSyntaxError(0, _TOO_DEEP, "a deeper expression tree")
    return node


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

# Binding strength used to decide parenthesization; mirrors the grammar.
_LEVEL_ADD, _LEVEL_MUL, _LEVEL_POW, _LEVEL_BASE = 1, 2, 3, 4


def _level(e: Expr) -> int:
    if isinstance(e, BinOp):
        if e.op in "+-":
            return _LEVEL_ADD
        if e.op in "*/":
            return _LEVEL_MUL
        return _LEVEL_POW
    return _LEVEL_BASE  # numbers, vars, calls and unary minus all parse as a base


def _wrap(e: Expr, minimum: int) -> str:
    s = to_string(e)
    return f"({s})" if _level(e) < minimum else s


def to_string(e: Expr) -> str:
    """Render with the fewest parentheses that preserve the parse tree."""
    if isinstance(e, Number):
        v = e.value
        if v.is_integer() and abs(v) < 1e16:
            return str(int(v))
        return repr(v)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return "-" + _wrap(e.operand, _LEVEL_BASE)
    if isinstance(e, Call):
        return f"{e.fn}({to_string(e.operand)})"
    if isinstance(e, BinOp):
        if e.op in "+-":
            return f"{_wrap(e.left, _LEVEL_ADD)} {e.op} {_wrap(e.right, _LEVEL_MUL)}"
        if e.op in "*/":
            return f"{_wrap(e.left, _LEVEL_MUL)}{e.op}{_wrap(e.right, _LEVEL_POW)}"
        # '^': the left slot of the grammar is a bare base, the right a factor.
        return f"{_wrap(e.left, _LEVEL_BASE)}^{_wrap(e.right, _LEVEL_POW)}"
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def literal_int_exponent(e: Expr) -> int | None:
    """Integer value of a literal (possibly negated) exponent, else None:
    the exponents evaluated as an integer power, here and in ``jets``."""
    if isinstance(e, Neg):
        inner = literal_int_exponent(e.operand)
        return None if inner is None else -inner
    return int(e.value) if isinstance(e, Number) and float(e.value).is_integer() else None


def _finite(x: float, nonzero_operands: bool = False) -> float:
    if not math.isfinite(x):
        raise DomainError("evaluation overflowed the finite range")
    if nonzero_operands and x == 0.0:
        raise DomainError("evaluation underflowed to zero")
    return x


def _walk_eval(e: Expr, bindings: Mapping[str, float]) -> float:
    """The checked walk: every intermediate must be finite and in its domain."""
    if isinstance(e, Number):
        return e.value
    if isinstance(e, Var):
        try:
            return bindings[e.name]
        except KeyError:
            raise UnboundVariable(e.name) from None
    if isinstance(e, Neg):
        return -_walk_eval(e.operand, bindings)
    if isinstance(e, Call):
        return _call_real(e.fn, _walk_eval(e.operand, bindings))
    if isinstance(e, BinOp):
        left = _walk_eval(e.left, bindings)
        if e.op == "^":
            k = literal_int_exponent(e.right)
            if k is not None:
                if k < 0 and left == 0.0:
                    raise DomainError("division by zero")
                try:
                    return _finite(left**k, left != 0.0)
                except OverflowError:
                    return _finite(math.inf)
            right = _walk_eval(e.right, bindings)
            if left <= 0.0:
                raise DomainError(f"base {left!r} must be positive for a non-integer exponent")
            return _call_real("exp", right * math.log(left))
        right = _walk_eval(e.right, bindings)
        if e.op == "+":
            return _finite(left + right)
        if e.op == "-":
            return _finite(left - right)
        if e.op == "*":
            return _finite(left * right, left != 0.0 and right != 0.0)
        if right == 0.0:
            raise DomainError("division by zero")
        return _finite(left / right, left != 0.0)
    raise TypeError(f"not an expression node: {e!r}")


def _call_real(fn: str, x: float) -> float:
    if fn == "ln" and x <= 0.0:
        raise DomainError(f"ln needs a positive argument, got {x!r}")
    if fn == "sqrt" and x < 0.0:
        raise DomainError(f"sqrt needs a non-negative argument, got {x!r}")
    try:
        return _MATH[fn](x)
    except KeyError:
        raise UnknownIdentifier(fn) from None
    except OverflowError:
        raise DomainError(f"{fn}({x!r}) overflows") from None


# Symbolic partials fold the zeros and ones they make, and a product of two
# literals where it is finite and nonzero: an underflow or overflow stays.
_ZERO, _ONE = Number(0.0), Number(1.0)


def _add(a: Expr, b: Expr) -> Expr:
    return b if a == _ZERO else a if b == _ZERO else BinOp("+", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    return a if b == _ZERO else _neg(b) if a == _ZERO else BinOp("-", a, b)


def _literal(e: Expr) -> float | None:
    """The value of a literal, a negated one too, as ``_emit`` reads it; else None."""
    if isinstance(e, Number):
        return e.value
    return -e.operand.value if isinstance(e, Neg) and isinstance(e.operand, Number) else None


def _mul(a: Expr, b: Expr) -> Expr:
    if a == _ZERO or b == _ZERO:
        return _ZERO
    x = _literal(a)
    if x is not None and (y := _literal(b)) is not None and x * y and math.isfinite(x * y):
        return Number(x * y)
    return b if a == _ONE else a if b == _ONE else BinOp("*", a, b)


def _neg(a: Expr) -> Expr:
    return _ZERO if a == _ZERO else Neg(a)


def derivative(e: Expr, var: str) -> Expr:
    """d e / d var as a tree, with 0 and 1 folded so terms free of var drop out."""
    if isinstance(e, Number):
        return _ZERO
    if isinstance(e, Var):
        return _ONE if e.name == var else _ZERO
    if isinstance(e, Neg):
        return _neg(derivative(e.operand, var))
    if isinstance(e, Call):
        a = e.operand
        outer = {"sin": Call("cos", a), "cos": Neg(Call("sin", a)), "exp": e,
                 "ln": BinOp("/", _ONE, a), "sqrt": BinOp("/", Number(0.5), e),
                 "abs": BinOp("/", a, e)}[e.fn]
        return _mul(outer, derivative(a, var))
    if isinstance(e, BinOp):
        a, b = e.left, e.right
        da, db = derivative(a, var), derivative(b, var)
        if da == _ZERO and db == _ZERO:
            return _ZERO
        if e.op == "+":
            return _add(da, db)
        if e.op == "-":
            return _sub(da, db)
        if e.op == "*":
            return _add(_mul(da, b), _mul(a, db))
        if e.op == "/":
            return BinOp("/", _sub(da, _mul(e, db)), b)
        k = literal_int_exponent(b)
        if k is not None:
            lower = a if k == 2 else BinOp("^", a, Number(k - 1.0))
            return _mul(_mul(Number(float(k)), lower), da)
        slope = _mul(b, da if da == _ZERO else BinOp("/", da, a))
        return _mul(e, _add(_mul(db, Call("ln", a)), slope))
    raise TypeError(f"not an expression node: {e!r}")


def partial_eval(e: Expr, bindings: Mapping[str, float], var: str) -> float:
    """de/dvar by the checked walk: raises what ``evaluate(e, bindings)`` raises,
    and NotDifferentiable where e is defined but its slope is not finite."""
    return _walks((e, derivative(e, var)), bindings)[1]


def _walks(trees: Sequence[Expr], bindings: Mapping[str, float]) -> list[float]:
    """The trees' values by the checked walk: the first raises what it
    raises, and the rest, its slopes, raise as ``partial_eval`` does."""
    value = _walk_eval(trees[0], bindings)
    try:
        return [value, *(_walk_eval(slope, bindings) for slope in trees[1:])]
    except DomainError as exc:
        raise NotDifferentiable(f"no finite slope here: {exc}") from None


# ---------------------------------------------------------------------------
# Compiled evaluation
# ---------------------------------------------------------------------------

def _emit(e: Expr, fresh: Iterator[int] | None = None, consts: list[float] | None = None) -> str:
    """Python source for the fast evaluation path; _fin guards the operands
    that could turn a non-finite intermediate finite, and _nz a zero
    product, quotient or power that could be an underflow.  A compound
    operand that _nz tests is kept in a local _0, _1, ... numbered from
    ``fresh``, so none is evaluated twice.  Each literal, a negated one as
    one constant, is the name _k0, _k1, ... in emission order, its value
    appended to ``consts``, so trees that differ only in their numbers emit
    one text; an integer exponent stays in the text, as it picks the code."""
    fresh = itertools.count() if fresh is None else fresh
    consts = [] if consts is None else consts

    def emit(node: Expr) -> str:
        return _emit(node, fresh, consts)

    if (value := _literal(e)) is not None:
        consts.append(value)
        return f"_k{len(consts) - 1}"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return f"(-{emit(e.operand)})"
    if isinstance(e, Call):
        return f"{e.fn}(_fin({emit(e.operand)}))"
    if isinstance(e, BinOp):
        if e.op in "+-":
            return f"({emit(e.left)} {e.op} {emit(e.right)})"
        k = literal_int_exponent(e.right) if e.op == "^" else None
        if e.op == "^" and k is None:
            return f"exp(_fin(({emit(e.right)})*ln(_fin({emit(e.left)}))))"

        def operand(node: Expr, checked: bool) -> tuple[str, str]:
            """Its text in the operation, and what reads it again in _nz: a
            variable or constant itself, else a local that keeps its value."""
            text = emit(node)
            used = f"_fin({text})" if checked else text
            if text.isidentifier():
                return used, text
            name = f"_{next(fresh)}"
            return f"({name} := {used})", name

        if k is None:
            op, (x, a), (y, b) = e.op, operand(e.left, False), operand(e.right, e.op == "/")
        else:
            op, (x, a), (y, b) = "**", operand(e.left, k <= 0), (f"({k})",) * 2
        return f"({x} {op} {y} or _nz({a}, {b}, {a} {op} {b}))"
    raise TypeError(f"not an expression node: {e!r}")


def _fin(x: float) -> float:
    if math.isfinite(x):
        return x
    raise ValueError("non-finite intermediate")


def _nz(a: float, b: float, zero: float) -> float:
    """The zero result of a * b, a / b or a ** b; unless a or b was zero (a
    divisor or an exponent never is), it underflowed."""
    if a and b:
        raise ValueError("underflowed intermediate")
    return zero


# What compiled code raises where the checked walk raises a HahnvarError;
# a KeyError or an unpack that does not fit (a window of another length) is
# a binding it lacks.
_FAST_FAULTS = (ValueError, ZeroDivisionError, OverflowError, KeyError, TypeError)


def _window(slots: Sequence[str], t: float, us) -> dict[str, float]:
    """The slots ("t", "u0", ..., "ur") bound to t and a window us of r + 1 values."""
    if len(us) != len(slots) - 1:
        raise ArityError(f"order {len(slots) - 2} takes {len(slots) - 1} slot values, got {len(us)}")
    return dict(zip(slots, (t, *us)))


def _checked(trees: Sequence[Expr], shape: int | Sequence, slots: Sequence[str] = ()) -> Callable:
    """The one evaluation rule, compiled for the trees: where their code
    faults or a value is not finite, the checked walk gives the values and
    raises the precise error; either way the function returns ``shape`` of
    the values, where a shape is a tree's index or a tuple or list of shapes.
    With slots ("t", "u0", ..., "ur") it is a function of (t, us), with the
    trees bound by partial; without, of (tree, bindings), taking its one
    tree at each call.  Neither refers to the trees' owner, so the owner's
    cache of it forms no reference cycle.  Trees too deep for Python's
    compiler get the template (``_template``) with bodies that always fault."""
    if slots:
        head, unpack = "_trees, t, us", f"{', '.join(slots[1:])}, = us"
        walk = f"_walks(_trees, _window({tuple(slots)!r}, t, us))"
    else:
        head, walk = "_e, _b", "_walks((_e,), _b)"
        unpack = "; ".join(f"{name} = _b[{name!r}]" for name in sorted(variables(trees[0])))
    shape, fresh, consts = re.sub(r"\d+", r"_v\g<0>", repr(shape)), itertools.count(), []
    try:
        bodies = tuple(_emit(e, fresh, consts) for e in trees)
        template = _template(head, unpack, bodies, shape, walk, len(consts))
    except (SyntaxError, RecursionError, MemoryError):  # 0 / 0 is in _FAST_FAULTS
        consts, template = [], _template(head, unpack, ("0 / 0",) * len(trees), shape, walk, 0)
    code = template(*consts)
    return functools.partial(code, tuple(trees)) if slots else code


@lru_cache(maxsize=32)
def _template(head: str, unpack: str, bodies: tuple[str, ...], shape: str, walk: str,
              literals: int) -> Callable:
    """The compiled template, a function of the literals that returns
    ``_checked``'s function; a pure function of its text, so trees of one
    shape share its code, whatever their numbers.  Trees parsed from text
    share their whole function through ``parse`` and ``compile_lagrangian``;
    this cache serves every new tree of a shape seen before: a Lagrangian
    whose coefficients changed, a candidate's source with new numbers and
    the negated Lagrangian of ``minimize_direct(maximize=True)``."""
    values = [f"_v{i}" for i in range(len(bodies))]
    lines = [f"def _bind({', '.join(f'_k{i}' for i in range(literals))}):",
             f"    def _f({head}):",
             "        try:",
             f"            {unpack or 'pass'}",
             *[f"            {v} = {body}" for v, body in zip(values, bodies)],
             f"            _fast = isfinite({' + '.join(values)})",
             "        except _FAST_FAULTS:",
             "            _fast = False",
             "        if not _fast:",
             f"            {', '.join(values)}, = {walk}",
             f"        return {shape}",
             "    return _f"]
    namespace = dict(_MATH, _fin=_fin, _nz=_nz, isfinite=math.isfinite, _walks=_walks,
                     _window=_window, _FAST_FAULTS=_FAST_FAULTS)
    exec("\n".join(lines), namespace)
    return namespace.pop("_bind")  # so that namespace and _bind form no cycle


def evaluate(e: Expr, bindings: Mapping[str, float]) -> float:
    """e under the given variable bindings; extra names are ignored.

    One call of the tree's checked function, so it raises what the walk
    raises: UnboundVariable for a missing name, DomainError outside a
    function's domain, at a zero divisor or on an overflow."""
    return e._code(e, bindings)


def function_of_t(e: Expr) -> Callable[[float], float]:
    """The expression as a function of t, evaluated as ``evaluate`` does."""
    code = e._code
    return lambda t: code(e, {"t": t})


class Lagrangian(Record):
    """An expression read as L(t, u0, ..., ur) with the slot count fixed.

    Slot i holds the i-th operator iterate of the trajectory, so r is the
    problem order, an int from 1 to 9, and the expression uses no slot past
    it (else ArityError).  ``value``, ``gradient`` and ``derivatives`` are
    each one call of a checked function (``_checked``) of (t, us), built on
    first use: of L; of L and its slopes dL/du0, ..., dL/dur, which every
    slot's ``partial`` reads too; and of those and the second partials.
    Each raises ArityError for a window us that does not hold r + 1 values.
    The compiled code is a cache: pickles and copies leave it behind.
    An instance from ``compile_lagrangian`` of source text may be shared by
    every problem built from that text, so it must not be mutated.
    """

    expr: Expr
    order: int

    def __init__(self, expr: Expr, order: int) -> None:
        self.expr = expr
        self.order = r = order
        if isinstance(r, bool) or not isinstance(r, int):
            raise ArityError(f"order r must be an integer, got {r!r}")
        if not 1 <= r <= 9:
            raise ArityError(f"order r must be between 1 and 9, got {r!r}")
        past = variables(expr) - set(self.arg_names())
        if past:
            raise ArityError(f"expression uses slot {max(past)} but the order is {r}")

    def __getstate__(self) -> dict:
        return {"expr": self.expr, "order": self.order}

    def arg_names(self) -> tuple[str, ...]:
        return ("t",) + tuple(f"u{i}" for i in range(self.order + 1))

    @cached_property
    def _slopes(self) -> list[Expr]:
        """dL/du_i as trees, one per slot."""
        return [derivative(self.expr, u) for u in self.arg_names()[1:]]

    @cached_property
    def _value(self) -> Callable:
        return _checked([self.expr], 0, self.arg_names())

    @cached_property
    def _gradient(self) -> Callable:
        slots = self.arg_names()
        return _checked([self.expr, *self._slopes], tuple(range(1, len(slots))), slots)

    @cached_property
    def _derivatives(self) -> Callable:
        """After L and its slopes come the second partials of the upper
        triangle, row by row; the Hessian reads each twice."""
        n = self.order + 1
        upper = [(i, j) for i in range(n) for j in range(i, n)]
        hess = [[n + 1 + upper.index((min(i, j), max(i, j))) for j in range(n)] for i in range(n)]
        trees = [self.expr, *self._slopes, *(derivative(self._slopes[i], f"u{j}") for i, j in upper)]
        return _checked(trees, (list(range(1, n + 1)), hess), self.arg_names())

    def value(self, t: float, us) -> float:
        return self._value(t, us)

    def gradient(self, t: float, us) -> tuple[float, ...]:
        """(dL/du0, ..., dL/dur) at (t, u0..ur); raises where ``value``
        raises, NotDifferentiable where any slope is not finite."""
        return self._gradient(t, us)

    def partial(self, i: int, t: float, us) -> float:
        """dL/du_i at (t, u0..ur), ``gradient``'s entry i; raises where ``value`` raises.
        Only L and slot i must be finite: past another slope's fault, slot i is walked alone."""
        if not 0 <= i <= self.order:
            raise ArityError(f"slot u{i} is outside order {self.order}")
        try:
            return self.gradient(t, us)[i]
        except NotDifferentiable:
            return _walks((self.expr, self._slopes[i]), _window(self.arg_names(), t, us))[1]

    def derivatives(self, t: float, us) -> tuple[list[float], list[list[float]]]:
        """(dL/du_i, d2L/du_i du_j) over the slots at (t, u0..ur); raises
        where ``value`` raises, NotDifferentiable where a slope is not finite."""
        return self._derivatives(t, us)

    def __str__(self) -> str:
        return to_string(self.expr)


def compile_lagrangian(source: Expr | str, r: int) -> Lagrangian:
    """The Lagrangian of the expression at order r, checked as ``Lagrangian`` checks.

    Equal source texts at one order share one Lagrangian (a bounded cache
    of recent texts), so its slopes and compiled code are built once; a
    tree gets a Lagrangian of its own.  Faults raise on every call."""
    if not isinstance(source, str):
        return Lagrangian(source, r)
    # Each text still goes through parse (a cache hit once it is shared), so
    # a per-layer trace counts the texts read as it did before this cache.
    parse(source)
    return _text_lagrangian(source, r)


@lru_cache(maxsize=32, typed=True)
def _text_lagrangian(text: str, r: int) -> Lagrangian:
    return Lagrangian(_parsed(text), r)
