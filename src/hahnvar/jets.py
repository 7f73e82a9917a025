"""Truncated Taylor arithmetic at omega0 (Griewank & Walther, ch. 13).

The jet of f at x0 is the list of its Taylor coefficients f_0, f_1, ...
in s = t - x0, f_k = f^(k)(x0)/k!.  ``Expansion.jet`` forms the jet of a
``dsl`` tree from the jets bound to its variables, with arithmetic
operators only, so a polynomial's jet runs on ``fractions.Fraction`` as
well as on floats.  An exact jet is the whole coefficient list of a
polynomial of degree at most the expansion's cap; every other jet is a
series truncated at the expansion's order, its coefficients past the
order unknown.  Abs of a non-constant operand, sqrt, ln, a divisor
that is not a constant and a non-integer power give series jets: their
expansions hold only near x0.

A jet refuses, with DomainError, what is not smooth at x0: abs or sqrt
of 0 (unless the operand is 0 identically), ln of a non-positive value,
a zero divisor, a non-integer power of a non-positive base, and a value
that is not finite.  A float jet also refuses where a product or
quotient of nonzero coefficients rounds to 0.0, as ``dsl`` evaluation
refuses an underflow.

On the sigma scale sigma is s -> q*s, so y o sigma^m has coefficients
c_k q^(mk) and the Hahn operator D maps coefficient k + 1 to
[k+1]_q c_(k+1) (Kac & Cheung).  ``derivative_at`` gives
D^r f(x0) = [r]_q! f_r, ``integrand`` the jet of a Lagrangian along a
candidate's trajectory slots v_i = D^i[y o sigma^(r-i)] where that jet
is a polynomial, and ``terms`` the Jackson integral of a polynomial jet
from x0 out to x0 + s, sum_m F_m s^(m+1) / [m+1]_q, with no truncation.
"""

from __future__ import annotations

import math
from itertools import zip_longest
from typing import Mapping

from .dsl import BinOp, Call, Expr, Neg, Number, Var, literal_int_exponent
from .errors import DomainError, UnboundVariable

# The highest degree an exact jet keeps before it is truncated like a
# series.
CAP = 64


def _refuse(why: str) -> DomainError:
    return DomainError(f"no Taylor jet at omega0: {why}")


def _nonzero(p, x, y):
    """p, the product or quotient of x and y, refused where it rounded to
    0 from nonzero x and y (a Fraction never does)."""
    if not p and x and y:
        raise _refuse("a product or quotient underflowed to zero")
    return p


class Expansion:
    """Jets of trees in one number type, truncated at ``order``; exact jets
    keep up to ``cap`` + 1 coefficients."""

    def __init__(self, num: type, order: int, cap: int) -> None:
        self.num, self.order, self.cap = num, order, cap
        self.zero, self.one = num(0), num(1)
        self.floats = num is float

    def _fit(self, c: list, exact: bool) -> tuple[list, bool]:
        """An exact jet past the cap becomes a series; a series has exactly
        order + 1 coefficients."""
        if exact and len(c) <= self.cap + 1:
            return c, True
        n = self.order + 1
        return c[:n] + [self.zero] * (n - len(c)), False

    def _finite(self, c: list) -> list:
        if self.floats and not all(map(math.isfinite, c)):
            raise _refuse("a coefficient is not finite")
        return c

    def jet(self, e: Expr, env: Mapping[str, tuple[list, bool]]) -> tuple[list, bool]:
        """The jet of e and whether it is exact, with the jets of its
        variables bound in env as (coefficients, exact) pairs."""
        if isinstance(e, Number):
            return [self.num(e.value)], True
        if isinstance(e, Var):
            try:
                return env[e.name]
            except KeyError:
                raise UnboundVariable(e.name) from None
        if isinstance(e, Neg):
            c, exact = self.jet(e.operand, env)
            return [-x for x in c], exact
        if isinstance(e, Call):
            return self._call(e.fn, self.jet(e.operand, env))
        if isinstance(e, BinOp):
            a = self.jet(e.left, env)
            if e.op == "^":
                k = literal_int_exponent(e.right)
                if k is not None:
                    return self._power(a, k)
                if not a[0][0] > 0:
                    raise _refuse("a non-integer power of a non-positive base")
                return self._call("exp", self._mul(self.jet(e.right, env), self._call("ln", a)))
            b = self.jet(e.right, env)
            if e.op in "+-":
                sub = e.op == "-"
                c = [x - y if sub else x + y
                     for x, y in zip_longest(a[0], b[0], fillvalue=self.zero)]
                return self._fit(c, a[1] and b[1])
            return self._mul(a, b) if e.op == "*" else self._div(a, b)
        raise TypeError(f"not an expression node: {e!r}")

    def _mul(self, a: tuple[list, bool], b: tuple[list, bool]) -> tuple[list, bool]:
        (ca, ea), (cb, eb) = a, b
        if len(cb) == 1 and eb:
            return self._fit([_nonzero(x * cb[0], x, cb[0]) for x in ca], ea)
        if len(ca) == 1 and ea:
            return self._fit([_nonzero(ca[0] * y, ca[0], y) for y in cb], eb)
        la, lb = len(ca), len(cb)
        n = la + lb - 1
        exact = ea and eb and n <= self.cap + 1
        if not exact:
            n = min(n, self.order + 1)
        c = []
        for k in range(n):
            total = self.zero
            for j in range(max(0, k - lb + 1), min(k, la - 1) + 1):
                x, y = ca[j], cb[k - j]
                total += _nonzero(x * y, x, y)
            c.append(total)
        return self._fit(c, exact)

    def _div(self, a: tuple[list, bool], b: tuple[list, bool]) -> tuple[list, bool]:
        (ca, ea), (cb, eb) = a, b
        self._finite(cb)
        b0 = cb[0]
        if b0 == 0:
            raise _refuse("a zero divisor")
        if len(cb) == 1 and eb:
            return self._fit([_nonzero(x / b0, x, b0) for x in ca], ea)
        ca = self._fit(ca, False)[0]
        c: list = []
        for k in range(self.order + 1):
            total = ca[k]
            for j in range(1, min(k, len(cb) - 1) + 1):
                total -= _nonzero(cb[j] * c[k - j], cb[j], c[k - j])
            c.append(_nonzero(total / b0, total, b0))
        return c, False

    def _power(self, a: tuple[list, bool], k: int) -> tuple[list, bool]:
        """a^k for an integer k, by squaring; a negative k divides 1 by a^-k."""
        if k < 0:
            return self._div(([self.one], True), self._power(a, -k))
        out, base = ([self.one], True), a
        while k:
            if k & 1:
                out = self._mul(out, base)
            k >>= 1
            if k:
                base = self._mul(base, base)
        return out

    def _call(self, fn: str, a: tuple[list, bool]) -> tuple[list, bool]:
        c, exact = a
        self._finite(c)
        x = c[0]
        if fn in ("abs", "sqrt") and x == 0:
            if exact and not any(c):
                return [self.zero], True
            raise _refuse(f"{fn} of 0")
        if fn == "abs":
            c = [-v for v in c] if x < 0 else c
            return (c, True) if exact and len(c) == 1 else self._fit(c, False)
        if fn == "ln" and not x > 0:
            raise _refuse(f"ln of {x!r}")
        if fn == "sqrt" and x < 0:
            raise _refuse(f"sqrt of {x!r}")
        try:
            head = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "ln": math.log,
                    "sqrt": math.sqrt}[fn](x)
        except OverflowError:
            raise _refuse(f"{fn}({x!r}) overflows") from None
        if len(c) == 1 and exact:
            return [self.num(head)], True
        c, out, n = self._fit(c, False)[0], [head], self.order + 1
        if fn == "exp":
            for k in range(1, n):
                out.append(sum(j * c[j] * out[k - j] for j in range(1, k + 1)) / k)
        elif fn == "ln":
            for k in range(1, n):
                out.append((c[k] - sum(j * out[j] * c[k - j] for j in range(1, k)) / k) / x)
        elif fn == "sqrt":
            for k in range(1, n):
                out.append((c[k] - sum(out[j] * out[k - j] for j in range(1, k))) / (2 * head))
        else:
            sin, cos = [math.sin(x)], [math.cos(x)]
            for k in range(1, n):
                sin.append(sum(j * c[j] * cos[k - j] for j in range(1, k + 1)) / k)
                cos.append(-sum(j * c[j] * sin[k - j] for j in range(1, k + 1)) / k)
            out = sin if fn == "sin" else cos
        return out, False


def _brackets(q, n: int) -> list:
    """[1]_q, ..., [n]_q, each as 1 + q*[k-1]_q."""
    out, b = [], 0
    for _ in range(n):
        b = 1 + q * b
        out.append(b)
    return out


def derivative_at(e: Expr, q: float, x0: float, r: int) -> float:
    """D^r of the expression at its fixed point x0 = omega0, r >= 1:
    [r]_q! f_r from a jet of order r.  Raises DomainError where the jet
    refuses."""
    c, _ = Expansion(type(x0), r, r).jet(e, {"t": ([x0, type(x0)(1)], True)})
    value = math.prod(_brackets(q, r)) * c[r] if len(c) > r else 0.0
    if not math.isfinite(value):
        raise _refuse(f"D^{r} is not finite")
    return value


def terms(coeffs: list, q, s) -> list:
    """The terms F_m s^(m+1) / [m+1]_q of the Jackson integral of the
    polynomial jet F = coeffs from omega0 out to omega0 + s."""
    out, power = [], s
    for f, b in zip(coeffs, _brackets(q, len(coeffs))):
        out.append(f * power / b)
        power *= s
    return out


def slots(c: list, q, r: int) -> list[list]:
    """The jets of v_i = D^i[y o sigma^(r-i)], i = 0..r, from y's jet c:
    coefficient k of v_i is [k+1]_q ... [k+i]_q q^((r-i)(k+i)) c_(k+i)
    (an empty list where an exact c has degree below i)."""
    brackets = _brackets(q, len(c))
    out = []
    for i in range(r + 1):
        v = []
        for k in range(len(c) - i):
            coeff = c[k + i] * q ** ((r - i) * (k + i))
            for j in range(k + 1, k + i + 1):
                coeff *= brackets[j - 1]
            v.append(coeff)
        out.append(v)
    return out


def integrand(lagrangian: Expr, r: int, y: Expr, q, x0) -> list | None:
    """The jet of L(t, v_0, ..., v_r) along the candidate y's slots at
    x0 = omega0, in x0's number type, where it is a polynomial; None where
    it is a series.  Only a polynomial is closed, so the expansions keep
    no term of a series past its first.  Raises what ``Expansion.jet``
    raises where a jet refuses."""
    num = type(x0)
    t = ([x0, num(1)], True)
    c, exact = Expansion(num, 0, CAP + r).jet(y, {"t": t})
    of_l = Expansion(num, 0, CAP)
    env = {"t": t}
    for i, v in enumerate(slots(c, q, r)):
        env[f"u{i}"] = of_l._fit(v or [of_l.zero], exact)
    coeffs, exact = of_l.jet(lagrangian, env)
    return of_l._finite(coeffs) if exact else None
