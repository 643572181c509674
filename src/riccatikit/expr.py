"""Exact symbolic expression kernel.

A small closed family of expression nodes in the one variable x (rational/real
constants, x, sums, products, integer powers, negation, reciprocal, exp/log,
hyperbolic and circular functions) with exact symbolic differentiation in x
and numeric evaluation at a point or on whole arrays of points.  Rational
constant arithmetic is exact; simplification is limited to constant folding,
flattening of sums and products, and merging/cancelling of identical terms.
There is deliberately no general canonical form: zero testing of residuals
is done numerically by the callers.

Antiderivatives are produced in closed form for a useful set of patterns
(polynomials, polynomial-times-exponential, tanh/sech^2/sec^2 and friends);
everything else becomes a quadrature node, the antiderivative in x from 0,
whose value is computed by adaptive quadrature for all points in one sweep.
"""

from __future__ import annotations

import ast
import re
from fractions import Fraction

import numpy as np

from . import numeric

__all__ = [
    "Expression",
    "EvalDomainError",
    "Rational",
    "Real",
    "Var",
    "X",
    "add",
    "sub",
    "mul",
    "neg",
    "recip",
    "intpow",
    "exp",
    "log",
    "sinh",
    "cosh",
    "tanh",
    "sin",
    "cos",
    "tan",
    "diff",
    "evaluate",
    "as_expression",
    "parse_expression",
    "antiderivative",
    "is_zero",
    "ZERO",
    "ONE",
]


class EvalDomainError(ArithmeticError):
    """Log of a non-positive argument or division by zero during evaluation."""


# environment key of array evaluation: domain errors give NaN instead of raising
_MASKED = object()


def _eval_masked(e, env):
    """Array evaluation of ``e``: NaN where a point would raise, inf on overflow."""
    env[_MASKED] = True
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return e._eval(env)


def as_expression(v):
    """Wrap a python number as a constant node; pass expressions through."""
    if isinstance(v, Expression):
        return v
    if isinstance(v, (int, Fraction)) and not isinstance(v, bool):
        return Rational(v)
    if isinstance(v, float):
        return Real(v)
    raise TypeError(f"cannot interpret {v!r} as an expression")


class Expression:
    __slots__ = ("_key", "_hash")

    def __init__(self):
        self._key = None
        self._hash = None

    # -- identity ---------------------------------------------------------
    def key(self):
        if self._key is None:
            self._key = self._build_key()
        return self._key

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Expression):
            return NotImplemented
        return self.key() == other.key()

    # -- arithmetic sugar --------------------------------------------------
    def __add__(self, other):
        return add(self, as_expression(other))

    def __radd__(self, other):
        return add(as_expression(other), self)

    def __sub__(self, other):
        return add(self, neg(as_expression(other)))

    def __rsub__(self, other):
        return add(as_expression(other), neg(self))

    def __mul__(self, other):
        return mul(self, as_expression(other))

    def __rmul__(self, other):
        return mul(as_expression(other), self)

    def __truediv__(self, other):
        return mul(self, recip(as_expression(other)))

    def __rtruediv__(self, other):
        return mul(as_expression(other), recip(self))

    def __pow__(self, n):
        return intpow(self, n)

    def __neg__(self):
        return neg(self)

    # -- core operations ----------------------------------------------------
    def diff(self):
        raise NotImplementedError

    def evaluate(self, x):
        """Evaluate at x, a number or an array of points.

        At a point, a division by zero or the log of a non-positive number
        raises EvalDomainError.  On an array the result has its shape, NaN at
        exactly the points where a point evaluation raises; overflow gives inf.
        """
        if not (isinstance(x, np.ndarray) and x.ndim):
            return self._eval({"x": x})
        out = np.asarray(_eval_masked(self, {"x": x.astype(float, copy=False)}), dtype=float)
        return out if out.shape == x.shape else np.broadcast_to(out, x.shape).copy()

    def _eval(self, env):
        raise NotImplementedError

    def __repr__(self):
        return f"<expr {self}>"

    def __str__(self):
        return self._str(0)

    def _str(self, prec):
        raise NotImplementedError


# precedence levels for printing: sum 1, product 2, unary 3, power 4, atom 5


class Rational(Expression):
    __slots__ = ("value",)

    def __init__(self, value):
        super().__init__()
        self.value = Fraction(value)

    def _build_key(self):
        return (0, self.value.numerator, self.value.denominator)

    def diff(self):
        return ZERO

    def _eval(self, env):
        return float(self.value)

    def _str(self, prec):
        s = str(self.value)
        if (self.value < 0 or "/" in s) and prec >= 2:
            return f"({s})"
        return s


class Real(Expression):
    __slots__ = ("value",)

    def __init__(self, value):
        super().__init__()
        self.value = float(value)

    def _build_key(self):
        return (1, self.value)

    def diff(self):
        return ZERO

    def _eval(self, env):
        return self.value

    def _str(self, prec):
        s = repr(self.value)
        if self.value < 0 and prec >= 2:
            return f"({s})"
        return s


class Var(Expression):
    """The independent variable x; ``X`` is its one instance."""

    __slots__ = ()

    def _build_key(self):
        return (2,)

    def diff(self):
        return ONE

    def _eval(self, env):
        return env["x"]

    def _str(self, prec):
        return "x"


class Sum(Expression):
    __slots__ = ("terms",)

    def __init__(self, terms):
        super().__init__()
        self.terms = tuple(terms)

    def _build_key(self):
        return (3,) + tuple(t.key() for t in self.terms)

    def diff(self):
        return add(*[t.diff() for t in self.terms])

    def _eval(self, env):
        total = self.terms[0]._eval(env)
        for t in self.terms[1:]:
            total = total + t._eval(env)
        return total

    def _str(self, prec):
        parts = [self.terms[0]._str(1)]
        for t in self.terms[1:]:
            if isinstance(t, Neg):
                parts.append(" - " + t.arg._str(2))
            elif isinstance(t, (Rational, Real)) and _const_value(t) < 0:
                parts.append(" - " + str(-_const_value(t)))
            elif isinstance(t, Product) and _leading_const(t) is not None and _leading_const(t) < 0:
                parts.append(" - " + _negate_leading(t)._str(2))
            else:
                parts.append(" + " + t._str(1))
        s = "".join(parts)
        return f"({s})" if prec >= 2 else s


class Product(Expression):
    __slots__ = ("factors",)

    def __init__(self, factors):
        super().__init__()
        self.factors = tuple(factors)

    def _build_key(self):
        return (4,) + tuple(f.key() for f in self.factors)

    def diff(self):
        terms = []
        for i, f in enumerate(self.factors):
            d = f.diff()
            if is_zero(d):
                continue
            terms.append(mul(*self.factors[:i], d, *self.factors[i + 1 :]))
        return add(*terms) if terms else ZERO

    def _eval(self, env):
        total = self.factors[0]._eval(env)
        for f in self.factors[1:]:
            total = total * f._eval(env)
        return total

    def _str(self, prec):
        parts = []
        for f in self.factors:
            if isinstance(f, Recip) and parts:
                parts.append("/" + f.arg._str(5))
            else:
                parts.append(("*" if parts else "") + f._str(2))
        s = "".join(parts)
        return f"({s})" if prec > 2 else s


class IntPower(Expression):
    """base**n with integer n >= 2 (constructors normalise everything else)."""

    __slots__ = ("base", "exponent")

    def __init__(self, base, exponent: int):
        super().__init__()
        self.base = base
        self.exponent = int(exponent)

    def _build_key(self):
        return (5, self.base.key(), self.exponent)

    def diff(self):
        db = self.base.diff()
        if is_zero(db):
            return ZERO
        return mul(Rational(self.exponent), intpow(self.base, self.exponent - 1), db)

    def _eval(self, env):
        return self.base._eval(env) ** self.exponent

    def _str(self, prec):
        s = f"{self.base._str(5)}^{self.exponent}"
        return f"({s})" if prec > 4 else s


class Neg(Expression):
    __slots__ = ("arg",)

    def __init__(self, arg):
        super().__init__()
        self.arg = arg

    def _build_key(self):
        return (6, self.arg.key())

    def diff(self):
        return neg(self.arg.diff())

    def _eval(self, env):
        return -self.arg._eval(env)

    def _str(self, prec):
        s = "-" + self.arg._str(3)
        return f"({s})" if prec >= 2 else s


class Recip(Expression):
    __slots__ = ("arg",)

    def __init__(self, arg):
        super().__init__()
        self.arg = arg

    def _build_key(self):
        return (7, self.arg.key())

    def diff(self):
        da = self.arg.diff()
        if is_zero(da):
            return ZERO
        return neg(mul(da, recip(intpow(self.arg, 2))))

    def _eval(self, env):
        v = self.arg._eval(env)
        if _MASKED in env:
            return np.where(v == 0, np.nan, np.divide(1.0, v))  # np.divide: no ZeroDivisionError
        if np.any(v == 0):
            raise EvalDomainError("division by zero")
        return 1.0 / v

    def _str(self, prec):
        s = f"1/{self.arg._str(5)}"
        return f"({s})" if prec > 2 else s


def _eval_log(v):
    if np.any(v <= 0):
        raise EvalDomainError("log of non-positive argument")
    return np.log(v)


class Func(Expression):
    __slots__ = ("name", "arg")

    def __init__(self, name, arg):
        super().__init__()
        self.name = name
        self.arg = arg

    def _build_key(self):
        return (8, self.name, self.arg.key())

    def diff(self):
        da = self.arg.diff()
        if is_zero(da):
            return ZERO
        outer = _FUNCTIONS[self.name][1](self.arg)
        return mul(outer, da)

    def _eval(self, env):
        v = self.arg._eval(env)
        if self.name == "log" and _MASKED in env:
            return np.where(v > 0, np.log(v), np.nan)
        return _FUNCTIONS[self.name][0](v)

    def _str(self, prec):
        return f"{self.name}({self.arg._str(0)})"


class Quadrature(Expression):
    """Antiderivative in x of ``integrand`` from 0, evaluated numerically to 1e-12.

    Differentiating returns the integrand, so the family stays closed under
    differentiation.
    """

    __slots__ = ("integrand",)

    def __init__(self, integrand):
        super().__init__()
        self.integrand = integrand

    def _build_key(self):
        return (9, self.integrand.key())

    def diff(self):
        return self.integrand

    def _eval(self, env):
        x = env["x"]
        # one adaptive sweep from 0 to every x; the integrand is evaluated on
        # all nodes of a refinement pass at once, and where it is NaN
        # (outside its domain) so is every x beyond
        f = lambda t: _eval_masked(self.integrand, {"x": t})
        v = numeric.quadrature(f, 0.0, x, tol=1e-12, domain=True)
        if _MASKED not in env and np.isnan(v):
            raise EvalDomainError(f"integrand is not finite between 0 and {float(x):g}")
        return v

    def _str(self, prec):
        return f"quad({self.integrand._str(0)}, dx, from=0)"


ZERO = Rational(0)
ONE = Rational(1)
X = Var()

_FUNCTIONS = {
    # name: (numeric evaluation, outer derivative f'(u), (argument, exact value there))
    "exp": (np.exp, lambda u: exp(u), (0, ONE)),
    "log": (_eval_log, lambda u: recip(u), (1, ZERO)),
    "sinh": (np.sinh, lambda u: cosh(u), (0, ZERO)),
    "cosh": (np.cosh, lambda u: sinh(u), (0, ONE)),
    "tanh": (np.tanh, lambda u: recip(intpow(cosh(u), 2)), (0, ZERO)),
    "sin": (np.sin, lambda u: cos(u), (0, ZERO)),
    "cos": (np.cos, lambda u: neg(sin(u)), (0, ONE)),
    "tan": (np.tan, lambda u: recip(intpow(cos(u), 2)), (0, ZERO)),
}


def _const_value(e):
    if isinstance(e, Rational):
        return e.value
    if isinstance(e, Real):
        return e.value
    return None


def is_zero(e):
    return isinstance(e, Rational) and e.value == 0


def _leading_const(p):
    if isinstance(p, Product):
        return _const_value(p.factors[0])
    return None


def _negate_leading(p):
    c = -_const_value(p.factors[0])
    return mul(as_expression(c), *p.factors[1:])


# ---------------------------------------------------------------------------
# smart constructors


def add(*terms):
    """Flatten, fold constants and merge identical terms of a sum."""
    const = Fraction(0)
    merged = {}  # key -> [coeff, core]

    def absorb(t):
        nonlocal const
        if isinstance(t, Sum):
            for s in t.terms:
                absorb(s)
            return
        cv = _const_value(t)
        if cv is not None:
            const = const + cv  # a float on either side makes the sum a float
            return
        coeff, core = _split_coeff(t)
        k = core.key()
        if k in merged:
            merged[k][0] += coeff
        else:
            merged[k] = [coeff, core]

    for t in terms:
        absorb(as_expression(t))

    out = []
    for coeff, core in merged.values():
        if coeff == 0:
            continue
        if coeff == 1:
            out.append(core)
        elif coeff == -1:
            out.append(Neg(core))
        else:
            out.append(mul(as_expression(coeff), core))
    if const != 0:
        out.append(as_expression(const))
    if not out:
        return ZERO
    out.sort(key=lambda e: e.key())
    if len(out) == 1:
        return out[0]
    return Sum(out)


def sub(a, b):
    return add(a, neg(as_expression(b)))


def _split_coeff(t):
    """Decompose a non-constant term as (rational-or-float coefficient, core)."""
    if isinstance(t, Neg):
        c, core = _split_coeff(t.arg)
        return -c, core
    if isinstance(t, Product):
        cv = _const_value(t.factors[0])
        if cv is not None:
            rest = t.factors[1:]
            core = rest[0] if len(rest) == 1 else Product(rest)
            return cv, core
    return Fraction(1), t


def _split_power(f):
    """Decompose a factor as (base, integer exponent)."""
    if isinstance(f, IntPower):
        return f.base, f.exponent
    if isinstance(f, Recip):
        b, n = _split_power(f.arg)
        return b, -n
    return f, 1


def mul(*factors):
    """Flatten, fold constants, merge identical bases and exponential factors."""
    const = Fraction(1)
    bases = {}  # key -> [base, exponent]
    exp_args = []
    sign = 1

    def absorb(f):
        nonlocal const, sign
        if isinstance(f, Product):
            for g in f.factors:
                absorb(g)
            return
        if isinstance(f, Neg):
            sign = -sign
            absorb(f.arg)
            return
        cv = _const_value(f)
        if cv is not None:
            const = const * cv
            return
        if isinstance(f, Func) and f.name == "exp":
            exp_args.append(f.arg)
            return
        base, n = _split_power(f)
        k = base.key()
        if k in bases:
            bases[k][1] += n
        else:
            bases[k] = [base, n]

    for f in factors:
        absorb(as_expression(f))

    if exp_args:
        combined = exp(add(*exp_args)) if len(exp_args) > 1 else exp(exp_args[0])
        cv = _const_value(combined)
        if cv is not None:
            const = const * cv
        else:
            bases[combined.key()] = [combined, 1]

    if const == 0:
        return ZERO
    const = const * sign

    out = []
    for base, n in bases.values():
        if n == 0:
            continue
        if n == 1:
            out.append(base)
        elif n > 1:
            out.append(IntPower(base, n))
        elif n == -1:
            out.append(Recip(base))
        else:
            out.append(Recip(IntPower(base, -n)))
    out.sort(key=lambda e: e.key())
    if not out:
        return as_expression(const)
    if const == 1:
        pass
    elif const == -1:
        if len(out) == 1:
            return Neg(out[0])
        return Neg(Product(out))
    else:
        out.insert(0, as_expression(const))
    if len(out) == 1:
        return out[0]
    return Product(out)


def neg(e):
    e = as_expression(e)
    cv = _const_value(e)
    if cv is not None:
        return as_expression(-cv)
    if isinstance(e, Neg):
        return e.arg
    if isinstance(e, Sum):
        return add(*[neg(t) for t in e.terms])
    if isinstance(e, Product) and _leading_const(e) is not None:
        return _negate_leading(e)
    return Neg(e)


def recip(e):
    e = as_expression(e)
    cv = _const_value(e)
    if cv is not None:
        if cv == 0:
            raise ZeroDivisionError("reciprocal of zero")
        if isinstance(cv, Fraction):
            return Rational(1 / cv)
        return Real(1.0 / cv)
    if isinstance(e, Neg):
        return neg(recip(e.arg))
    if isinstance(e, Recip):
        return e.arg
    if isinstance(e, Product):
        return mul(*[recip(f) for f in e.factors])
    if isinstance(e, Func) and e.name == "exp":
        return exp(neg(e.arg))
    return Recip(e)


def intpow(e, n):
    e = as_expression(e)
    n = int(n)
    if n == 0:
        return ONE
    if n == 1:
        return e
    cv = _const_value(e)
    if cv is not None:
        if isinstance(cv, Fraction):
            return Rational(cv**n) if n > 0 else Rational(Fraction(1) / cv ** (-n))
        return Real(float(cv) ** n)
    if n < 0:
        return recip(intpow(e, -n))
    if isinstance(e, Neg):
        p = intpow(e.arg, n)
        return p if n % 2 == 0 else neg(p)
    if isinstance(e, IntPower):
        return intpow(e.base, e.exponent * n)
    if isinstance(e, Recip):
        return recip(intpow(e.arg, n))
    if isinstance(e, Product):
        return mul(*[intpow(f, n) for f in e.factors])
    if isinstance(e, Func) and e.name == "exp":
        return exp(mul(Rational(n), e.arg))
    return IntPower(e, n)


def _func(name, e):
    """``name(e)``, exact at the table's special argument; log(exp(u)) is u."""
    e = as_expression(e)
    at, value = _FUNCTIONS[name][2]
    if isinstance(e, Rational) and e.value == at:
        return value
    if name == "log" and isinstance(e, Func) and e.name == "exp":
        return e.arg
    return Func(name, e)


def _make_func(name):
    def build(e):
        return _func(name, e)

    build.__name__ = name
    return build


exp = _make_func("exp")
log = _make_func("log")
sinh = _make_func("sinh")
cosh = _make_func("cosh")
tanh = _make_func("tanh")
sin = _make_func("sin")
cos = _make_func("cos")
tan = _make_func("tan")


def diff(e, order: int = 1):
    """Exact symbolic ``order``-th derivative of ``e`` in x."""
    out = as_expression(e)
    for _ in range(order):
        out = out.diff()
    return out


def evaluate(e, x):
    return as_expression(e).evaluate(x)


# ---------------------------------------------------------------------------
# closed-form antiderivatives with quadrature fallback


def _linear_parts(e):
    """Return (a, b) with e == a*x + b for structurally linear e, else None."""
    if isinstance(e, Var):
        return (Fraction(1), Fraction(0))
    cv = _const_value(e)
    if cv is not None:
        return (Fraction(0), cv)
    if isinstance(e, Neg):
        p = _linear_parts(e.arg)
        return (-p[0], -p[1]) if p else None
    if isinstance(e, Product):
        coeff, core = _split_coeff(e)
        if isinstance(core, Var):
            return (coeff, Fraction(0))
        return None
    if isinstance(e, Sum):
        a = Fraction(0)
        b = Fraction(0)
        for t in e.terms:
            p = _linear_parts(t)
            if p is None:
                return None
            a, b = a + p[0], b + p[1]
        return (a, b)
    return None


def poly_coeffs(e):
    """Ascending coefficients of ``e`` as a polynomial in x, or None."""
    cv = _const_value(e)
    if cv is not None:
        return [cv]
    if isinstance(e, Var):
        return [Fraction(0), Fraction(1)]
    if isinstance(e, Neg):
        c = poly_coeffs(e.arg)
        return [-x for x in c] if c is not None else None
    if isinstance(e, Sum):
        out = []
        for t in e.terms:
            c = poly_coeffs(t)
            if c is None:
                return None
            if len(c) > len(out):
                out.extend([Fraction(0)] * (len(c) - len(out)))
            for i, x in enumerate(c):
                out[i] = out[i] + x
        return out
    if isinstance(e, Product):
        factors = [poly_coeffs(f) for f in e.factors]
    elif isinstance(e, IntPower):
        factors = [poly_coeffs(e.base)] * e.exponent
    else:
        return None
    if any(c is None for c in factors):
        return None
    out = [Fraction(1)]
    for c in factors:
        out = _convolve(out, c)
    return out


def _convolve(a, b):
    """Coefficients of the product of two ascending coefficient lists, exactly."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _poly_expr(coeffs):
    return add(*[mul(as_expression(c), intpow(X, i)) for i, c in enumerate(coeffs)])


def _int_poly_times_exp(coeffs, w_a, w_b):
    # integral of (sum c_i x^i) * exp(a x + b): repeated integration by parts
    ew = exp(add(mul(as_expression(w_a), X), as_expression(w_b)))
    n = len(coeffs) - 1
    # solve d/dx (e^{ax+b} * sum q_i x^i) = e^{ax+b} * sum c_i x^i
    # => a q_i + (i+1) q_{i+1} = c_i
    q = [Fraction(0)] * (n + 1)
    a = Fraction(w_a) if not isinstance(w_a, float) else w_a
    q[n] = coeffs[n] / a
    for i in range(n - 1, -1, -1):
        q[i] = (coeffs[i] - (i + 1) * q[i + 1]) / a
    return mul(ew, _poly_expr(q))


def antiderivative(e):
    """Antiderivative in x, in closed form when a known pattern applies.

    Falls back to a quadrature node, the antiderivative from 0.  No
    integration constant is added: the pattern forms are used as-is.
    """
    e = as_expression(e)

    c = poly_coeffs(e)
    if c is not None:
        return _poly_expr([Fraction(0)] + [ci / (i + 1) for i, ci in enumerate(c)])

    if isinstance(e, Sum):
        done = []
        failed = []
        for t in e.terms:
            r = _antiderivative_term(t)
            if r is None:
                failed.append(t)
            else:
                done.append(r)
        if failed:
            done.append(Quadrature(add(*failed)))
        return add(*done)

    r = _antiderivative_term(e)
    if r is not None:
        return r
    return Quadrature(e)


def _antiderivative_term(e):
    c = poly_coeffs(e)
    if c is not None:
        return _poly_expr([Fraction(0)] + [ci / (i + 1) for i, ci in enumerate(c)])

    coeff, core = _split_coeff(e)
    factors = core.factors if isinstance(core, Product) else (core,)

    poly_factors = []
    special = []
    for f in factors:
        if poly_coeffs(f) is not None:
            poly_factors.append(f)
        else:
            special.append(f)
    if len(special) != 1:
        return None
    sp = special[0]
    pc = poly_coeffs(mul(*poly_factors)) if poly_factors else [Fraction(1)]
    pc = [coeff * q for q in pc]

    base, n = _split_power(sp)
    if isinstance(base, Func):
        lin = _linear_parts(base.arg)
        if lin is None or lin[0] == 0:
            return None
        a = lin[0]
        name = base.name
        if name == "exp" and n == 1:
            return _int_poly_times_exp(pc, a, lin[1])
        if len(pc) > 1 or pc[0] == 0:
            return None  # only bare special factors beyond the exp case
        k = pc[0]
        w = base.arg
        if name == "tanh" and n == 1:
            return mul(as_expression(k / a), log(cosh(w)))
        if name == "sinh" and n == 1:
            return mul(as_expression(k / a), cosh(w))
        if name == "cosh" and n == 1:
            return mul(as_expression(k / a), sinh(w))
        if name == "cosh" and n == -2:
            return mul(as_expression(k / a), tanh(w))
        if name == "sin" and n == 1:
            return mul(as_expression(-k / a), cos(w))
        if name == "cos" and n == 1:
            return mul(as_expression(k / a), sin(w))
        if name == "cos" and n == -2:
            return mul(as_expression(k / a), tan(w))
        return None

    # (a x + b)^n for negative n (positive handled by the polynomial path)
    lin = _linear_parts(base)
    if lin is not None and lin[0] != 0 and n < 0:
        if len(pc) > 1 or pc[0] == 0:
            return None
        k = pc[0]
        a = lin[0]
        if n == -1:
            return mul(as_expression(k / a), log(base))
        return mul(as_expression(k / (a * (n + 1))), intpow(base, n + 1))
    return None


# ---------------------------------------------------------------------------
# parser


_ALPHABET = re.compile(r"[\w .+\-*/^()]*")  # word characters, spaces and . + - * / ^ ( )
_LEVEL = {ast.Add: add, ast.Sub: add, ast.Mult: mul, ast.Div: mul}  # one constructor call per level
_INVERSE = {ast.Sub: neg, ast.Div: recip}  # applied to the right operand
_UNARY = {ast.UAdd: as_expression, ast.USub: neg}


def parse_expression(text: str):
    """Parse "2*x^2 - 1/cosh(x)^2" style strings into an Expression.

    Python's arithmetic with ``^`` for the power, parsed by :func:`ast.parse`
    and walked against a whitelist: exact integer and decimal literals, x,
    ``+ - * /``, integer exponents, parentheses and one-argument calls of the
    ``_FUNCTIONS``.  Nothing is evaluated; anything else, a name other than x
    included, raises ValueError.
    """
    src = " ".join(str(text).split())
    if not _ALPHABET.fullmatch(src) or "**" in src:
        raise ValueError("unexpected character")
    raw = src.replace("^", "**").encode()  # ast offsets count UTF-8 bytes
    others = set()  # names other than x, all reported at the end

    def seg(node):
        return raw[node.col_offset : node.end_col_offset].decode()

    def walk(node):
        op = type(getattr(node, "op", None))
        if op in _LEVEL:  # a - b + c (or a * b / c) flattened as the old grammar's loop built it
            parts = []
            while isinstance(node, ast.BinOp) and _LEVEL.get(type(node.op)) is _LEVEL[op]:
                parts.append((_INVERSE.get(type(node.op), as_expression), node.right))
                node = node.left
            return _LEVEL[op](walk(node), *[inverse(walk(n)) for inverse, n in reversed(parts)])
        if op is ast.Pow:
            return intpow(walk(node.left), exponent(node))
        if op in _UNARY:
            return _UNARY[op](walk(node.operand))
        if isinstance(node, ast.Constant) and re.fullmatch(r"[0-9]*\.?[0-9]*", seg(node)):
            return Rational(Fraction(seg(node)))
        name = seg(node.func if isinstance(node, ast.Call) else node)
        if isinstance(node, ast.Name) and name not in _FUNCTIONS and (name[0].isalpha() or name[0] == "_"):
            others.update({name} - {"x"})
            return X
        if isinstance(node, ast.Call) and name in _FUNCTIONS and len(node.args) == 1:  # no comma: no keywords
            if node.func.col_offset == node.col_offset:  # not "(exp)(x)"
                return _func(name, walk(node.args[0]))
        raise ValueError(f"unsupported {seg(node)!r}")

    def exponent(node):  # ['-'] then digits, or a parenthesised constant with an integer value
        e, sign = node.right, 1
        if isinstance(e, ast.UnaryOp) and isinstance(e.op, ast.USub) and e.end_col_offset == node.end_col_offset:
            node, e, sign = e, e.operand, -1
        if e.end_col_offset < node.end_col_offset:  # e is parenthesised
            value = _const_value(walk(e))
            if isinstance(value, Fraction) and value.denominator == 1:
                return sign * int(value)
        elif isinstance(e, ast.Constant) and seg(e).isdigit():
            return sign * int(seg(e))
        raise ValueError("exponent must be an integer")

    try:
        e = walk(ast.parse(raw, mode="eval").body)
    except ZeroDivisionError:
        raise ValueError("division by zero in a constant") from None
    except (SyntaxError, RecursionError) as err:
        raise ValueError(getattr(err, "msg", str(err))) from None
    if others:
        raise ValueError(f"x is the only variable, got {', '.join(sorted(others))}")
    return e
