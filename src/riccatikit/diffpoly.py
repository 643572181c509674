"""Differential polynomials over formal potential symbols.

A DiffPolynomial is a polynomial with exact rational coefficients in the
symbols u_i and their x-derivatives u_i', u_i'', ...  A monomial is stored as
a sorted tuple of ((symbol index, derivative order), exponent) pairs; the
constant monomial is ``()``.  The total derivative D_x obeys the Leibniz rule
and sends u_i^(d) to u_i^(d+1).

The coefficients are integer numerators over one common denominator:
``_num`` maps each monomial to a nonzero int and ``_den`` is a positive int,
reduced so that gcd(_den, *numerators) == 1.  That form is canonical, so two
polynomials are equal exactly when their ``_num`` dicts and ``_den`` are.
``+`` adds numerators directly when the denominators match and otherwise
scales both sides to their lcm; ``*`` multiplies numerators and
denominators and reduces once; D_x multiplies numerators by exponents over
the same denominator; ``/ q`` folds q into numerators and denominator.  Every
result is built once, in a fresh dict that no operand shares, and no
``Fraction`` is made by the arithmetic.  ``coeffs`` is a read-only
``{monomial: Fraction}`` view for printing and conversion; the public
constructor takes ints or Fractions.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm

from . import expr as ex

__all__ = ["DiffPolynomial", "format_diffpoly"]


def _drop_zeros(num):
    for mono in [m for m, c in num.items() if not c]:
        del num[mono]
    return num


class _Coefficients(Mapping):
    """Read-only ``{monomial: Fraction}`` view of a polynomial's numerators over its denominator."""

    __slots__ = ("_num", "_den")

    def __init__(self, num, den):
        self._num = num
        self._den = den

    def __getitem__(self, mono):
        return Fraction(self._num[mono], self._den)

    def __iter__(self):
        return iter(self._num)

    def __len__(self):
        return len(self._num)


class DiffPolynomial:
    """Polynomial in formal potentials and their x-derivatives, rational coefficients."""

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs=None):
        fracs = {m: Fraction(c) for m, c in (coeffs or {}).items()}
        fracs = {m: c for m, c in fracs.items() if c}
        # over the lcm of reduced denominators, gcd(den, *numerators) is already 1
        den = lcm(*(c.denominator for c in fracs.values()))
        self._num = {m: c.numerator * (den // c.denominator) for m, c in fracs.items()}
        self._den = den

    @classmethod
    def _reduced(cls, num, den):
        """Wrap ``num`` (nonzero ints, a dict nothing else holds) over ``den`` > 0, gcd divided out."""
        g = gcd(den, *num.values())
        if g != 1:
            num = {m: c // g for m, c in num.items()}
            den //= g
        p = object.__new__(cls)
        p._num = num
        p._den = den
        return p

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls):
        return cls._reduced({}, 1)

    @classmethod
    def constant(cls, q):
        q = Fraction(q)
        return cls._reduced({(): q.numerator} if q else {}, q.denominator)

    @classmethod
    def symbol(cls, index=1, order=0):
        return cls._reduced({(((index, order), 1),): 1}, 1)

    @property
    def coeffs(self):
        return _Coefficients(self._num, self._den)

    # -- ring operations -----------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        den = self._den
        if den == other._den:
            out = self._num.copy()
            terms = other._num.items()
        else:
            den = lcm(den, other._den)
            scale = den // self._den
            out = {m: c * scale for m, c in self._num.items()}
            scale = den // other._den
            terms = [(m, c * scale) for m, c in other._num.items()]
        for m, c in terms:
            prev = out.get(m)
            if prev is None:
                out[m] = c
            else:
                c += prev
                if c:
                    out[m] = c
                else:
                    del out[m]
        return self._reduced(out, den)

    __radd__ = __add__

    def __neg__(self):
        return self._reduced({m: -c for m, c in self._num.items()}, self._den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        out = {}
        for m1, c1 in self._num.items():
            for m2, c2 in other._num.items():
                if not m1:
                    mono = m2
                elif not m2:
                    mono = m1
                else:
                    factors = dict(m1)
                    for k, e in m2:
                        factors[k] = factors.get(k, 0) + e
                    mono = tuple(sorted(factors.items()))
                prev = out.get(mono)
                out[mono] = c1 * c2 if prev is None else prev + c1 * c2
        return self._reduced(_drop_zeros(out), self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        q = Fraction(scalar)
        if not q:
            raise ZeroDivisionError("DiffPolynomial division by zero")
        scale = q.denominator if q > 0 else -q.denominator
        return self._reduced({m: c * scale for m, c in self._num.items()}, self._den * abs(q.numerator))

    @staticmethod
    def _coerce(v):
        if isinstance(v, DiffPolynomial):
            return v
        return DiffPolynomial.constant(v)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = DiffPolynomial.constant(other)
        return isinstance(other, DiffPolynomial) and self._den == other._den and self._num == other._num

    def __hash__(self):
        num = self._num
        if not num or (len(num) == 1 and () in num):
            # a constant equals its Fraction value, so it hashes as that value
            return hash(Fraction(num.get((), 0), self._den))
        return hash((frozenset(num.items()), self._den))

    def is_zero(self):
        return not self._num

    # -- calculus -----------------------------------------------------------
    def d_x(self):
        """Total derivative: Leibniz expansion, u_i^(d) -> u_i^(d+1)."""
        out = {}
        for mono, c in self._num.items():
            for (sym, order), e in mono:
                factors = dict(mono)
                if e == 1:
                    del factors[(sym, order)]
                else:
                    factors[(sym, order)] = e - 1
                up = (sym, order + 1)
                factors[up] = factors.get(up, 0) + 1
                term = tuple(sorted(factors.items()))
                prev = out.get(term)
                out[term] = c * e if prev is None else prev + c * e
        return self._reduced(_drop_zeros(out), self._den)

    # -- conversion ----------------------------------------------------------
    def to_expression(self, potentials):
        """Substitute concrete expressions for the potential symbols.

        ``potentials`` maps symbol index -> Expression in x; derivative
        orders are realised by exact symbolic differentiation.
        """
        total = ex.ZERO
        for mono, c in self.coeffs.items():
            factors = [ex.Rational(c)]
            for (sym, order), e in mono:
                base = ex.diff(potentials[sym], order)
                factors.append(ex.intpow(base, e))
            total = ex.add(total, ex.mul(*factors))
        return total

    def __repr__(self):
        return f"DiffPolynomial({format_diffpoly(self)})"

    def __str__(self):
        return format_diffpoly(self)


def _format_factor(sym, order, exponent, single):
    name = "u" if single else f"u_{sym}"
    name += "'" * order
    if exponent != 1:
        name += f"^{exponent}"
    return name


def _mono_sort_key(mono):
    degree = sum(e for _, e in mono)
    return (degree, tuple(((-sym, order), e) for (sym, order), e in mono))


def format_diffpoly(p, single=None):
    """Render like ``1/2*u_2 - 1/4*u_1' - 1/8*u_1^2``.

    With ``single`` true (default: auto-detect) the only potential prints as
    plain ``u``.
    """
    if p.is_zero():
        return "0"
    coeffs = p.coeffs
    if single is None:
        syms = {sym for mono in coeffs for (sym, _), _ in mono}
        single = syms <= {1}
    parts = []
    for mono in sorted(coeffs, key=_mono_sort_key):
        c = coeffs[mono]
        body = "*".join(_format_factor(s, o, e, single) for (s, o), e in mono)
        mag = abs(c)
        if not body:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}*{body}"
        if not parts:
            parts.append(("-" if c < 0 else "") + text)
        else:
            parts.append((" - " if c < 0 else " + ") + text)
    return "".join(parts)
