"""Differential polynomials over formal potential symbols.

A DiffPolynomial is a polynomial with exact rational coefficients in the
symbols u_i and their x-derivatives u_i', u_i'', ...  A monomial is stored as
a sorted tuple of ((symbol index, derivative order), exponent) pairs; the
constant monomial is ``()``.  Every coefficient in ``coeffs`` is a nonzero
``Fraction``.  The total derivative D_x obeys the Leibniz rule and sends
u_i^(d) to u_i^(d+1).

The ring operations and D_x build each result once, in a fresh dict that no
operand shares: ``+`` adds into one copy of the left operand's coefficients
and deletes a term that cancels, ``*`` and D_x accumulate every product or
Leibniz term into one dict and drop the cancelled ones at the end.  Only the
public constructor coerces its coefficients to ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction

from . import expr as ex

__all__ = ["DiffPolynomial", "format_diffpoly"]


def _drop_zeros(coeffs):
    for mono in [m for m, c in coeffs.items() if not c]:
        del coeffs[mono]
    return coeffs


class DiffPolynomial:
    """Polynomial in formal potentials and their x-derivatives, rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        if coeffs:
            for mono, c in coeffs.items():
                c = Fraction(c)
                if c != 0:
                    self.coeffs[mono] = c

    @classmethod
    def _wrap(cls, coeffs):
        """Take ``coeffs`` as it is: nonzero ``Fraction`` values, a dict nothing else holds."""
        p = object.__new__(cls)
        p.coeffs = coeffs
        return p

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls):
        return cls._wrap({})

    @classmethod
    def constant(cls, q):
        q = Fraction(q)
        return cls._wrap({(): q} if q else {})

    @classmethod
    def symbol(cls, index=1, order=0):
        return cls._wrap({(((index, order), 1),): Fraction(1)})

    # -- ring operations -----------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        out = self.coeffs.copy()
        for m, c in other.coeffs.items():
            prev = out.get(m)
            if prev is None:
                out[m] = c
            else:
                c = prev + c
                if c:
                    out[m] = c
                else:
                    del out[m]
        return self._wrap(out)

    __radd__ = __add__

    def __neg__(self):
        return self._wrap({m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        out = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
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
        return self._wrap(_drop_zeros(out))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        q = Fraction(scalar)
        return self._wrap({m: c / q for m, c in self.coeffs.items()})

    @staticmethod
    def _coerce(v):
        if isinstance(v, DiffPolynomial):
            return v
        return DiffPolynomial.constant(v)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = DiffPolynomial.constant(other)
        return isinstance(other, DiffPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        coeffs = self.coeffs
        if not coeffs or (len(coeffs) == 1 and () in coeffs):
            # a constant equals its Fraction value, so it hashes as that value
            return hash(coeffs.get((), 0))
        return hash(frozenset(coeffs.items()))

    def is_zero(self):
        return not self.coeffs

    # -- calculus -----------------------------------------------------------
    def d_x(self):
        """Total derivative: Leibniz expansion, u_i^(d) -> u_i^(d+1)."""
        out = {}
        for mono, c in self.coeffs.items():
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
        return self._wrap(_drop_zeros(out))

    # -- conversion ----------------------------------------------------------
    def to_expression(self, potentials, var="x"):
        """Substitute concrete expressions for the potential symbols.

        ``potentials`` maps symbol index -> Expression in ``var``; derivative
        orders are realised by exact symbolic differentiation.
        """
        total = ex.ZERO
        for mono, c in self.coeffs.items():
            factors = [ex.Rational(c)]
            for (sym, order), e in mono:
                base = ex.diff(potentials[sym], var, order)
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
    if single is None:
        syms = {sym for mono in p.coeffs for (sym, _), _ in mono}
        single = syms <= {1}
    parts = []
    for mono in sorted(p.coeffs, key=_mono_sort_key):
        c = p.coeffs[mono]
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
