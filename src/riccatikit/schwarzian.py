"""Schwarzian and modified-Schwarzian derivatives and the third-order equation.

Conventions: throughout this module the underlying linear equation is
psi_xx = c(x) psi.  For a fundamental pair (psi1, psi2) of that equation the
ratio phi = psi1/psi2 satisfies schwarz(phi) = c, the products psi1^2,
psi2^2, psi1 psi2 span the solutions of
phi_xxx = 4 c phi_x + 2 c_x phi, and 4 c phi^2 + phi_x^2 - 2 phi phi_xx is
the constant square of the Wronskian.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import math

import numpy as np

from . import expr as ex
from . import numeric
from .riccati import DEFAULT_INTERVAL, MobiusMap, sample_points

__all__ = [
    "SchwarzTriple",
    "schwarz",
    "mobius_invariance",
    "report",
    "dmod",
    "third_order_residual",
    "first_integral",
    "riccati_pair",
    "recover_potential",
]

_HALF = ex.Rational(Fraction(1, 2))
_THREE_QUARTERS = ex.Rational(Fraction(3, 4))


def schwarz(phi, var="x"):
    """Schwarzian derivative (3/4)(phi''/phi')^2 - (1/2) phi'''/phi'.

    Invariant under constant fraction-linear maps of phi; equals c(x) when
    phi is a ratio of independent solutions of psi_xx = c psi.
    """
    phi = ex.as_expression(phi)
    d1 = ex.diff(phi, var)
    if ex.is_zero(d1):
        raise ValueError("phi is constant: the Schwarzian is undefined")
    d2 = ex.diff(d1, var)
    d3 = ex.diff(d2, var)
    first = ex.mul(_THREE_QUARTERS, ex.intpow(ex.mul(d2, ex.recip(d1)), 2))
    second = ex.mul(_HALF, d3, ex.recip(d1))
    return ex.sub(first, second)


def mobius_invariance(phi, maps, interval, s0):
    """Largest |schwarz(m.apply(phi)) - s0| over the maps on sample points of ``interval``; NaN if any map's is NaN."""
    gaps = []
    for m in maps:
        mapped = schwarz(m.apply(phi))
        pts = sample_points([phi, s0, mapped], interval=interval)
        gaps.append(np.max(np.abs(ex.sub(mapped, s0).evaluate(x=pts))))
    return float(np.max(gaps, initial=0.0))


def report(phi, s0, interval):
    """The check of ``riccati schwarz``: s0 = schwarz(phi) is invariant under one fixed fraction-linear map."""
    invariance = mobius_invariance(phi, [MobiusMap(1.25, -0.5, 0.75, 2.0)], interval, s0)
    return {"checks": [numeric.check("mobius_invariance", invariance, 1e-9)]}


def dmod(a, var="x", interval=DEFAULT_INTERVAL):
    """Modified Schwarzian (3/4) a_x^2/a^2 - (1/2) a_xx/a.

    Satisfies dmod(e^{2b}) = b_x^2 - b_xx; requires a to be nonvanishing on
    the working interval.
    """
    a = ex.as_expression(a)
    _require_one_signed(a, var, "a", interval)
    d1 = ex.diff(a, var)
    d2 = ex.diff(d1, var)
    first = ex.mul(_THREE_QUARTERS, ex.intpow(ex.mul(d1, ex.recip(a)), 2))
    second = ex.mul(_HALF, d2, ex.recip(a))
    return ex.sub(first, second)


def _require_one_signed(a, var, name, interval=DEFAULT_INTERVAL):
    vals = a.evaluate({var: sample_points([a], interval=interval, var=var)})
    if np.any(vals == 0) or (np.min(vals) < 0 < np.max(vals)):
        raise ValueError(f"{name} vanishes on the working interval")


def third_order_residual(phi, c, var="x"):
    """Residual phi''' - 4 c phi' - 2 c' phi of the product-solutions equation."""
    phi = ex.as_expression(phi)
    c = ex.as_expression(c)
    return ex.sub(
        ex.diff(phi, var, 3),
        ex.add(ex.mul(4, c, ex.diff(phi, var)), ex.mul(2, ex.diff(c, var), phi)),
    )


def first_integral(phi, c, var="x"):
    """The combination 4 c phi^2 + phi_x^2 - 2 phi phi_xx.

    Constant (equal to the squared Wronskian of the underlying pair) along
    solutions of the third-order equation.
    """
    phi = ex.as_expression(phi)
    c = ex.as_expression(c)
    d1 = ex.diff(phi, var)
    d2 = ex.diff(d1, var)
    return ex.add(
        ex.mul(4, c, ex.intpow(phi, 2)),
        ex.intpow(d1, 2),
        ex.neg(ex.mul(2, phi, d2)),
    )


def recover_potential(a, z, var="x"):
    """c(x) consistent with first_integral(a, c) == z, solved for c."""
    a = ex.as_expression(a)
    d1 = ex.diff(a, var)
    d2 = ex.diff(d1, var)
    num = ex.add(ex.as_expression(z), ex.neg(ex.intpow(d1, 2)), ex.mul(2, a, d2))
    return ex.mul(num, ex.recip(ex.mul(4, ex.intpow(a, 2))))


def riccati_pair(a, z, var="x", interval=DEFAULT_INTERVAL):
    """The two log-derivative solutions riding on a product solution.

    If a = psi1 psi2 with Wronskian v and z = v^2, then
    f_pm = (a' +- sqrt(z)) / (2a) both satisfy f' + f^2 = c with the
    potential recovered from the first integral.
    """
    a = ex.as_expression(a)
    if isinstance(z, ex.Expression):
        raise TypeError("z must be a number (the squared Wronskian constant)")
    if z < 0:
        raise ValueError("z must be non-negative")
    _require_one_signed(a, var, "a", interval)
    root = ex.as_expression(math.sqrt(z)) if not _is_exact_square(z) else ex.Rational(_exact_sqrt(z))
    d1 = ex.diff(a, var)
    half_recip = ex.mul(_HALF, ex.recip(a))
    f_plus = ex.mul(ex.add(d1, root), half_recip)
    f_minus = ex.mul(ex.sub(d1, root), half_recip)
    return f_plus, f_minus


def _is_exact_square(z):
    if isinstance(z, float):
        return False
    q = Fraction(z)
    return _isqrt_ok(q.numerator) and _isqrt_ok(q.denominator)


def _isqrt_ok(n):
    r = math.isqrt(n)
    return r * r == n


def _exact_sqrt(z):
    q = Fraction(z)
    return Fraction(math.isqrt(q.numerator), math.isqrt(q.denominator))


@dataclass(frozen=True)
class SchwarzTriple:
    """Squares and product of a fundamental pair of psi_xx = c psi."""

    phi1: ex.Expression
    phi2: ex.Expression
    phi3: ex.Expression
    wronskian: float

    @classmethod
    def from_pair(cls, psi1, psi2, var="x", drift_tol=1e-8):
        psi1 = ex.as_expression(psi1)
        psi2 = ex.as_expression(psi2)
        w = ex.sub(
            ex.mul(psi1, ex.diff(psi2, var)),
            ex.mul(psi2, ex.diff(psi1, var)),
        )
        vals = w.evaluate({var: sample_points([w], var=var)})
        v = float(np.mean(vals))
        if np.max(np.abs(vals - v)) > drift_tol * max(1.0, abs(v)):
            raise ValueError("Wronskian is not constant: the pair does not solve psi_xx = c psi")
        if abs(v) < 1e-12:
            raise ValueError("the pair is linearly dependent")
        return cls(
            ex.intpow(psi1, 2),
            ex.intpow(psi2, 2),
            ex.mul(psi1, psi2),
            v,
        )

    def basis(self):
        return (self.phi1, self.phi2, self.phi3)
