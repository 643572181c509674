"""Schwarzian and modified-Schwarzian derivatives and the third-order equation.

Conventions: throughout this module the underlying linear equation is
psi_xx = c(x) psi.  For a fundamental pair (psi1, psi2) of that equation the
ratio phi = psi1/psi2 satisfies schwarz(phi) = c, the products psi1^2,
psi2^2, psi1 psi2 span the solutions of
phi_xxx = 4 c phi_x + 2 c_x phi, and 4 c phi^2 + phi_x^2 - 2 phi phi_xx is
the constant square of the Wronskian.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import expr as ex
from . import numeric
from .riccati import MobiusMap, sample_points

__all__ = [
    "schwarz",
    "mobius_invariance",
    "report",
    "third_order_residual",
    "first_integral",
]

_HALF = ex.Rational(Fraction(1, 2))
_THREE_QUARTERS = ex.Rational(Fraction(3, 4))


def schwarz(phi):
    """Schwarzian derivative (3/4)(phi''/phi')^2 - (1/2) phi'''/phi', the modified Schwarzian of phi'.

    Invariant under constant fraction-linear maps of phi; equals c(x) when
    phi is a ratio of independent solutions of psi_xx = c psi.
    """
    return _schwarz_and_size(phi)[0]


def _schwarz_and_size(phi):
    """schwarz(phi) and (phi''/phi')^2, the size of its two terms."""
    d1 = ex.diff(ex.as_expression(phi))
    if ex.is_zero(d1):
        raise ValueError("phi is constant: the Schwarzian is undefined")
    return _modified_schwarzian(d1)


def mobius_invariance(phi, maps, interval, s0):
    """Largest |schwarz(m.apply(phi)) - s0| over the maps on sample points of ``interval``, relative to the terms.

    Each point's gap is divided by the size of the Schwarzian's terms,
    max(1, (phi''/phi')^2) of phi and of the mapped phi: next to a pole the
    terms grow without bound and the gap is their rounding.  NaN if any
    map's gap is NaN.
    """
    d1 = ex.diff(phi)
    size = _term_size(d1, ex.diff(d1))
    gaps = []
    for m in maps:
        mapped, mapped_size = _schwarz_and_size(m.apply(phi))
        pts = sample_points([phi, s0, mapped], interval=interval)
        sizes = np.maximum(1.0, np.maximum(size.evaluate(x=pts), mapped_size.evaluate(x=pts)))
        gaps.append(np.max(np.abs(ex.sub(mapped, s0).evaluate(x=pts)) / sizes))
    return float(np.max(gaps, initial=0.0))


def report(phi, s0, interval):
    """The check of ``riccati schwarz``: s0 = schwarz(phi) is invariant under one fixed fraction-linear map."""
    invariance = mobius_invariance(phi, [MobiusMap(1.25, -0.5, 0.75, 2.0)], interval, s0)
    return {"checks": [numeric.check("mobius_invariance", invariance, 1e-9)]}


def _modified_schwarzian(a):
    """(3/4)(a'/a)^2 - (1/2) a''/a and the size of its terms, (a'/a)^2, without a check on the zeros of a."""
    d1 = ex.diff(a)
    d2 = ex.diff(d1)
    size = _term_size(a, d1)
    first = ex.mul(_THREE_QUARTERS, size)
    second = ex.mul(_HALF, d2, ex.recip(a))
    return ex.sub(first, second), size


def _term_size(a, d1):
    """(a'/a)^2 from a and d1 = a', the size of the terms of a's modified Schwarzian."""
    return ex.intpow(ex.mul(d1, ex.recip(a)), 2)


def third_order_residual(phi, c):
    """Residual phi''' - 4 c phi' - 2 c' phi of the product-solutions equation."""
    phi = ex.as_expression(phi)
    c = ex.as_expression(c)
    return ex.sub(
        ex.diff(phi, 3),
        ex.add(ex.mul(4, c, ex.diff(phi)), ex.mul(2, ex.diff(c), phi)),
    )


def first_integral(phi, c):
    """The combination 4 c phi^2 + phi_x^2 - 2 phi phi_xx.

    Constant (equal to the squared Wronskian of the underlying pair) along
    solutions of the third-order equation.
    """
    phi = ex.as_expression(phi)
    c = ex.as_expression(c)
    d1 = ex.diff(phi)
    d2 = ex.diff(d1)
    return ex.add(
        ex.mul(4, c, ex.intpow(phi, 2)),
        ex.intpow(d1, 2),
        ex.neg(ex.mul(2, phi, d2)),
    )
