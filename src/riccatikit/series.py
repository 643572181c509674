"""Formal series in the spectral parameter with differential-polynomial coefficients.

Three constructions live here: the log-derivative series f (and its mirror g)
solving f_x + f^2 = generalized potential, the modified-Schwarzian series
h = 1 + h_1/lambda + ..., and the recurrent zeta chain that produces potential
coefficients for truncated wavefunction series.
"""

from __future__ import annotations

from fractions import Fraction

from . import expr as ex
from . import numeric
from .diffpoly import DiffPolynomial, format_diffpoly
from .riccati import sample_points

__all__ = [
    "FormalSeries",
    "potential_series",
    "riccati_series",
    "riccati_series_residual",
    "modschwarz_series",
    "modschwarz_residual",
    "zeta_chain",
    "report",
]


class FormalSeries:
    """Sum_d c_d * lambda^d with DiffPolynomial coefficients.

    ``floor`` is the truncation floor: coefficients for degrees >= floor are
    exact, anything below is unknown and dropped.  ``floor=None`` marks an
    exact (polynomial) series.
    """

    __slots__ = ("terms", "floor")

    def __init__(self, terms=None, floor=None):
        self.terms = {}
        if terms:
            for d, p in terms.items():
                if not isinstance(p, DiffPolynomial):
                    p = DiffPolynomial.constant(p)
                if not p.is_zero():
                    self.terms[d] = p
        self.floor = floor
        if floor is not None:
            self.terms = {d: p for d, p in self.terms.items() if d >= floor}

    @property
    def lead(self):
        return max(self.terms) if self.terms else (self.floor if self.floor is not None else 0)

    def coeff(self, d):
        if self.floor is not None and d < self.floor:
            raise ValueError(f"degree {d} is below the truncation floor {self.floor}")
        return self.terms.get(d, DiffPolynomial.zero())

    def __add__(self, other):
        other = _coerce(other)
        floor = _max_floor(self.floor, other.floor)
        out = dict(self.terms)
        for d, p in other.terms.items():
            out[d] = out.get(d, DiffPolynomial.zero()) + p
        return FormalSeries(out, floor)

    __radd__ = __add__

    def __neg__(self):
        return FormalSeries({d: -p for d, p in self.terms.items()}, self.floor)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __mul__(self, other):
        other = _coerce(other)
        floor = None
        if self.floor is not None or other.floor is not None:
            candidates = []
            if self.floor is not None:
                candidates.append(self.floor + other.lead)
            if other.floor is not None:
                candidates.append(other.floor + self.lead)
            floor = max(candidates)
        out = {}
        for d1, p1 in self.terms.items():
            for d2, p2 in other.terms.items():
                d = d1 + d2
                if floor is not None and d < floor:
                    continue
                out[d] = out.get(d, DiffPolynomial.zero()) + p1 * p2
        return FormalSeries(out, floor)

    __rmul__ = __mul__

    def d_x(self):
        return FormalSeries({d: p.d_x() for d, p in self.terms.items()}, self.floor)

    def shift(self, m):
        """Multiply by lambda^m."""
        floor = None if self.floor is None else self.floor + m
        return FormalSeries({d + m: p for d, p in self.terms.items()}, floor)

    def __repr__(self):
        body = ", ".join(f"{d}: {p}" for d, p in sorted(self.terms.items(), reverse=True))
        return f"FormalSeries({{{body}}}, floor={self.floor})"


def _coerce(v):
    if isinstance(v, FormalSeries):
        return v
    if isinstance(v, DiffPolynomial):
        return FormalSeries({0: v})
    return FormalSeries({0: DiffPolynomial.constant(v)})


def _max_floor(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)


def potential_series(m, step=1):
    """U = lambda^m + u_1 lambda^{m-1} + ... + u_m as a series in p, lambda = p^step."""
    terms = {step * m: DiffPolynomial.constant(1)}
    for i in range(1, m + 1):
        terms[step * (m - i)] = DiffPolynomial.symbol(i)
    return FormalSeries(terms)


def _riccati_potential(m):
    """The f/g series' potential: U in p = lambda for m = 2, in p = k (lambda = k^2) for m = 1."""
    if m == 1:
        return potential_series(1, step=2)
    if m == 2:
        return potential_series(2)
    raise ValueError("generalized potential degree m must be 1 or 2")


def _square_convolution(s, k, lo):
    """sum_{a=lo}^{k-lo} s_a s_{k-a}, forming each product s_a s_{k-a} with a != k - a once."""
    half = DiffPolynomial.zero()
    for a in range(lo, (k + 1) // 2):
        half = half + s[a] * s[k - a]
    total = half + half
    if k % 2 == 0 and k // 2 >= lo:
        total = total + s[k // 2] * s[k // 2]
    return total


def riccati_series(m, depth):
    """Asymptotic log-derivative series pair (f, g) for the degree-m potential.

    f = p + f_0 + f_1/p + ... and g = -p + g_0 + g_1/p + ... solve
    w_x + w^2 = potential, with the parameter p equal to lambda for m = 2 and
    to k (lambda = k^2) for m = 1.  Coefficients are differential polynomials
    determined by the triangular systems

        2 f_0 = u_1,   2 f_1 + f_0' + f_0^2 = u_2,
        2 f_{j+1} + f_j' + sum_{i+l=j} f_i f_l = 0;

    the g system carries -2 on the left-hand sides.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    potential = _riccati_potential(m)
    u1, u2 = potential.coeff(1), potential.coeff(0)

    f = [u1 / 2]
    g = [-u1 / 2]
    if depth >= 1:
        f.append((u2 - f[0].d_x() - f[0] * f[0]) / 2)
        g.append((g[0].d_x() + g[0] * g[0] - u2) / 2)
    for j in range(1, depth):
        f.append(-(f[j].d_x() + _square_convolution(f, j, 0)) / 2)
        g.append((g[j].d_x() + _square_convolution(g, j, 0)) / 2)

    fs = FormalSeries({1: 1, **{-j: p for j, p in enumerate(f)}}, floor=-depth)
    gs = FormalSeries({1: -1, **{-j: p for j, p in enumerate(g)}}, floor=-depth)
    return fs, gs


def riccati_series_residual(s, m):
    """w_x + w^2 - potential for a series w from ``riccati_series(m, depth)``."""
    return s.d_x() + s * s - _riccati_potential(m)


def modschwarz_series(m, depth):
    """Series h = 1 + sum_k h_k lambda^{-k} solving the modified-Schwarzian equation.

    h is matched order by order against

        (3/4) h_x^2 - (1/2) h h_xx + lambda^m h^4 = U(x, lambda) h^2,

    the equation multiplied through by h^2, where
    U = lambda^m + u_1 lambda^{m-1} + ... + u_m.  With H2_j the coefficient of
    lambda^{-j} in h^2 (H2_0 = 1), the coefficient of lambda^{m-k} in the
    residual is 2 h_k + res_k, where every other term is known from lower
    orders:

        H2*_k = sum_{a=1}^{k-1} h_a h_{k-a},
        H4*_k = 2 H2*_k + sum_{a=1}^{k-1} H2_a H2_{k-a},
        res_k = H4*_k - H2*_k - sum_{i=1}^{min(m,k)} u_i H2_{k-i}
                + (3/4) sum_{a=1}^{j-1} h_a' h_{j-a}' - (1/2) sum_{a=0}^{j-1} h_a h_{j-a}''

    with the last line only for j = k - m >= 1.  So the system is triangular:
    h_k = -res_k / 2 and H2_k = H2*_k + 2 h_k.  Order k costs O(k) products,
    the whole series O(depth^2).
    """
    if m < 1:
        raise ValueError("potential degree m must be at least 1")
    if depth < 0:
        raise ValueError("depth must be non-negative")
    zero = DiffPolynomial.zero()
    one = DiffPolynomial.constant(1)
    u = [None] + [DiffPolynomial.symbol(i) for i in range(1, m + 1)]
    h, hx, hxx, h2 = [one], [zero], [zero], [one]
    for k in range(1, depth + 1):
        h2_star = _square_convolution(h, k, 1)
        # H4*_k - H2*_k = H2*_k + sum_{a=1}^{k-1} H2_a H2_{k-a}
        res = h2_star + _square_convolution(h2, k, 1)
        res = res - sum((u[i] * h2[k - i] for i in range(1, min(m, k) + 1)), zero)
        j = k - m
        if j >= 1:
            res = res + _square_convolution(hx, j, 1) * Fraction(3, 4)
            res = res - sum((h[a] * hxx[j - a] for a in range(j)), zero) / 2
        hk = -res / 2
        h.append(hk)
        hx.append(hk.d_x())
        hxx.append(hx[k].d_x())
        h2.append(h2_star + hk + hk)
    return FormalSeries({-j: p for j, p in enumerate(h)}, floor=-depth)


def modschwarz_residual(h, m):
    """(3/4) h_x^2 - (1/2) h h_xx + lambda^m h^4 - U h^2 for U = ``potential_series(m)``."""
    hx = h.d_x()
    hxx = hx.d_x()
    h2 = h * h
    return hx * hx * Fraction(3, 4) - h * hxx * Fraction(1, 2) + (h2 * h2).shift(m) - potential_series(m) * h2


def zeta_chain(u, count):
    """Coefficients zeta_1..zeta_count of the truncated wavefunction series.

    Each step integrates zeta_{j+1}' = (u zeta_j - zeta_j'')/2 in closed form
    when the integrand matches a known pattern, else as a quadrature node.
    Every integration constant is zero, which for decaying potentials
    reproduces the symmetric-tail normalisation of the solitonic chain.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    u = ex.as_expression(u)
    out = []
    zeta = ex.ONE
    for _ in range(count):
        integrand = ex.mul(ex.Rational(Fraction(1, 2)), ex.sub(ex.mul(u, zeta), ex.diff(zeta, "x", 2)))
        zeta = ex.antiderivative(integrand)
        out.append(zeta)
    return out


def report(what, m, depth, series):
    """Printed coefficients and named check of a built series.

    ``series`` is ``riccati_series(m, depth)`` for "f" and "g", ``modschwarz_series(m, depth)`` for
    "h" and ``zeta_chain(u, depth)`` for "zeta".  The check counts the exactly known residual orders
    that fail to cancel, or for "zeta" takes the spread of zeta_1^2 - zeta_1' over sample points.
    """
    if what == "zeta":
        rel = ex.sub(ex.intpow(series[0], 2), ex.diff(series[0], "x"))
        vals = rel.evaluate(x=sample_points([rel]))
        return {"coefficients": {f"zeta_{j + 1}": str(z) for j, z in enumerate(series)},
                "checks": [numeric.check("zeta1_truncation_constant_drift", vals.max() - vals.min(), 1e-9)]}
    if what == "h":
        chosen, name = series, "order_matching_residual"
        unmatched = _unmatched_orders(modschwarz_residual(series, m), m)
    elif what in ("f", "g"):
        chosen, name = series[what == "g"], "triangular_system_residual_orders"
        unmatched = sum(_unmatched_orders(riccati_series_residual(s, m), 2) for s in series)
    else:
        raise ValueError("series what must be one of f, g, h, zeta")
    coefficients = {f"{what}_{j}": format_diffpoly(chosen.coeff(-j), single=m == 1) for j in range(depth + 1)}
    return {"coefficients": coefficients, "checks": [numeric.check(name, unmatched, 0.5)]}


def _unmatched_orders(residual, top):
    """How many exactly known orders floor+1..top of a series residual fail to cancel."""
    return sum(not residual.coeff(d).is_zero() for d in range(residual.floor + 1, top + 1))
