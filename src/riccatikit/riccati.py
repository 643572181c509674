"""The Riccati equation phi_x = a phi^2 + b phi + c as a first-class object.

Covers the fraction-linear transformation group acting on Riccati equations,
construction of the general solution from one particular solution, the
cross-ratio formula for a fourth solution from three, the equivalence with
second-order linear ODEs (in the convention psi_xx = b psi_x + c psi), the
Hermite ladder and polynomials, movable-pole series, and the first-integral
check for the coupled Riccati system studied by Kovalevskii; ``*_report`` builds the named checks of each.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import expr as ex
from . import numeric

__all__ = [
    "RiccatiEq",
    "Lode2",
    "MobiusMap",
    "SolutionFamily",
    "sample_points",
    "riccati_residual",
    "mobius_transform",
    "transform_report",
    "general_from_particular",
    "family_report",
    "cross_ratio_solution",
    "convert_re_lode",
    "canonical_form",
    "hermite_polynomial",
    "hermite_report",
    "hermite_ladder",
    "pole_series",
    "pole_series_report",
    "kovalevskii_check",
    "KovalevskiiReport",
]

DEFAULT_INTERVAL = (-5.0, 5.0)
SAMPLE_COUNT = 32
RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class RiccatiEq:
    """Coefficients of phi_x = a(x) phi^2 + b(x) phi + c(x)."""

    a: ex.Expression
    b: ex.Expression
    c: ex.Expression

    def __post_init__(self):
        object.__setattr__(self, "a", ex.as_expression(self.a))
        object.__setattr__(self, "b", ex.as_expression(self.b))
        object.__setattr__(self, "c", ex.as_expression(self.c))

    @property
    def is_linear(self):
        return ex.is_zero(self.a)


@dataclass(frozen=True)
class Lode2:
    """Coefficients of psi_xx = b(x) psi_x + c(x) psi."""

    b: ex.Expression
    c: ex.Expression

    def __post_init__(self):
        object.__setattr__(self, "b", ex.as_expression(self.b))
        object.__setattr__(self, "c", ex.as_expression(self.c))


@dataclass(frozen=True)
class MobiusMap:
    """Fraction-linear map phi -> (alpha phi + beta) / (gamma phi + delta)."""

    alpha: ex.Expression
    beta: ex.Expression
    gamma: ex.Expression
    delta: ex.Expression

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "delta"):
            object.__setattr__(self, name, ex.as_expression(getattr(self, name)))

    def determinant(self):
        return ex.sub(ex.mul(self.alpha, self.delta), ex.mul(self.beta, self.gamma))

    def apply(self, phi):
        num = ex.add(ex.mul(self.alpha, phi), self.beta)
        den = ex.add(ex.mul(self.gamma, phi), self.delta)
        return ex.mul(num, ex.recip(den))

    def compose(self, other):
        """Map equal to self applied after ``other`` (matrix product)."""
        a, b, g, d = self.alpha, self.beta, self.gamma, self.delta
        a2, b2, g2, d2 = other.alpha, other.beta, other.gamma, other.delta
        return MobiusMap(
            ex.add(ex.mul(a, a2), ex.mul(b, g2)),
            ex.add(ex.mul(a, b2), ex.mul(b, d2)),
            ex.add(ex.mul(g, a2), ex.mul(d, g2)),
            ex.add(ex.mul(g, b2), ex.mul(d, d2)),
        )


def sample_points(exprs, interval=DEFAULT_INTERVAL):
    """SAMPLE_COUNT evaluation points in the interval where all exprs stay finite.

    Singular points (evaluation errors or magnitudes above 1e8) are
    skipped; at least half of the SAMPLE_COUNT points must survive.  Each
    expression is evaluated once, on the candidates that the previous ones
    left.  Returns an array.
    """
    lo, hi = interval
    pts = np.linspace(lo, hi, 4 * SAMPLE_COUNT + 1)[1:-1]
    for e in exprs:
        v = ex.as_expression(e).evaluate(x=pts)
        pts = pts[np.abs(v) <= 1e8]  # NaN and inf fail the comparison
    if len(pts) < SAMPLE_COUNT // 2:
        raise ValueError("could not find enough regular sample points in the interval")
    stride = max(1, len(pts) // SAMPLE_COUNT)
    return pts[::stride][:SAMPLE_COUNT]


def _points(points, exprs):
    """The caller's points as an array, else sample points of ``exprs``."""
    if points is None:
        return sample_points(exprs)
    return np.asarray(points, dtype=float)


def _vanishes(e, points=None):
    """Whether |e| < 1e-12 at every one of ``points``, else of the sample points of ``e``."""
    return np.max(np.abs(e.evaluate(x=_points(points, [e])))) < 1e-12


def riccati_residual(eq, phi, points=None):
    """Relative residual of phi against the equation, maximised over samples.

    A NaN at any point makes the result NaN, so a check on it fails.
    """
    phi = ex.as_expression(phi)
    dphi = ex.diff(phi, "x")
    rhs = ex.add(ex.mul(eq.a, ex.intpow(phi, 2)), ex.mul(eq.b, phi), eq.c)
    res = ex.sub(dphi, rhs)
    pts = _points(points, [phi, res])
    scale = np.maximum(1.0, np.maximum(np.abs(rhs.evaluate(x=pts)), np.abs(dphi.evaluate(x=pts))))
    return float(np.max(np.abs(res.evaluate(x=pts)) / scale, initial=0.0))


# ---------------------------------------------------------------------------
# transformation group


def _invert(eq):
    return RiccatiEq(ex.neg(eq.c), ex.neg(eq.b), ex.neg(eq.a))


def _scale(eq, alpha):
    dlog = ex.mul(ex.diff(alpha, "x"), ex.recip(alpha))
    return RiccatiEq(
        ex.mul(eq.a, ex.recip(alpha)),
        ex.add(eq.b, dlog),
        ex.mul(alpha, eq.c),
    )


def _shift(eq, beta):
    new_c = ex.add(
        ex.mul(eq.a, ex.intpow(beta, 2)),
        ex.neg(ex.mul(eq.b, beta)),
        eq.c,
        ex.diff(beta, "x"),
    )
    return RiccatiEq(eq.a, ex.sub(eq.b, ex.mul(2, eq.a, beta)), new_c)


def mobius_transform(eq, m):
    """Riccati equation satisfied by (alpha phi + beta)/(gamma phi + delta).

    The map is decomposed into the three generators (scale, shift, invert);
    for gamma != 0 the chain is scale by gamma, shift by delta, invert,
    scale by -det/gamma, shift by alpha/gamma.
    """
    det = m.determinant()
    if _vanishes(det):
        raise ValueError("degenerate map: determinant vanishes identically")

    if ex.is_zero(m.gamma):
        out = _scale(eq, ex.mul(m.alpha, ex.recip(m.delta)))
        return _shift(out, ex.mul(m.beta, ex.recip(m.delta)))
    out = eq
    if not _is_const_one(m.gamma):
        out = _scale(out, m.gamma)
    if not ex.is_zero(m.delta):
        out = _shift(out, m.delta)
    out = _invert(out)
    scale2 = ex.neg(ex.mul(det, ex.recip(m.gamma)))
    out = _scale(out, scale2)
    shift2 = ex.mul(m.alpha, ex.recip(m.gamma))
    if not ex.is_zero(shift2):
        out = _shift(out, shift2)
    return out


def _is_const_one(e):
    return isinstance(e, ex.Rational) and e.value == 1


def transform_report(eq, m):
    """Coefficients of ``mobius_transform(eq, m)`` and the check that the inverse map brings back ``eq``."""
    out = mobius_transform(eq, m)
    back = mobius_transform(out, MobiusMap(m.delta, ex.neg(m.beta), ex.neg(m.gamma), m.alpha))
    pts = sample_points([eq.a, eq.b, eq.c, back.a, back.b, back.c])
    roundtrip = np.max([np.abs(getattr(eq, n).evaluate(x=pts) - getattr(back, n).evaluate(x=pts)) for n in "abc"])
    output = {n: str(getattr(out, n)) for n in "abc"}
    return {"output": output, "checks": [numeric.check("inverse_map_roundtrip", roundtrip, 1e-9)]}


# ---------------------------------------------------------------------------
# solution construction


class SolutionFamily:
    """One-parameter family C -> Expression of solutions of one equation."""

    def __init__(self, eq, build):
        self.eq = eq
        self._build = build

    def __call__(self, constant):
        return self._build(ex.as_expression(constant))


def general_from_particular(eq, phi1=None):
    """General solution family from one particular solution.

    In the linear case (a == 0) no particular solution is needed: the family
    is z * (int(c/z) + C) with z = exp(int b).  Otherwise phi1 must solve the
    equation; the substitution phi = phi1 + 1/w turns it into a first-order
    linear equation for w which is solved by variation of constants.
    """
    if eq.is_linear:
        z = ex.exp(ex.antiderivative(eq.b))
        f = ex.antiderivative(ex.mul(eq.c, ex.recip(z)))
        return SolutionFamily(eq, lambda c: ex.mul(z, ex.add(f, c)))

    if phi1 is None:
        raise ValueError("a particular solution is required when a != 0")
    phi1 = ex.as_expression(phi1)
    r = riccati_residual(eq, phi1)
    if r > RESIDUAL_TOL:
        raise ValueError(f"phi1 is not a solution: relative residual {r:.3g}")

    b_tilde = ex.add(eq.b, ex.mul(2, eq.a, phi1))
    z = ex.exp(ex.antiderivative(ex.neg(b_tilde)))
    # phi = phi1 + 1/w with w' = -b_tilde w - a, solved by variation of constants
    f = ex.antiderivative(ex.neg(ex.mul(eq.a, ex.recip(z))))

    def build(c):
        w = ex.mul(z, ex.add(f, c))
        return ex.add(phi1, ex.recip(w))

    return SolutionFamily(eq, build)


def family_report(eq, solutions):
    """One residual check ``solution_residual_<label>`` per member of ``{label: solution}``."""
    residuals = {label: riccati_residual(eq, sol) for label, sol in solutions.items()}
    return {"checks": [numeric.check(f"solution_residual_{label}", r, RESIDUAL_TOL) for label, r in residuals.items()]}


def cross_ratio_solution(phi1, phi2, phi3, a_const):
    """Fourth solution from three known ones via the cross-ratio formula.

    With R = A (phi3 - phi1)/(phi3 - phi2), the new solution is
    (phi1 - R phi2)/(1 - R); A = 0 gives phi1 and A = 1 gives phi3.
    """
    phi1, phi2, phi3 = map(ex.as_expression, (phi1, phi2, phi3))
    diffs = [ex.sub(phi3, phi1), ex.sub(phi3, phi2), ex.sub(phi1, phi2)]
    pts = sample_points(diffs)
    if any(_vanishes(d, pts) for d in diffs):
        raise ValueError("the three solutions must be pairwise distinct")
    r = ex.mul(ex.as_expression(a_const), diffs[0], ex.recip(diffs[1]))
    one_minus = ex.sub(ex.ONE, r)
    if _vanishes(one_minus, pts):
        raise ValueError("degenerate constant: R is identically 1")
    return ex.mul(ex.sub(phi1, ex.mul(r, phi2)), ex.recip(one_minus))


# ---------------------------------------------------------------------------
# second-order linear equations


def convert_re_lode(direction, eq):
    """Convert between Riccati form and second-order linear form.

    direction="lode_to_re": psi_xx = b psi_x + c psi with phi = -psi_x/psi
    becomes phi_x = phi^2 + b phi - c, i.e. coefficients (1, b, -c).

    direction="re_to_lode": phi_x = a phi^2 + b phi + c with a != 0 and
    phi = -psi_x/(a psi) becomes psi_xx = (a_x/a + b) psi_x - c a psi.

    The two maps are mutually inverse for a = 1.  Returns (converted,
    description of the change of variables).
    """
    if direction == "lode_to_re":
        out = RiccatiEq(ex.ONE, eq.b, ex.neg(eq.c))
        return out, "phi = -psi_x/psi"
    if direction == "re_to_lode":
        if eq.is_linear:
            raise ValueError("a == 0: the equation is already linear first-order")
        b_new = ex.add(ex.mul(ex.diff(eq.a, "x"), ex.recip(eq.a)), eq.b)
        c_new = ex.neg(ex.mul(eq.c, eq.a))
        return Lode2(b_new, c_new), "phi = -psi_x/(a*psi)"
    raise ValueError("direction must be 'lode_to_re' or 're_to_lode'")


def canonical_form(l):
    """Gauge away the first-derivative term of a second-order equation.

    For psi_xx = b psi_x + c psi the substitution psi = gauge * psi_hat with
    gauge = exp((1/2) int b dx) yields psi_hat_xx + c_hat psi_hat = 0 with
    c_hat = -c - b^2/4 + b_x/2.  Returns (c_hat, gauge).
    """
    c_hat = ex.add(
        ex.neg(l.c),
        ex.neg(ex.mul(ex.Rational(Fraction(1, 4)), ex.intpow(l.b, 2))),
        ex.mul(ex.Rational(Fraction(1, 2)), ex.diff(l.b, "x")),
    )
    gauge = ex.exp(ex.mul(ex.Rational(Fraction(1, 2)), ex.antiderivative(l.b)))
    return c_hat, gauge


# ---------------------------------------------------------------------------
# the Hermite family


def hermite_coefficients(n):
    """Ascending exact coefficients of the n-th Hermite polynomial.

    Built from the three-term recurrence H_{n+1} = 2x H_n - 2n H_{n-1}.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    prev = [Fraction(1)]
    if n == 0:
        return prev
    cur = [Fraction(0), Fraction(2)]
    for m in range(1, n):
        nxt = [Fraction(0)] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= 2 * m * c
        prev, cur = cur, nxt
    return cur


def rodrigues_coefficients(n):
    """Same polynomials from the derivative route (-1)^n e^{x^2} d^n/dx^n e^{-x^2}.

    The n-th derivative of e^{-x^2} is P_n(x) e^{-x^2} with
    P_{n+1} = P_n' - 2x P_n, done exactly on coefficient lists.
    """
    p = [Fraction(1)]
    for _ in range(n):
        dp = [i * c for i, c in enumerate(p)][1:] or [Fraction(0)]
        minus2x = [Fraction(0)] + [-2 * c for c in p]
        m = max(len(dp), len(minus2x))
        p = [(dp[i] if i < len(dp) else 0) + (minus2x[i] if i < len(minus2x) else 0) for i in range(m)]
    sign = Fraction(-1) ** n
    return [sign * c for c in p]


def hermite_polynomial(n):
    """Hermite polynomial omega and the Riccati witness y = -x + omega_x/omega.

    y satisfies y' + y^2 = x^2 - 2n - 1.
    """
    coeffs = hermite_coefficients(n)
    x = ex.Var("x")
    omega = ex.add(*[ex.mul(ex.Rational(c), ex.intpow(x, i)) for i, c in enumerate(coeffs)])
    y = ex.add(ex.neg(x), ex.mul(ex.diff(omega, "x"), ex.recip(omega)))
    return omega, y


def hermite_report(n):
    """H_n and its Riccati witness, checked: both coefficient routes agree, the witness solves its equation."""
    coeffs = hermite_coefficients(n)
    rod = rodrigues_coefficients(n)
    _, y = hermite_polynomial(n)
    rhs = ex.parse_expression(f"x^2 - {2 * n + 1}")
    witness = ex.add(ex.diff(y, "x"), ex.intpow(y, 2), ex.neg(rhs))
    residual = np.max(np.abs(witness.evaluate(x=np.linspace(4.0, 9.0, 100))))  # a NaN at any point fails
    return {
        "polynomial": _format_poly([int(c) for c in coeffs]),
        "riccati_witness": str(y),
        "equation_rhs": f"x^2{-(2 * n + 1):+d}",
        "checks": [
            numeric.check("recurrence_matches_derivative_route", 0.0 if coeffs == rod else 1.0, 0.5),
            numeric.check("riccati_witness_residual", residual, 1e-10),
        ],
    }


def _format_poly(coeffs):
    """Compact polynomial rendering, e.g. [-2, 0, 4] -> '4x^2-2'."""
    terms = []
    for p, c in reversed(list(enumerate(coeffs))):
        if c:
            xs = "" if p == 0 else "x" if p == 1 else f"x^{p}"
            terms.append(("-" if c < 0 else "+" if terms else "") + ("" if abs(c) == 1 and xs else str(abs(c))) + xs)
    return "".join(terms) or "0"


def hermite_ladder(y, alpha):
    """One rung up the ladder for y' + y^2 = x^2 + alpha.

    Returns (y_hat, alpha + 2) with y_hat = x + (alpha + 1)/(y + x); the
    denominator must not vanish identically.
    """
    y = ex.as_expression(y)
    x = ex.Var("x")
    den = ex.add(y, x)
    if _vanishes(den):
        raise ValueError("y + x vanishes identically: ladder undefined")
    y_hat = ex.add(x, ex.mul(ex.as_expression(alpha + 1), ex.recip(den)))
    return y_hat, alpha + 2


def pole_series(alpha, eps, depth):
    """Coefficients a_0..a_depth of the movable-pole expansion.

    The solution y = 1/(x + eps) + a_0 + a_1 (x + eps) + ... of
    y' + y^2 = x^2 + alpha satisfies a_0 = 0 and

        (j + 2) a_j + sum_{i+l=j-1} a_i a_l = [x^2 + alpha]_{j-1},

    where the right-hand side collects the coefficient of (x + eps)^{j-1} in
    (s - eps)^2 + alpha.  The coefficients are exact rationals: alpha and eps
    are taken as Fractions, a float at its exact binary value.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    alpha = Fraction(alpha)
    eps = Fraction(eps)
    zero = Fraction(0)
    rhs = {0: eps * eps + alpha, 1: -2 * eps, 2: Fraction(1)}
    a = [zero]
    for j in range(1, depth + 1):
        conv = sum((a[i] * a[j - 1 - i] for i in range(j)), zero)
        num = rhs.get(j - 1, zero) - conv
        a.append(num / (j + 2))
    return a


def pole_series_report(alpha, eps, depth):
    """Coefficients of ``pole_series(alpha, eps, depth)``, checked: a_0 = 0, 4 a_2 + 2 eps = 0, an IVP follows them."""
    coeffs = pole_series(alpha, eps, depth)

    def series_val(xv):
        s = xv + float(eps)
        return 1.0 / s + sum(float(c) * s**j for j, c in enumerate(coeffs))

    x_start = -float(eps) + 0.2
    x_end = -float(eps) + 0.4
    a = float(alpha)
    try:
        traj = numeric.integrate_ivp(
            lambda xv, yv: (xv**2 + a - yv[0] ** 2,), x_start, [series_val(x_start)], x_end, tol=1e-12
        )
        ivp_gap = abs(traj.ys[-1][0] - series_val(x_end))
    except numeric.IntegrationBlowUp:  # the IVP ran into a pole the series does not see
        ivp_gap = float("inf")
    checks = [numeric.check("zeroth_coefficient_vanishes", abs(float(coeffs[0])), 1e-15)]
    if depth >= 2:  # a_2 exists only from depth 2 on
        checks.append(numeric.check("fourth_order_line", abs(4 * float(coeffs[2]) + 2 * float(eps)), 1e-12))
    checks.append(numeric.check("series_vs_ivp_near_pole", ivp_gap, 5e-4))
    return {"coefficients": [float(c) for c in coeffs], "exact": [str(c) for c in coeffs], "checks": checks}


# ---------------------------------------------------------------------------
# Kovalevskii first integrals


@dataclass
class KovalevskiiReport:
    drifts: dict
    max_drift: float
    span: tuple


def kovalevskii_check(n, y0, span):
    """Integrate y_j' = s y_j - 2 y_j^2 (s = sum of all y) and track integrals.

    For n = 3 the quadratic integrals F1 = (y1 - y2) y3 and F2 = (y2 - y3) y1
    are monitored; for n >= 4 every 4-index cross-ratio
    (y_l - y_i)(y_k - y_j) / ((y_l - y_j)(y_k - y_i)), whose log-derivative
    telescopes to zero along the flow.  Reports the maximal relative drift
    over the span, integrated to tolerance 1e-10.  Blow-up during integration
    raises IntegrationBlowUp with the location.
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    y0 = np.asarray(y0, dtype=float)
    if y0.size != n:
        raise ValueError("initial state size must equal n")
    if len(set(y0.tolist())) != n and n >= 4:
        raise ValueError("initial components must be pairwise distinct")

    def rhs(x, y):
        s = sum(y)
        return [s * v - 2 * v * v for v in y]

    traj = numeric.integrate_ivp(rhs, span[0], y0, span[1], tol=1e-10)
    xs = np.linspace(span[0], span[1], 201)
    ys = traj(xs)

    integrals = {}
    if n == 3:
        integrals["F1"] = (ys[:, 0] - ys[:, 1]) * ys[:, 2]
        integrals["F2"] = (ys[:, 1] - ys[:, 2]) * ys[:, 0]
    else:
        for (i, j, k, l) in itertools.combinations(range(n), 4):
            num = (ys[:, l] - ys[:, i]) * (ys[:, k] - ys[:, j])
            den = (ys[:, l] - ys[:, j]) * (ys[:, k] - ys[:, i])
            integrals[f"CR{i + 1}{j + 1}{k + 1}{l + 1}"] = num / den

    drifts = {}
    for name, vals in integrals.items():
        ref = vals[0]
        drifts[name] = float(np.max(np.abs(vals - ref)) / max(1.0, abs(ref)))
    return KovalevskiiReport(drifts, max(drifts.values()), span)
