"""1-phase finite-gap potentials and their root variable.

For branch points lambda1 > lambda2 > lambda3 the root variable gamma(x)
oscillates in the band [lambda3, lambda2] according to
gamma_x^2 = C(gamma), C(g) = 4 (g - lambda1)(g - lambda2)(g - lambda3), and
u = 2 gamma - lambda1 - lambda2 - lambda3 is a smooth periodic potential.
Turning points are crossed by integrating the differentiated second-order
form gamma_xx = C'(gamma)/2, which removes square-root branch bookkeeping.
C is a descending coefficient array (c_poly), evaluated with np.polyval.
The Dubrovin identities are checked at every grid point of a trajectory in
one array pass, and the turning points of a trajectory are bisected all at
once.  A Floquet discriminant is one integration that carries gamma and both
columns of the transfer matrix.  report gives the named checks of a
trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numeric

__all__ = [
    "GapSpec",
    "RootTrajectory",
    "c_poly",
    "integrate_gamma",
    "period",
    "trace_potential",
    "floquet_discriminant",
    "dubrovin_checks",
    "DubrovinReport",
    "report",
]


@dataclass(frozen=True)
class GapSpec:
    """Branch points lambda1 > lambda2 > lambda3 and start gamma0 in (lambda3, lambda2)."""

    lam1: float
    lam2: float
    lam3: float
    gamma0: float
    sign: int = 1

    def __post_init__(self):
        for name in ("lam1", "lam2", "lam3", "gamma0"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (self.lam1 > self.lam2 > self.lam3):
            raise ValueError("branch points must satisfy lambda1 > lambda2 > lambda3")
        if not (self.lam3 < self.gamma0 < self.lam2):
            raise ValueError(
                "gamma0 must lie strictly inside (lambda3, lambda2); the band edges "
                "are turning points and seed only the degenerate constant branch"
            )
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    @property
    def lams(self):
        return (self.lam1, self.lam2, self.lam3)

    @property
    def trace(self):
        return self.lam1 + self.lam2 + self.lam3


def c_poly(spec_or_lams):
    """Descending coefficients of C(lambda) = 4 prod_i (lambda - lambda_i)."""
    lams = spec_or_lams.lams if isinstance(spec_or_lams, GapSpec) else tuple(spec_or_lams)
    return 4.0 * np.poly(lams)


class RootTrajectory:
    """Sampled root variable gamma(x) and its first two derivatives, each a (points, 1) column."""

    def __init__(self, xs, gammas, dgammas, ddgammas, dense=None):
        self.xs = np.asarray(xs, dtype=float)
        self.gammas = np.asarray(gammas, dtype=float).reshape(-1, 1)
        self.dgammas = np.asarray(dgammas, dtype=float).reshape(-1, 1)
        self.ddgammas = np.asarray(ddgammas, dtype=float).reshape(-1, 1)
        self._dense = dense

    @property
    def n(self):
        return self.gammas.shape[1]

    def __call__(self, x):
        """Dense state [gamma, gamma'] at x."""
        if self._dense is None:
            raise ValueError("trajectory has no dense interpolant")
        return self._dense(x)

    def turning_points(self, kind="max"):
        """x locations where gamma' crosses zero (maxima or minima).

        Each sign change of the sampled gamma' is bisected on the dense
        interpolant for at most 80 halvings, a bracket stopping once its
        midpoint rounds to an endpoint: no later halving could move it.  All
        brackets halve together, one dense-output call per pass.
        """
        want_down = kind == "max"
        d = self.dgammas[:, 0]
        if want_down:
            starts = np.flatnonzero((d[:-1] > 0) & (d[1:] < 0))
        else:
            starts = np.flatnonzero((d[:-1] < 0) & (d[1:] > 0))
        lo, hi = self.xs[starts], self.xs[starts + 1]
        live = np.arange(len(starts))
        for _ in range(80):
            mid = 0.5 * (lo[live] + hi[live])
            moves = (mid != lo[live]) & (mid != hi[live])
            live, mid = live[moves], mid[moves]
            if live.size == 0:
                break
            up = (self(mid)[:, self.n] > 0) == want_down
            lo[live[up]] = mid[up]
            hi[live[~up]] = mid[~up]
        return list(0.5 * (lo + hi))


def integrate_gamma(spec, x_range=(0.0, 10.0), step=0.01, tol=1e-12, fixed_step=None):
    """Root-variable trajectory from the second-order form gamma'' = C'(gamma)/2.

    The drift of the first integral gamma'^2 - C(gamma) is not judged here:
    ``report`` checks it as ``energy_invariant_drift``.
    """
    c = c_poly(spec)
    dc = np.polyder(c)
    d2, d1, d0 = dc.tolist()  # Python floats keep the fixed-step RK4 off numpy scalars

    def rhs(x, s):
        g = s[0]
        return (s[1], 0.5 * ((d2 * g + d1) * g + d0))  # C'(g)/2, rounded as np.polyval(dc, g) rounds

    y0 = _gamma_start(spec, c)
    traj = numeric.integrate_ivp(rhs, x_range[0], y0, x_range[1], tol=tol, fixed_step=fixed_step)

    xs = np.arange(x_range[0], x_range[1] + 0.5 * step, step)
    states = traj(xs)
    gam = states[:, 0]
    dgam = states[:, 1]
    ddgam = 0.5 * np.polyval(dc, gam)
    return RootTrajectory(xs, gam, dgam, ddgam, dense=traj)


def _gamma_start(spec, c):
    """Start state (gamma0, sign * sqrt(C(gamma0))) of gamma'' = C'(gamma)/2."""
    c0 = np.polyval(c, spec.gamma0)
    if c0 < 0:
        raise ValueError("C(gamma0) must be non-negative inside the band")
    return np.array([spec.gamma0, spec.sign * math.sqrt(c0)])


def period(spec, tol=1e-12):
    """Oscillation period: the band integral of 1/sqrt of the triple product.

    T = int_{lambda3}^{lambda2} dl / sqrt((lambda1 - l)(lambda2 - l)(l - lambda3)).
    The substitution l = lambda3 + (lambda2 - lambda3) sin^2(theta) cancels
    both endpoint roots by hand, leaving the smooth integrand
    2 / sqrt(lambda1 - l) = 2 / sqrt(lambda1 - lambda2 + (lambda2 - lambda3) cos^2(theta))
    on [0, pi/2]; in closed form T = 2 K(m) / sqrt(lambda1 - lambda3) with
    m = (lambda2 - lambda3) / (lambda1 - lambda3).  Both near-degenerate
    limits stay accurate: lambda2 -> lambda3 and lambda2 -> lambda1 (the
    near-soliton limit).  A collapsed band lambda2 - lambda3 < 1e-12 is
    refused: gamma has no room to oscillate, though T itself stays finite.
    """
    l1, l2, l3 = spec.lams
    if l2 - l3 < 1e-12:
        raise ValueError(
            "degenerate gap: lambda2 - lambda3 vanishes and the band [lambda3, lambda2] collapses "
            "(the period does not diverge; it tends to pi / sqrt(lambda1 - lambda3))"
        )
    d12 = l1 - l2
    d23 = l2 - l3

    def f(theta):
        # a sum of two non-negative terms: no cancellation as lambda2 -> lambda1
        return 2.0 / np.sqrt(d12 + d23 * np.cos(theta) ** 2)

    return numeric.quadrature(f, 0.0, math.pi / 2, tol=tol)


def trace_potential(traj, spec):
    """u(x) = 2 gamma(x) - lambda1 - lambda2 - lambda3 on the trajectory grid."""
    return 2.0 * traj.gammas[:, 0] - spec.trace


def floquet_discriminant(spec, lam):
    """Trace of the one-period transfer matrix of psi'' = (lam + u) psi.

    |trace| = 2 marks band edges of the periodic spectral problem.  One
    integration over the period T carries the state
    (gamma, gamma', psi1, psi1', psi2, psi2') from
    (gamma0, sign * sqrt(C(gamma0)), 1, 0, 0, 1), with gamma'' = C'(gamma)/2
    and u = 2 gamma - lambda1 - lambda2 - lambda3 read from the state.  The
    tolerance is 1e-12: at 1e-10 the error of |trace| = 2 at the band edges
    grows about a hundredfold, to near 4e-7.
    """
    c = c_poly(spec)
    d2, d1, d0 = np.polyder(c).tolist()
    shift = lam - spec.trace

    def rhs(x, s):
        g = s[0]
        q = shift + 2.0 * g
        return (s[1], 0.5 * ((d2 * g + d1) * g + d0), s[3], q * s[2], s[5], q * s[4])

    y0 = np.concatenate([_gamma_start(spec, c), [1.0, 0.0, 0.0, 1.0]])
    end = numeric.integrate_ivp(rhs, 0.0, y0, period(spec), tol=1e-12).ys[-1]
    return float(end[2] + end[5])


def report(spec, traj, t_quad):
    """Quadrature and trajectory periods (NaN below two maxima) and the named checks of a trajectory.

    ``t_quad`` is ``period(spec)``, computed once by the caller, which may
    also need it to size the trajectory.
    """
    maxima = traj.turning_points("max")
    t_traj = maxima[1] - maxima[0] if len(maxima) >= 2 else float("nan")
    period_gap = abs(t_quad - t_traj) / t_quad if len(maxima) >= 2 else float("inf")
    dub = dubrovin_checks(traj, c_poly(spec))
    # for one root, Dubrovin's item 1 |C(gamma) - gamma'^2| is the energy drift
    checks = [
        numeric.check("period_quadrature_vs_trajectory", period_gap, 1e-6),
        numeric.check("energy_invariant_drift", dub.item1_max, 1e-8),
    ]
    if traj.xs[-1] - traj.xs[0] > t_quad:  # u(x + T) = u(x) where the grid spans a period
        xs_check = traj.xs[traj.xs <= traj.xs[-1] - t_quad][::5]
        per = np.max(np.abs(traj(xs_check + t_quad)[:, 0] - traj(xs_check)[:, 0]))
        checks.append(numeric.check("periodicity_of_u", 2 * per, 1e-6))
    checks.append(numeric.check("dubrovin_item1", dub.item1_max, 1e-6))
    checks.append(numeric.check("dubrovin_division_remainder", dub.remainder_max, 1e-6))
    return {"period": t_quad, "trajectory_period": t_traj, "checks": checks}


@dataclass
class DubrovinReport:
    item1_max: float
    remainder_max: float
    quotient_degree: int
    quotient_leading: float
    quotients: np.ndarray
    passed: bool


def dubrovin_checks(traj, c, tol=1e-6):
    """Verify the two root-variable identities along a trajectory.

    With phi(x, lambda) = lambda - gamma(x), so phi_x = -gamma' and
    phi_xx = -gamma'':
    (1) C(gamma) equals phi_x^2 = gamma'^2;
    (2) 2 phi phi_xx + C(lambda) - phi_x^2 is exactly divisible by
        phi^2 = lambda^2 - 2 gamma lambda + gamma^2, and the quotient is
        4U with U monic of degree 1.

    Every grid point is checked in one array pass: the division by phi^2 is
    two synthetic-division steps on the four numerator columns.  Returns
    per-identity maxima; ``passed`` reflects the given tolerance.
    """
    c0, c1, c2, c3 = c
    g, gp, gpp = traj.gammas[:, 0], traj.dgammas[:, 0], traj.ddgammas[:, 0]
    item1 = float(np.max(np.abs(np.polyval(c, g) - numeric.pow2(gp))))

    # numerator [c0, c1, c2 - 2 gamma'', c3 - gamma'^2 + 2 gamma gamma''] over phi^2 = [1, d1, d2]:
    # n1 and n2 are columns 1 and 2 after the first step, n3 is column 3
    d1, d2 = -g + -g, -g * -g
    n1 = c1 - c0 * d1
    n2 = c2 + -2.0 * gpp - c0 * d2
    n3 = (c3 - gp * gp) + 2.0 * (-g * -gpp)
    quotients = np.stack([np.full_like(g, c0), n1], axis=1)
    remainder_max = float(np.max(np.abs([n2 - n1 * d1, n3 - n1 * d2])))

    lead = float(c0)
    passed = item1 <= tol and remainder_max <= tol and abs(lead - 4.0) <= tol
    return DubrovinReport(item1, remainder_max, 1, lead, quotients, passed)
