"""1-phase finite-gap potentials and their root variable.

For branch points lambda1 > lambda2 > lambda3 the root variable gamma(x)
oscillates in the band [lambda3, lambda2] according to
gamma_x^2 = C(gamma), C(g) = 4 (g - lambda1)(g - lambda2)(g - lambda3), and
u = 2 gamma - lambda1 - lambda2 - lambda3 is a smooth periodic potential.
Turning points are crossed by integrating the differentiated second-order
form gamma_xx = C'(gamma)/2, which removes square-root branch bookkeeping.
C is a descending coefficient array (c_poly), evaluated with np.polyval.
The turning points of a trajectory are bisected all at once.  A Floquet
discriminant is one integration that carries gamma and both columns of the
transfer matrix.  report gives the two checks of a trajectory, each at every
grid point: Dubrovin's identity gamma'^2 = C(gamma) for the one root, and the
trajectory's phase against the time that quadrature gives from a minimum to
each gamma.
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
    """Sampled root variable gamma(x) and its derivative, each a (points, 1) column."""

    def __init__(self, xs, gammas, dgammas, dense=None):
        self.xs = np.asarray(xs, dtype=float)
        self.gammas = np.asarray(gammas, dtype=float).reshape(-1, 1)
        self.dgammas = np.asarray(dgammas, dtype=float).reshape(-1, 1)
        self._dense = dense

    def __call__(self, x):
        """Dense state [gamma, gamma'] at x."""
        if self._dense is None:
            raise ValueError("trajectory has no dense interpolant")
        return self._dense(x)

    def turning_points(self, kind="max"):
        """x locations where gamma' crosses zero (maxima or minima).

        ``report`` does not need them; ``bench/spans.py`` wraps this method
        and acceptance criterion 9 calls it.  Each sign change of the
        sampled gamma' is bisected on the dense interpolant for at most 80
        halvings, a bracket stopping once its midpoint rounds to an endpoint:
        no later halving could move it.  All brackets halve together, one
        dense-output call per pass.
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
            up = (self(mid)[:, 1] > 0) == want_down
            lo[live[up]] = mid[up]
            hi[live[~up]] = mid[~up]
        return list(0.5 * (lo + hi))


def integrate_gamma(spec, x_range=(0.0, 10.0), step=0.01, fixed_step=None):
    """Root-variable trajectory from the second-order form gamma'' = C'(gamma)/2.

    Dormand-Prince to tolerance 1e-12, or RK4 with ``fixed_step``.  The drift of the first integral gamma'^2 - C(gamma) is not judged here:
    ``report`` checks it as ``energy_invariant_drift``.
    """
    c = c_poly(spec)
    d2, d1, d0 = np.polyder(c).tolist()  # Python floats keep the fixed-step RK4 off numpy scalars

    def rhs(x, s):
        g = s[0]
        return (s[1], 0.5 * ((d2 * g + d1) * g + d0))  # C'(g)/2, rounded as np.polyval of np.polyder(c) rounds

    y0 = _gamma_start(spec, c)
    traj = numeric.integrate_ivp(rhs, x_range[0], y0, x_range[1], tol=1e-12, fixed_step=fixed_step)

    xs = np.arange(x_range[0], x_range[1] + 0.5 * step, step)
    states = traj(xs)
    return RootTrajectory(xs, states[:, 0], states[:, 1], dense=traj)


def _gamma_start(spec, c):
    """Start state (gamma0, sign * sqrt(C(gamma0))) of gamma'' = C'(gamma)/2."""
    c0 = np.polyval(c, spec.gamma0)
    if c0 < 0:
        raise ValueError("C(gamma0) must be non-negative inside the band")
    return np.array([spec.gamma0, spec.sign * math.sqrt(c0)])


def period(spec):
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
    The quadrature tolerance is 1e-12.
    """
    l1, l2, l3 = spec.lams
    if l2 - l3 < 1e-12:
        raise ValueError(
            "degenerate gap: lambda2 - lambda3 vanishes and the band [lambda3, lambda2] collapses "
            "(the period does not diverge; it tends to pi / sqrt(lambda1 - lambda3))"
        )
    rate = _theta_rate(spec)
    return numeric.quadrature(lambda theta: 2.0 * rate(theta), 0.0, math.pi / 2, tol=1e-12)


def _theta_rate(spec):
    """dx/dtheta = 1 / sqrt(lambda1 - gamma) along gamma = lambda3 + (lambda2 - lambda3) sin^2(theta)."""
    d12 = spec.lam1 - spec.lam2
    d23 = spec.lam2 - spec.lam3
    # a sum of two non-negative terms: no cancellation as lambda2 -> lambda1
    return lambda theta: 1.0 / np.sqrt(d12 + d23 * np.cos(theta) ** 2)


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
    """The quadrature period and the two checks of a trajectory, each at every grid point.

    ``energy_invariant_drift`` is ``dubrovin_checks``; a trajectory on the
    right energy but at the wrong x fails ``trajectory_vs_quadrature_phase``.
    ``t_quad`` is ``period(spec)``, computed once by the caller, which may
    also need it to size the trajectory.
    """
    return {
        "period": t_quad,
        "checks": [
            numeric.check("energy_invariant_drift", dubrovin_checks(traj, c_poly(spec)), 1e-8),
            numeric.check("trajectory_vs_quadrature_phase", _phase_gap(spec, traj, t_quad), 1e-6),
        ],
    }


def dubrovin_checks(traj, c):
    """Dubrovin's identity (1) for one root, C(gamma) = gamma'^2: max |C(gamma) - gamma'^2|.

    Identity (2) adds nothing on a trajectory: its gamma'' is C'(gamma)/2, so
    the remainder is identity (1) again.  The tests check (2) in closed form.
    """
    g, gp = traj.gammas[:, 0], traj.dgammas[:, 0]
    return float(np.max(np.abs(np.polyval(c, g) - numeric.pow2(gp))))


def _phase_gap(spec, traj, t_quad):
    """max |x - x_quad(gamma(x))| |gamma'(x)| / (lambda2 - lambda3) over the grid.

    With gamma = lambda3 + (lambda2 - lambda3) sin^2(theta), the time from a
    minimum to theta is the integral of ``_theta_rate``, half of ``period``'s
    integrand.  One quadrature sweep gives it at every grid point's theta
    and at gamma0's, which places a minimum before xs[0], the start.  A
    point's predicted x is that time past the minimum where gamma' >= 0 and
    T less it where gamma' < 0, modulo T (equal where gamma' vanishes).
    Times gamma', the gap is the error in gamma to first order, so the check
    reads a trajectory's error relative to the band at any grid length.
    """
    l2, l3 = spec.lam2, spec.lam3
    g = np.append(traj.gammas[:, 0], spec.gamma0)
    thetas = np.arctan2(np.sqrt(np.maximum(g - l3, 0.0)), np.sqrt(np.maximum(l2 - g, 0.0)))
    tau = numeric.quadrature(_theta_rate(spec), 0.0, thetas, tol=1e-12)
    start = tau[-1] if spec.sign > 0 else t_quad - tau[-1]  # the start's time past the minimum
    gp = traj.dgammas[:, 0]
    gap = traj.xs - traj.xs[0] + start - np.where(gp >= 0, tau[:-1], t_quad - tau[:-1])
    gap -= t_quad * np.round(gap / t_quad)
    return float(np.max(np.abs(gap * gp))) / (l2 - l3)
