"""1-phase finite-gap potentials and their root variable.

For branch points lambda1 > lambda2 > lambda3 the root variable gamma(x)
oscillates in the band [lambda3, lambda2] according to
gamma_x^2 = C(gamma), C(g) = 4 (g - lambda1)(g - lambda2)(g - lambda3), and
u = 2 gamma - lambda1 - lambda2 - lambda3 is a smooth periodic potential.
In closed form gamma = lambda3 + (lambda2 - lambda3) sn^2(w (x - x0) | m),
with w = sqrt(lambda1 - lambda3) and m = (lambda2 - lambda3) / (lambda1 - lambda3).
``elliptic_trajectory`` evaluates it on a grid: K(m), sn, cn and dn come from
the arithmetic-geometric mean and the descending Landen recursion, and x0
from gamma0 through Carlson's R_F.  ``integrate_gamma`` integrates the
differentiated second-order form gamma_xx = C'(gamma)/2 instead, which
crosses the turning points without square-root branch bookkeeping; ``report``
runs it over one period, at adaptive or at fixed Dormand-Prince steps, as a
cross-check of the closed form.
C is a descending coefficient array (c_poly), evaluated with np.polyval.
The turning points of a trajectory are bisected all at once.  A Floquet
discriminant is one integration over the AGM's period that carries gamma and
both columns of the transfer matrix.  report gives four checks: Dubrovin's
identity gamma'^2 = C(gamma) for the one root and the trajectory's phase
against the time that quadrature gives from a minimum to each gamma, each at
every grid point; the integrator against the closed form at its own nodes;
and the quadrature period against the AGM's.
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
    "elliptic_trajectory",
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


def elliptic_trajectory(spec, xs):
    """The closed-form trajectory on the grid xs, with gamma(xs[0]) = gamma0.

    gamma = lambda3 + (lambda2 - lambda3) sn^2(z) and
    gamma' = 2 w (lambda2 - lambda3) sn cn dn at z = w (x - xs[0]) + sign F(phi | m),
    where sin^2(phi) = (gamma0 - lambda3) / (lambda2 - lambda3): sn is odd and
    cn, dn are even, so ``spec.sign`` is the sign of gamma'(xs[0]).  The dense
    callable is the same closed form, so ``turning_points`` bisects it.
    """
    xs = np.asarray(xs, dtype=float)
    state = _elliptic(spec, xs[0])
    gammas, dgammas = state(xs)
    return RootTrajectory(xs, gammas, dgammas, dense=lambda x: np.stack(state(np.asarray(x, dtype=float)), axis=-1))


def _elliptic(spec, origin):
    """x -> (gamma(x), gamma'(x)) in closed form, starting at (origin, gamma0)."""
    l1, l2, l3 = spec.lams
    band, w = l2 - l3, math.sqrt(l1 - l3)
    a, ratios = _agm(spec)
    scale = 2.0 ** len(ratios) * a
    z0 = _start_phase(spec)

    def state(x):
        # descending Landen recursion (Abramowitz & Stegun 16.4): phi_N = 2^N a_N z,
        # phi_{n-1} = (phi_n + arcsin(c_n / a_n sin(phi_n))) / 2, sn = sin(phi_0)
        phi = scale * (w * (x - origin) + z0)
        for r in reversed(ratios):
            prev, phi = phi, 0.5 * (phi + np.arcsin(r * np.sin(phi)))
        sn, cn = np.sin(phi), np.cos(phi)
        dn = cn / np.cos(prev - phi)
        return l3 + band * (sn * sn), (2.0 * w * band) * (sn * cn * dn)

    return state


def _agm(spec):
    """a_N and the ratios c_n / a_n, n = 1..N, of the descending AGM of (1, sqrt(1 - m)).

    m and 1 - m are each a ratio of branch-point differences, so neither
    cancels as m -> 0 or m -> 1, and c_{n+1} = c_n^2 / (4 a_{n+1}) is
    (a_n - b_n) / 2 without its cancellation.  At least one step is taken;
    c_N / a_N is below the rounding unit, and K(m) = pi / (2 a_N).
    """
    l1, l2, l3 = spec.lams
    a, b, c = 1.0, math.sqrt((l1 - l2) / (l1 - l3)), math.sqrt((l2 - l3) / (l1 - l3))
    ratios = []
    while not ratios or ratios[-1] > 2.0**-53:
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), c * c / (2.0 * (a + b))
        ratios.append(c / a)
    return a, ratios


def _start_phase(spec):
    """z0 = sign F(phi | m), where sn^2(z0) = sin^2(phi) = (gamma0 - lambda3) / (lambda2 - lambda3).

    F(phi | m) = sin(phi) R_F(cos^2 phi, 1 - m sin^2 phi, 1), each argument a
    ratio of branch-point differences, so gamma0 near either band edge costs
    no digits.
    """
    l1, l2, l3 = spec.lams
    g0, band = spec.gamma0, l2 - l3
    return spec.sign * math.sqrt((g0 - l3) / band) * _carlson_rf((l2 - g0) / band, (l1 - g0) / (l1 - l3), 1.0)


def _carlson_rf(x, y, z):
    """Carlson's symmetric integral R_F(x, y, z) by duplication, to rounding (Carlson 1995)."""
    a = (x + y + z) / 3.0
    q = max(abs(a - x), abs(a - y), abs(a - z)) / (3.0 * 2.0**-53) ** (1.0 / 6.0)
    while q >= abs(a):
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        x, y, z, a = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam), 0.25 * (a + lam)
        q *= 0.25
    dx, dy = 1.0 - x / a, 1.0 - y / a
    dz = -(dx + dy)
    e2, e3 = dx * dy - dz * dz, dx * dy * dz
    return (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / math.sqrt(a)


def integrate_gamma(spec, x_range=(0.0, 10.0), step=0.01, fixed_step=None):
    """Root-variable trajectory from the second-order form gamma'' = C'(gamma)/2.

    Dormand-Prince to tolerance 1e-12, or at fixed steps of ``fixed_step``
    with no error control.  The drift of the first integral
    gamma'^2 - C(gamma) is not judged here: ``report`` checks it as
    ``energy_invariant_drift``.
    """
    accel, y0 = _gamma_ode(spec)

    def rhs(x, s):
        return (s[1], accel(s[0]))

    traj = numeric.integrate_ivp(rhs, x_range[0], y0, x_range[1], tol=1e-12, fixed_step=fixed_step)

    xs = np.arange(x_range[0], x_range[1] + 0.5 * step, step)
    states = traj(xs)
    return RootTrajectory(xs, states[:, 0], states[:, 1], dense=traj)


def _gamma_ode(spec):
    """gamma'' = C'(gamma)/2 as the acceleration g -> C'(g)/2 and the start [gamma0, sign * sqrt(C(gamma0))]."""
    d2, d1, d0 = np.polyder(c_poly(spec)).tolist()  # Python floats keep the stage arithmetic off numpy scalars
    g0 = spec.gamma0
    c0 = 4.0 * (spec.lam1 - g0) * (spec.lam2 - g0) * (g0 - spec.lam3)  # product form: each factor > 0 in the band
    # C'(g)/2, rounded as np.polyval of np.polyder(c) rounds
    return (lambda g: 0.5 * ((d2 * g + d1) * g + d0)), [g0, spec.sign * math.sqrt(c0)]


def _agm_period(spec):
    """T = 2 K(m) / sqrt(lambda1 - lambda3) = pi / (a_N sqrt(lambda1 - lambda3)), from the AGM."""
    return math.pi / (_agm(spec)[0] * math.sqrt(spec.lam1 - spec.lam3))


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
    integration over the AGM's period T carries the state
    (gamma, gamma', psi1, psi1', psi2, psi2') from
    (gamma0, sign * sqrt(C(gamma0)), 1, 0, 0, 1), with gamma'' = C'(gamma)/2
    and u = 2 gamma - lambda1 - lambda2 - lambda3 read from the state.  The
    tolerance is 1e-12: at 1e-10 the error of |trace| = 2 at the band edges
    grows about a hundredfold, to near 4e-7.
    """
    accel, start = _gamma_ode(spec)
    shift = lam - spec.trace

    def rhs(x, s):
        q = shift + 2.0 * s[0]
        return (s[1], accel(s[0]), s[3], q * s[2], s[5], q * s[4])

    end = numeric.integrate_ivp(rhs, 0.0, start + [1.0, 0.0, 0.0, 1.0], _agm_period(spec), tol=1e-12).ys[-1]
    return float(end[2] + end[5])


def report(spec, traj, t_quad, fixed_step):
    """The quadrature period, the cross-check's node count and four checks.

    ``energy_invariant_drift`` is ``dubrovin_checks``; a trajectory on the
    right energy but at the wrong x fails ``trajectory_vs_quadrature_phase``.
    Both judge ``traj`` at every grid point, whatever built it.
    ``gamma_vs_elliptic`` runs ``integrate_gamma`` from traj.xs[0] over one
    period, or over the grid if it is shorter, adaptive or at fixed steps of
    ``fixed_step``, and reads max |gamma_ivp - gamma_AGM| / (lambda2 - lambda3)
    at the integrator's own nodes: a coarse grid may hold a single point of
    the period.  ``period_quadrature_vs_agm`` is the relative gap between
    ``t_quad`` and 2 K(m) / sqrt(lambda1 - lambda3).  ``t_quad`` is
    ``period(spec)``, computed once by the caller.
    """
    origin = float(traj.xs[0])
    end = origin + min(t_quad, float(traj.xs[-1]) - origin)
    # a sample step of one period keeps integrate_gamma's own grid to its ends;
    # the check reads the nodes of its dense output
    ivp = integrate_gamma(spec, (origin, end), step=t_quad, fixed_step=fixed_step)._dense
    gap = np.max(np.abs(ivp.ys[:, 0] - _elliptic(spec, origin)(ivp.xs)[0])) / (spec.lam2 - spec.lam3)
    t_agm = _agm_period(spec)
    return {
        "period": t_quad,
        "gamma_vs_elliptic_nodes": len(ivp.xs),
        "checks": [
            numeric.check("energy_invariant_drift", dubrovin_checks(traj, c_poly(spec)), 1e-8),
            numeric.check("trajectory_vs_quadrature_phase", _phase_gap(spec, traj, t_quad), 1e-6),
            numeric.check("gamma_vs_elliptic", gap, 1e-6),
            numeric.check("period_quadrature_vs_agm", abs(t_quad - t_agm) / t_agm, 1e-12),
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
