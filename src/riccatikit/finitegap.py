"""1-phase finite-gap potentials and the Dubrovin root-variable system.

For branch points lambda1 > lambda2 > lambda3 the root variable gamma(x)
oscillates in the band [lambda3, lambda2] according to
gamma_x^2 = C(gamma), C(g) = 4 (g - lambda1)(g - lambda2)(g - lambda3), and
u = 2 gamma - lambda1 - lambda2 - lambda3 is a smooth periodic potential.
Turning points are crossed by integrating the differentiated second-order
form gamma_xx = C'(gamma)/2, which removes square-root branch bookkeeping.
C is a descending coefficient array (c_poly), evaluated with np.polyval.
For N root variables C has degree 2N + m, and the coupled system
gamma_{j,x}^2 = C(gamma_j) / prod_{k != j} (gamma_j - gamma_k)^2 is exposed
both as a magnitude right-hand side (caller-managed signs) and as a smooth
second-order integrator.  The Dubrovin identities are checked at every grid
point of a trajectory in one array pass, and the turning points of a
trajectory are bisected all at once.  A Floquet discriminant is one
integration that carries gamma and both columns of the transfer matrix.
report gives the named checks of a 1-phase trajectory.
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
    "dubrovin_rhs",
    "integrate_dubrovin",
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
    """Sampled root variables gamma_j(x) with their first two derivatives."""

    def __init__(self, xs, gammas, dgammas, ddgammas, dense=None):
        self.xs = np.asarray(xs, dtype=float)
        self.gammas = np.atleast_2d(np.asarray(gammas, dtype=float).T).T
        self.dgammas = np.atleast_2d(np.asarray(dgammas, dtype=float).T).T
        self.ddgammas = np.atleast_2d(np.asarray(ddgammas, dtype=float).T).T
        self._dense = dense

    @property
    def n(self):
        return self.gammas.shape[1]

    def __call__(self, x):
        """Dense state [gamma_j, gamma_j'] at x."""
        if self._dense is None:
            raise ValueError("trajectory has no dense interpolant")
        return self._dense(x)

    def turning_points(self, kind="max"):
        """x locations where gamma_1' crosses zero (maxima or minima).

        Each sign change of the sampled gamma_1' is bisected on the dense
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

    The first integral gamma'^2 - C(gamma) of the oscillation must stay below
    1e-8 * max(1, |C| scale); larger drift (step too large) is an error.
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

    energy = np.abs(dgam**2 - np.polyval(c, gam))
    scale = max(1.0, np.polyval(c, spec.gamma0))
    if np.max(energy) > 1e-8 * scale:
        raise numeric.NumericError(
            f"energy drift {np.max(energy):.3g} exceeds tolerance; reduce the step"
        )
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
    if traj.n != 1:
        raise ValueError("the trace formula applies to 1-phase trajectories")
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
    """Quadrature and trajectory periods (NaN below two maxima) and the named checks of a 1-phase trajectory.

    ``t_quad`` is ``period(spec)``, computed once by the caller, which may
    also need it to size the trajectory.
    """
    maxima = traj.turning_points("max")
    t_traj = maxima[1] - maxima[0] if len(maxima) >= 2 else float("nan")
    period_gap = abs(t_quad - t_traj) / t_quad if len(maxima) >= 2 else float("inf")
    c = c_poly(spec)
    energy = np.max(np.abs(numeric.pow2(traj.dgammas[:, 0]) - np.polyval(c, traj.gammas[:, 0])))
    checks = [
        numeric.check("period_quadrature_vs_trajectory", period_gap, 1e-6),
        numeric.check("energy_invariant_drift", energy, 1e-8),
    ]
    if traj.xs[-1] - traj.xs[0] > t_quad:  # u(x + T) = u(x) where the grid spans a period
        xs_check = traj.xs[traj.xs <= traj.xs[-1] - t_quad][::5]
        per = np.max(np.abs(traj(xs_check + t_quad)[:, 0] - traj(xs_check)[:, 0]))
        checks.append(numeric.check("periodicity_of_u", 2 * per, 1e-6))
    dub = dubrovin_checks(traj, c)
    checks.append(numeric.check("dubrovin_item1", dub.item1_max, 1e-6))
    checks.append(numeric.check("dubrovin_division_remainder", dub.remainder_max, 1e-6))
    return {"period": t_quad, "trajectory_period": t_traj, "checks": checks}


# ---------------------------------------------------------------------------
# Dubrovin system for N root variables


def dubrovin_rhs(c, gamma):
    """Magnitudes |gamma_j'| = sqrt(C(gamma_j)) / prod_{k != j} |gamma_j - gamma_k|.

    Signs are the caller's branch state.  A root that left its band
    (C(gamma_j) < 0) or a collision gamma_j = gamma_k is an error.
    """
    gamma = np.asarray(gamma, dtype=float)
    n = gamma.size
    out = np.empty(n)
    for j in range(n):
        cj = np.polyval(c, gamma[j])
        if cj < 0:
            raise ValueError(f"C(gamma_{j + 1}) < 0: root left its band")
        prod = 1.0
        for k in range(n):
            if k == j:
                continue
            d = gamma[j] - gamma[k]
            if d == 0:
                raise ValueError(f"root collision gamma_{j + 1} = gamma_{k + 1}")
            prod *= abs(d)
        out[j] = math.sqrt(cj) / prod
    return out


def _dubrovin_accel(c, dc, gamma, dgamma):
    """gamma_j'' for one state (n,) or for many at once (points, n)."""
    n = gamma.shape[-1]
    acc = np.empty(gamma.shape)
    for j in range(n):
        q = 1.0
        cross = 0.0
        for k in range(n):
            if k == j:
                continue
            d = gamma[..., j] - gamma[..., k]
            q = q * d
            cross = cross + (dgamma[..., j] - dgamma[..., k]) / d
        acc[..., j] = 0.5 * np.polyval(dc, gamma[..., j]) / (q * q) - dgamma[..., j] * cross
    return acc


def integrate_dubrovin(c, gamma0, signs, x_range, step=0.005, tol=1e-12):
    """Integrate the N-root Dubrovin system in its smooth second-order form.

    gamma_j'' = C'(gamma_j)/(2 Q_j^2) - gamma_j' sum_{k != j}
    (gamma_j' - gamma_k')/(gamma_j - gamma_k), with Q_j the signed distance
    product; starting speeds come from ``dubrovin_rhs`` with caller signs.
    """
    dc = np.polyder(c)
    gamma0 = np.asarray(gamma0, dtype=float)
    n = gamma0.size
    speeds = dubrovin_rhs(c, gamma0) * np.asarray(signs, dtype=float)

    def rhs(x, s):
        gam, dgam = s[:n], s[n:]
        return np.concatenate([dgam, _dubrovin_accel(c, dc, gam, dgam)])

    y0 = np.concatenate([gamma0, speeds])
    traj = numeric.integrate_ivp(rhs, x_range[0], y0, x_range[1], tol=tol)
    xs = np.arange(x_range[0], x_range[1] + 0.5 * step, step)
    states = traj(xs)
    gam = states[:, :n]
    dgam = states[:, n:]
    ddgam = _dubrovin_accel(c, dc, gam, dgam)
    return RootTrajectory(xs, gam, dgam, ddgam, dense=traj)


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

    (1) C(gamma_j) equals phi_x^2 at lambda = gamma_j, where
        phi(x, lambda) = prod_j (lambda - gamma_j(x));
    (2) 2 phi phi_xx + C(lambda) - phi_x^2 is exactly divisible by phi^2 and
        the quotient is 4U with U monic of degree m.

    Every grid point is checked in one array pass: phi, phi_x and phi_xx are
    (points, n + 1) descending-coefficient arrays, and the division by the
    monic phi^2 is a synthetic division over the quotient columns.
    Returns per-identity maxima; ``passed`` reflects the given tolerance.
    """
    m_expected = len(c) - 1 - 2 * traj.n
    gam, dgam, ddgam = traj.gammas, traj.dgammas, traj.ddgammas
    points, n = gam.shape

    q = np.ones((points, n))
    for j in range(n):
        for k in range(n):
            if k != j:
                q[:, j] *= gam[:, j] - gam[:, k]
    item1 = float(np.max(np.abs(np.polyval(c, gam) - numeric.pow2(dgam * q))))

    phi = _from_roots(gam)
    phi_x = np.zeros((points, n))
    phi_xx = np.zeros((points, n))
    for j in range(n):
        pj = _from_roots(np.delete(gam, j, axis=1))
        phi_x -= dgam[:, j, None] * pj
        phi_xx -= ddgam[:, j, None] * pj
        for k in range(n):
            if k != j:
                pjk = _from_roots(np.delete(gam, [j, k], axis=1))
                phi_xx[:, 1:] += (dgam[:, j] * dgam[:, k])[:, None] * pjk

    width = max(len(c), 2 * n)
    numerator = np.zeros((points, width))
    numerator[:, width - len(c) :] = c
    numerator[:, width - (2 * n - 1) :] -= _polymul(phi_x, phi_x)
    numerator[:, width - 2 * n :] += 2.0 * _polymul(phi, phi_xx)

    divisor = _polymul(phi, phi)  # monic, degree 2n
    n_quot = width - 2 * n
    quotients = np.zeros((points, max(n_quot, 1)))
    for k in range(n_quot):
        quotients[:, k] = numerator[:, k]
        numerator[:, k : k + 2 * n + 1] -= numerator[:, k, None] * divisor
    remainder = numerator[:, max(n_quot, 0) :]
    remainder_max = float(np.max(np.abs(remainder)))

    degree = quotients.shape[1] - 1
    lead = float(np.mean(quotients[:, 0]))
    passed = item1 <= tol and remainder_max <= tol and degree == m_expected and abs(lead - 4.0) <= tol
    return DubrovinReport(item1, remainder_max, degree, lead, quotients, passed)


def _from_roots(roots):
    """Descending coefficients of prod_j (lambda - roots[:, j]), one row per point."""
    points, n = roots.shape
    out = np.zeros((points, n + 1))
    out[:, 0] = 1.0
    for j in range(n):
        out[:, 1 : j + 2] -= roots[:, j, None] * out[:, : j + 1]
    return out


def _polymul(a, b):
    """Row-wise product of descending-coefficient arrays."""
    out = np.zeros((a.shape[0], a.shape[1] + b.shape[1] - 1))
    for i in range(a.shape[1]):
        out[:, i : i + b.shape[1]] += a[:, i, None] * b
    return out
