"""Algebraic construction of N-soliton transparent potentials.

Wavefunctions are truncated series psi1 = e^{kx}(k^N + a_1 k^{N-1} + ... + a_N)
and psi2 = (-1)^N psi1(x, -k).  Imposing proportionality
psi2(x, k_j) = (-1)^{j+1} B_j psi1(x, k_j) at the prescribed wavenumbers k_j
gives an N x N linear system for the coefficients a_j(x); the potential is
u = 2 a_1'.  Derivatives of a_j are exact, obtained by implicit
differentiation of the system, never by finite differences.  A grid of x
values is one stacked (P, N, N) system, solved by one batched LAPACK solve
per derivative order.  The spectral probes (Wronskian, Schrodinger
residual) take arrays of k and x and evaluate the polynomial parts of
psi1, psi2 with np.polyval on the coefficients of one such solve.

Closed forms in x are provided for N <= 2, and the KdV and KP fields at a
given t (and y) are the same closed form on the phase-shifted spec; report
compares the potential with them.  Sign conventions: the potentials here are
negative wells (u -> 0 at infinity, u <= 0 for equal phases), so the flows
read u_t - 6 u u_x + u_xxx = 0 and (-4 u_t + u_xxx - 6 u u_x)_x + 3 u_yy = 0.
The flows' partials come from Hirota's tau-sum over the 2^N subsets of the
wavenumbers, as weighted joint cumulants (any N <= TAU_SUM_MAX_N);
pde_residual and kp_report build their residuals from it on a whole grid at
once.  The KdV residual and the x-t part of the KP residual vanish, the KP
term 3 u_yy does not.  report and kp_report give the named checks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from . import numeric

__all__ = [
    "SolitonSpec",
    "TransparentPotential",
    "coefficient_system",
    "system_matrix",
    "solve_coefficients",
    "potential",
    "schrodinger_residual",
    "numeric_wronskian",
    "wronskian_poly",
    "closed_form_potential",
    "kp_closed_form",
    "kdv_closed_form",
    "kp_field",
    "kdv_field",
    "pde_residual",
    "PdeResidualReport",
    "TAU_SUM_MAX_N",
    "report",
    "kp_report",
]


@dataclass(frozen=True)
class SolitonSpec:
    """Wavenumbers k_1 > k_2 > ... > k_N > 0 and phases beta_j (B_j = e^{2 beta_j})."""

    k: tuple
    beta: tuple

    def __post_init__(self):
        k = tuple(float(v) for v in self.k)
        beta = tuple(float(v) for v in self.beta)
        if len(k) < 1:
            raise ValueError("need at least one wavenumber")
        if len(k) != len(beta):
            raise ValueError("k and beta must have equal length")
        if any(v <= 0 for v in k):
            raise ValueError("wavenumbers must be positive")
        if any(k[i] <= k[i + 1] for i in range(len(k) - 1)):
            raise ValueError("wavenumbers must be strictly decreasing")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "beta", beta)

    @property
    def n(self):
        return len(self.k)

    def shifted(self, y=0.0, t=0.0, kdv=False):
        """Spec with phases extended by the extra flow variables.

        kp: beta_j + k_j^2 y + k_j^3 t; kdv: beta_j - 4 k_j^3 t.
        """
        k = np.array(self.k)
        if kdv:
            beta = np.array(self.beta) - 4 * k**3 * t
        else:
            beta = np.array(self.beta) + k**2 * y + k**3 * t
        return SolitonSpec(self.k, tuple(beta))


def _rows(k, f, const):
    """Augmented rows [k_j^N w_0j, k_j^{N-1} w_1j, ..., k_j^0 w_Nj] of the system.

    w_ij = f_j where i + j is odd (j 1-based) and ``const`` elsewhere.  f has
    shape (..., N) and the result (..., N, N + 1); column 0 is -rhs, the rest
    is M.  f = tanh(tau) with const = 1 gives the system itself, and
    f = d^r tanh(tau) / dx^r with const = 0 its r-th x-derivative.
    """
    n = k.size
    powers = k[:, None] ** np.arange(n, -1, -1)
    odd = np.add.outer(np.arange(1, n + 1), np.arange(n + 1)) % 2 == 1
    return powers * np.where(odd, f[..., :, None], const)


def coefficient_system(k, e):
    """Interpolation system (M, rhs) for given tanh values e_j = tanh(tau_j).

    Row j (1-based) reads sum_i a_i k_j^{N-i} w_ij = -k_j^N w_0j with
    w_ij = e_j when i + j is odd and 1 otherwise.  e may carry leading batch
    axes, (..., N), giving M of shape (..., N, N) and rhs of shape (..., N).
    """
    rows = _rows(np.asarray(k, dtype=float), np.asarray(e, dtype=float), 1.0)
    return rows[..., 1:], -rows[..., 0]


def system_matrix(spec, x):
    """The row-scaled interpolation system (M, rhs) at x (exposed for conditioning checks).

    Array x gives M of shape x.shape + (N, N) and rhs of shape x.shape + (N,).
    """
    k = np.array(spec.k)
    e = np.tanh(np.multiply.outer(x, k) + np.array(spec.beta))
    m, rhs = coefficient_system(k, e)
    scale = np.max(np.abs(m), axis=-1)
    return m / scale[..., None], rhs / scale


def solve_coefficients(spec, x, order=1):
    """Coefficients a_j(x) and their first ``order`` exact derivatives.

    x is a number or an array of P points.  The row-scaled systems at all
    points are stacked and solved by one batched LAPACK solve per derivative
    order, the derivatives by implicit differentiation:
    M a' = rhs' - M' a and M a'' = rhs'' - 2 M' a' - M'' a.
    Returns a tuple of ``order + 1`` arrays of shape x.shape + (N,).  Raises
    NumericError naming the first x at which the system is singular or its
    solution is not finite (for instance x = nan).
    """
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    x = np.asarray(x, dtype=float)
    xs = x.reshape(-1)
    k = np.array(spec.k)
    e = np.tanh(np.multiply.outer(xs, k) + np.array(spec.beta))
    de = k * (1 - e**2)
    dde = -2 * k**2 * e * (1 - e**2)
    rows = [_rows(k, f, c) for f, c in ((e, 1.0), (de, 0.0), (dde, 0.0))[: order + 1]]
    scale = np.max(np.abs(rows[0][..., 1:]), axis=-1, keepdims=True)
    ms = [r[..., 1:] / scale for r in rows]
    rhss = [-r[..., 0:1] / scale for r in rows]

    out = []
    try:
        for r in range(order + 1):
            # Leibniz: M a^(r) = rhs^(r) - sum_s C(r, s) M^(s) a^(r-s)
            b = rhss[r] - sum(math.comb(r, s) * (ms[s] @ out[r - s]) for s in range(1, r + 1))
            out.append(np.linalg.solve(ms[0], b))
    except np.linalg.LinAlgError as err:
        _fail(xs, ~(np.abs(np.linalg.det(ms[0])) > 0), err)
    coeffs = np.stack(out)[..., 0]  # (order + 1, P, N)
    bad = ~np.isfinite(coeffs).all(axis=(0, 2))
    if bad.any():
        _fail(xs, bad)
    return tuple(c.reshape(x.shape + (spec.n,)) for c in coeffs)


def _fail(xs, bad, cause=None):
    first = xs[int(np.argmax(bad))]
    raise numeric.NumericError(f"interpolation system has no finite solution at x = {first:.6g}") from cause


class TransparentPotential:
    """Evaluator for u(x) = 2 a_1'(x) and the coefficient functions a_j(x)."""

    def __init__(self, spec, grid=None):
        self.spec = spec
        self.grid = None
        self.u = None
        self.a = None
        if grid is not None:
            grid = np.asarray(grid, dtype=float)
            if grid.size == 0:
                raise ValueError("grid must be nonempty")
            self.grid = grid
            self.a, da = solve_coefficients(spec, grid, order=1)
            self.u = 2.0 * da[..., 0]

    def u_at(self, x):
        _, da = solve_coefficients(self.spec, x, order=1)
        return 2.0 * da[..., 0]


def potential(spec, grid):
    """Transparent potential evaluated on a grid, u = 2 a_1' with exact a_1'."""
    return TransparentPotential(spec, grid)


def _poly_coeffs(spec, x, order):
    """Coefficients of P = k^N + a_1 k^{N-1} + ... + a_N and of its x-derivatives.

    P is the polynomial part of psi1 = e^{kx} P.  Returns ``order + 1``
    arrays of shape (N + 1,) + x.shape, highest power of k first, ready for
    np.polyval, from one batched solve over the points of x.
    """
    out = []
    for r, a in enumerate(solve_coefficients(spec, x, order=order)):
        lead = np.full(a.shape[:-1] + (1,), 1.0 if r == 0 else 0.0)
        out.append(np.moveaxis(np.concatenate([lead, a], axis=-1), -1, 0))
    return out


def _alternate(c):
    """Coefficients of psi2's polynomial part Q = (-1)^N P(-k) from those of P."""
    return c * ((-1.0) ** np.arange(len(c))).reshape((-1,) + (1,) * (c.ndim - 1))


def numeric_wronskian(spec, k, x):
    """psi1 psi2' - psi2 psi1' from exact coefficient derivatives (k, x broadcast).

    The exponential factors cancel: W = P Q' - Q P' - 2 k P Q with
    P, Q the polynomial parts.
    """
    k = np.asarray(k, dtype=float)
    c, dc = _poly_coeffs(spec, x, 1)
    p, dp = np.polyval(c, k), np.polyval(dc, k)
    q, dq = np.polyval(_alternate(c), k), np.polyval(_alternate(dc), k)
    return p * dq - q * dp - 2 * k * p * q


def wronskian_poly(spec):
    """Descending coefficients of W(k) = -2k prod_j (k^2 - k_j^2), for np.polyval."""
    poly = functools.reduce(np.polymul, [[1.0, 0.0, -kj * kj] for kj in spec.k])
    return np.polymul(poly, [-2.0, 0.0])


def schrodinger_residual(spec, k, x):
    """Relative residual of psi1 in psi'' = (k^2 + u) psi (k, x broadcast).

    Computed on the polynomial part so the exponential never overflows:
    psi1'' / e^{kx} = k^2 P + 2k P' + P'' must match (k^2 + u) P.
    """
    k = np.asarray(k, dtype=float)
    c, dc, ddc = _poly_coeffs(spec, x, 2)
    u = 2.0 * dc[1]
    p, dp, ddp = (np.polyval(v, k) for v in (c, dc, ddc))
    lhs = k * k * p + 2 * k * dp + ddp
    rhs = (k * k + u) * p
    return np.abs(lhs - rhs) / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)


# ---------------------------------------------------------------------------
# closed forms (N <= 2)


def _tau(spec, j):
    return ex.add(ex.mul(ex.as_expression(spec.k[j]), ex.X), ex.as_expression(spec.beta[j]))


def closed_form_potential(spec):
    """u(x) in closed form: -2k^2/cosh^2(tau) for N=1 and, for N=2,

    u = -2 D_x^2 log((k1 - k2) cosh(tau1 + tau2) + (k1 + k2) cosh(tau1 - tau2)),

    the positive cosh combination whose log-derivative reproduces a_1.
    """
    if spec.n == 1:
        k1 = spec.k[0]
        return ex.mul(
            ex.as_expression(-2 * k1 * k1),
            ex.recip(ex.intpow(ex.cosh(_tau(spec, 0)), 2)),
        )
    if spec.n == 2:
        k1, k2 = spec.k
        t1, t2 = _tau(spec, 0), _tau(spec, 1)
        f = ex.add(
            ex.mul(ex.as_expression(k1 - k2), ex.cosh(ex.add(t1, t2))),
            ex.mul(ex.as_expression(k1 + k2), ex.cosh(ex.sub(t1, t2))),
        )
        return ex.mul(ex.as_expression(-2), ex.diff(ex.log(f), 2))
    raise ValueError("closed forms are available for N <= 2 only")


def kp_closed_form(spec, y, t):
    """u(x) at (y, t), phases tau_j = k_j x + k_j^2 y + k_j^3 t + beta_j (N <= 2)."""
    return closed_form_potential(spec.shifted(y=y, t=t))


def kdv_closed_form(spec, t):
    """u(x) at t, phases tau_j = k_j x - 4 k_j^3 t + beta_j (N <= 2)."""
    return closed_form_potential(spec.shifted(t=t, kdv=True))


def kp_field(spec, x, y, t):
    """KP-extended field via phase-shifted coefficient solves (any N; x a number or array)."""
    shifted = spec.shifted(y=y, t=t)
    return TransparentPotential(shifted).u_at(x)


def kdv_field(spec, x, t):
    """KdV-extended field via phase-shifted coefficient solves (any N; x a number or array)."""
    shifted = spec.shifted(t=t, kdv=True)
    return TransparentPotential(shifted).u_at(x)


# most wavenumbers the tau-sum takes: it sums 2^N subsets at every point
TAU_SUM_MAX_N = 12


def _tau_sum(spec, x, y, t, kdv):
    """u = -2 (log tau)_xx and the partials of the KdV and KP flows, from the tau-sum.

    tau = sum_I A_I exp(2 sum_{i in I} theta_i) over the subsets I of the
    wavenumbers, with every A_I = prod_{i in I} a_i prod_{i<j in I}
    ((k_i - k_j)/(k_i + k_j))^2 > 0 and a_i = prod_{j != i} |(k_i + k_j)/(k_i - k_j)|
    (Hirota).  The phases are theta_i = k_i x + k_i^2 y + k_i^3 t + beta_i,
    or k_i x - 4 k_i^3 t + beta_i when ``kdv`` is true.  log tau is then the
    cumulant generating function of the subset sums X_I = 2 sum k_i and of
    the y and t rates Y_I, T_I under the weights w_I ~ A_I e^{2 sum theta_i},
    so every partial of u is -2 times a joint cumulant of (X, Y, T).  The
    weights are normalised by log-sum-exp and the sums centred, so no large
    terms cancel.  x, y and t broadcast; returns a dict of arrays of their
    broadcast shape with keys u, u_x, u_xx, u_xxx, u_xxxx, u_t, u_tx, u_yy.
    Every reduction runs over the subsets of one point, so a point's values
    do not depend on which other points are evaluated with it.
    """
    n = spec.n
    if n > TAU_SUM_MAX_N:
        raise ValueError(f"the tau-sum takes at most {TAU_SUM_MAX_N} wavenumbers: "
                         f"it sums 2^N = {2**n} subsets at every point")
    k = np.array(spec.k)
    s = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).astype(float)  # subset I as 0/1 row
    gap = np.log(np.abs((k[:, None] - k) / (k[:, None] + k)) + np.eye(n))  # 0 on the diagonal
    log_a = np.einsum("si,ij,sj->s", s, gap, s) - s @ gap.sum(axis=1) + 2 * s @ np.array(spec.beta)
    rates = [2 * s @ r for r in ((k, 0 * k, -4 * k**3) if kdv else (k, k**2, k**3))]
    x, y, t = np.broadcast_arrays(*(np.asarray(v, dtype=float)[..., None] for v in (x, y, t)))
    logw = log_a + rates[0] * x + rates[1] * y + rates[2] * t
    w = np.exp(logw - logw.max(axis=-1, keepdims=True))
    w /= w.sum(axis=-1, keepdims=True)
    dx, dy, dt = (r - np.sum(w * r, axis=-1, keepdims=True) for r in rates)
    wx = [w]
    for _ in range(6):
        wx.append(wx[-1] * dx)  # w dx^p
    m2, m3, m4, m5, m6 = (np.sum(v, axis=-1) for v in wx[2:])
    e_xt, e_xxt, e_xxxt = (np.sum(wx[p] * dt, axis=-1) for p in (1, 2, 3))
    e_yy, e_xy, e_xxyy = (np.sum(v, axis=-1) for v in (w * dy * dy, wx[1] * dy, wx[2] * dy * dy))
    return {
        "u": -2 * m2,
        "u_x": -2 * m3,
        "u_xx": -2 * (m4 - 3 * m2**2),
        "u_xxx": -2 * (m5 - 10 * m3 * m2),
        "u_xxxx": -2 * (m6 - 15 * m4 * m2 - 10 * m3**2 + 30 * m2**3),
        "u_t": -2 * e_xxt,
        "u_tx": -2 * (e_xxxt - 3 * m2 * e_xt),
        "u_yy": -2 * (e_xxyy - m2 * e_yy - 2 * e_xy**2),
    }


def _kp_residual(spec, x, y, t):
    """The KP residual at broadcast points as (x-t part, full residual), from one tau-sum.

    The x-t part -4 u_tx + u_xxxx - 6 u_x^2 - 6 u u_xx vanishes for the
    tanh phases; the full residual adds 3 u_yy, which does not.
    """
    d = _tau_sum(spec, x, y, t, False)
    xt_part = -4 * d["u_tx"] + d["u_xxxx"] - 6 * d["u_x"] ** 2 - 6 * d["u"] * d["u_xx"]
    return xt_part, xt_part + 3 * d["u_yy"]


@dataclass
class PdeResidualReport:
    which: str
    max_abs: float
    points: int


def pde_residual(spec, which="kp", box=3.0, n=5):
    """Maximal PDE residual of the extended field over a sample box (N <= TAU_SUM_MAX_N).

    which="kp": (-4 u_t + u_xxx - 6 u u_x)_x + 3 u_yy, expanded to
    -4 u_tx + u_xxxx - 6 u_x^2 - 6 u u_xx + 3 u_yy.
    which="kdv": u_t - 6 u u_x + u_xxx.

    The partials are the tau-sum's exact cumulants, evaluated on the whole
    n^3 (kp) or n^2 (kdv) grid over [-box, box] at once; a point where the
    residual is undefined makes max_abs NaN.  Raises ValueError above
    TAU_SUM_MAX_N wavenumbers.
    """
    if which not in ("kp", "kdv"):
        raise ValueError("which must be 'kp' or 'kdv'")
    pts = np.linspace(-box, box, n)
    if which == "kdv":
        x, t = np.meshgrid(pts, pts, indexing="ij")
        d = _tau_sum(spec, x, 0.0, t, True)
        residual = d["u_t"] - 6 * d["u"] * d["u_x"] + d["u_xxx"]
        return PdeResidualReport(which, float(np.max(np.abs(residual))), n**2)
    _, residual = _kp_residual(spec, *np.meshgrid(pts, pts, pts, indexing="ij"))
    return PdeResidualReport(which, float(np.max(np.abs(residual))), n**3)


def _fd_kp(spec, x, y, t, h):
    u = lambda xx, yy, tt: kp_field(spec, xx, yy, tt)
    u_tx = (u(x + h, y, t + h) - u(x + h, y, t - h) - u(x - h, y, t + h) + u(x - h, y, t - h)) / (4 * h * h)
    u_xxxx = (u(x - 2 * h, y, t) - 4 * u(x - h, y, t) + 6 * u(x, y, t) - 4 * u(x + h, y, t) + u(x + 2 * h, y, t)) / h**4
    u_x = (u(x + h, y, t) - u(x - h, y, t)) / (2 * h)
    u_xx = (u(x + h, y, t) - 2 * u(x, y, t) + u(x - h, y, t)) / (h * h)
    u_yy = (u(x, y + h, t) - 2 * u(x, y, t) + u(x, y - h, t)) / (h * h)
    return -4 * u_tx + u_xxxx - 6 * u_x**2 - 6 * u(x, y, t) * u_xx + 3 * u_yy


def _fd_kdv(spec, x, t, h):
    u = lambda xx, tt: kdv_field(spec, xx, tt)
    u_t = (u(x, t + h) - u(x, t - h)) / (2 * h)
    u_x = (u(x + h, t) - u(x - h, t)) / (2 * h)
    u_xxx = (u(x + 2 * h, t) - 2 * u(x + h, t) + 2 * u(x - h, t) - u(x - 2 * h, t)) / (2 * h**3)
    return u_t - 6 * u(x, t) * u_x + u_xxx


# ---------------------------------------------------------------------------
# named checks


def report(tp):
    """u(0) and the named checks of potential(spec, grid): far field, Wronskian, transparency, N <= 2 closed form."""
    spec = tp.spec
    xe = 30.0 / spec.k[-1]
    a_far, da_far = solve_coefficients(spec, np.array([xe, -xe]), order=1)
    kprobe = np.array([0.3, 1.31, 2.17, 3.7, spec.k[0] + 0.5])
    wk = np.polyval(wronskian_poly(spec), kprobe)
    wgap = np.max(np.abs(numeric_wronskian(spec, kprobe, 0.37) - wk) / np.maximum(1.0, np.abs(wk)))
    sr = np.max(schrodinger_residual(spec, np.array([[0.5], [1.7]]), np.array([-1.0, 0.8])))
    checks = [
        numeric.check("a1_limit_plus_infinity", abs(a_far[0, 0] + sum(spec.k)), 1e-8),
        numeric.check("a1_limit_minus_infinity", abs(a_far[1, 0] - sum(spec.k)), 1e-8),
        numeric.check("decay_at_far_field", np.max(np.abs(2.0 * da_far[:, 0])), 1e-10),
        numeric.check("wronskian_polynomial_match", wgap, 1e-8),
        numeric.check("transparency_residual", sr, 1e-8),
    ]
    if spec.n <= 2:
        gap = np.max(np.abs(tp.u - closed_form_potential(spec).evaluate(x=tp.grid)))
        checks.append(numeric.check("closed_form_match", gap, 1e-10))
    return {"u_at_zero": tp.u_at(0.0), "checks": checks}


def kp_report(spec):
    """The largest KP residual (3 u_yy survives) and the named checks of the KP-extended field (N <= TAU_SUM_MAX_N)."""
    probe = np.array([-2.0, 0.4, 1.7])
    reduction = np.max(np.abs(kp_field(spec, probe, 0.0, 0.0) - TransparentPotential(spec).u_at(probe)))
    # one tau-sum serves both: the x-t part at the 12 probes, and the full
    # residual on pde_residual(spec, "kp", box=2.0, n=3)'s grid
    probes = np.meshgrid((-2.0, 0.5, 1.5), (-1.0, 0.7), (-0.8, 0.3), indexing="ij")
    box = np.meshgrid(*[np.linspace(-2.0, 2.0, 3)] * 3, indexing="ij")
    xt_part, full = _kp_residual(spec, *(np.concatenate([p.ravel(), b.ravel()]) for p, b in zip(probes, box)))
    checks = [
        numeric.check("static_reduction_matches_potential", reduction, 1e-12),
        numeric.check("xt_flow_identity", np.max(np.abs(xt_part[:12])), 1e-6),
    ]
    return {"transverse_term_max": float(np.max(np.abs(full[12:]))), "checks": checks}
