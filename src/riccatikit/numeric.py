"""Shared numerical substrate.

Adaptive embedded Runge-Kutta integration with dense output (a whole grid
of x is interpolated in one array pass), adaptive Gauss-Kronrod quadrature
with optional endpoint regularisation, small dense LU solves with reusable
factorizations, companion-matrix polynomial roots and finite-difference
stencils.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

__all__ = [
    "NumericError",
    "SingularMatrixError",
    "IntegrationBlowUp",
    "QuadratureError",
    "IvpProblem",
    "Trajectory",
    "integrate_ivp",
    "pow2",
    "quadrature",
    "LUFactorization",
    "linsolve",
    "DensePoly",
    "polyroots",
    "RootResult",
    "fd_derivative",
]


class NumericError(RuntimeError):
    pass


class SingularMatrixError(NumericError):
    pass


class QuadratureError(NumericError):
    pass


class IntegrationBlowUp(NumericError):
    """Step size underflow or state blow-up; ``x`` holds the location."""

    def __init__(self, message, x, trajectory=None):
        super().__init__(message)
        self.x = x
        self.trajectory = trajectory


# ---------------------------------------------------------------------------
# initial value problems

# Dormand-Prince 5(4) tableau; the 5th order solution propagates, the
# difference to the embedded 4th order solution estimates the local error.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array(row)
    for row in (
        [],
        [1 / 5],
        [3 / 40, 9 / 40],
        [44 / 45, -56 / 15, 32 / 9],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
        [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
    )
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])
_DP_E = _DP_B5 - _DP_B4
_TINY_STEP = 16 * np.finfo(float).eps


class IvpProblem:
    """Initial value problem record: y' = rhs(x, y), y(x0) = y0."""

    def __init__(self, rhs, x0, y0):
        self.rhs = rhs
        self.x0 = float(x0)
        self.y0 = np.atleast_1d(np.asarray(y0, dtype=float))
        if self.y0.size < 1:
            raise ValueError("state dimension must be at least 1")
        f0 = np.asarray(rhs(self.x0, self.y0), dtype=float)
        if not np.all(np.isfinite(f0)):
            raise ValueError("right-hand side is not finite at the initial point")

    @property
    def dimension(self):
        return self.y0.size


class Trajectory:
    """Dense solution of an IVP: accepted nodes plus cubic Hermite interpolation."""

    def __init__(self, xs, ys, fs):
        self.xs = np.asarray(xs, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        self.fs = np.asarray(fs, dtype=float)
        self._forward = self.xs[-1] >= self.xs[0]
        # step widths and the interior nodes in ascending order: searching the
        # interior nodes gives the step index already clipped to the range
        self._h = self.xs[1:] - self.xs[:-1]
        self._zero_steps = bool(np.any(self._h == 0))
        inner = self.xs[1:-1]
        self._inner = inner if self._forward else inner[::-1]
        self._inner_list = self._inner.tolist()

    @property
    def x0(self):
        return self.xs[0]

    @property
    def x_end(self):
        return self.xs[-1]

    def __call__(self, x):
        """State at x: shape (dim,) for a number, x.shape + (dim,) for an array.

        Every point is interpolated on the accepted step that holds it, all
        points in one array pass; points outside the range extrapolate the
        first or last step, and a zero-width step returns its node value.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            i = self._step_index(bisect.bisect_left(self._inner_list, float(x)))
            h = self._h[i]
            if h == 0:
                return self.ys[i].copy()
            return _hermite((x - self.xs[i]) / h, h, self.ys[i], self.fs[i], self.ys[i + 1], self.fs[i + 1])
        flat = x.reshape(-1)
        i = self._step_index(np.searchsorted(self._inner, flat))
        h = self._h[i]
        if self._zero_steps:
            zero = h == 0
            h = np.where(zero, 1.0, h)
        t = ((flat - self.xs[i]) / h)[:, None]
        out = _hermite(t, h[:, None], self.ys[i], self.fs[i], self.ys[i + 1], self.fs[i + 1])
        if self._zero_steps:
            out[zero] = self.ys[i[zero]]
        return out.reshape(x.shape + self.ys.shape[1:])

    def _step_index(self, i):
        return i if self._forward else len(self.xs) - 2 - i


def pow2(x):
    """x ** 2 rounded as for a single number, elementwise for arrays.

    A number's ``** 2`` calls libm pow while an array's squares, and the two
    differ in the last bit in about one case in a thousand; array code that
    replaces a per-point loop uses this to keep the loop's bits.
    """
    return np.float_power(x, 2)


def _hermite(t, h, y0, f0, y1, f1):
    """Cubic Hermite interpolant at fraction t of a step of width h."""
    s = pow2(1 - t)
    return (1 + 2 * t) * s * y0 + t * s * h * f0 + t * t * (3 - 2 * t) * y1 + t * t * (t - 1) * h * f1


def integrate_ivp(rhs, x0=None, y0=None, x_end=None, tol=1e-10, max_step=None, fixed_step=None):
    """Integrate y' = rhs(x, y) from x0 to x_end.

    Also accepts an IvpProblem in place of (rhs, x0, y0).  Adaptive
    Dormand-Prince 5(4) by default; ``fixed_step`` switches to classical
    fixed-step RK4 for bit-reproducible runs.  Raises IntegrationBlowUp
    (with location and the partial trajectory) when the step size underflows
    or the state leaves [-1e100, 1e100].
    """
    if isinstance(rhs, IvpProblem):
        if x_end is None:
            x_end = x0  # integrate_ivp(problem, x_end)
        rhs, x0, y0 = rhs.rhs, rhs.x0, rhs.y0
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    x0 = float(x0)
    x_end = float(x_end)
    if x_end == x0:
        f0 = np.asarray(rhs(x0, y0), dtype=float)
        return Trajectory([x0, x0], [y0, y0], [f0, f0])
    if fixed_step is not None:
        return _rk4_fixed(rhs, x0, y0, x_end, fixed_step)

    direction = 1.0 if x_end > x0 else -1.0
    span = abs(x_end - x0)
    if max_step is None:
        max_step = span
    h = direction * min(max_step, span / 10 if span > 0 else 1.0, 1.0)

    xs = [x0]
    ys = [y0.copy()]
    f = np.asarray(rhs(x0, y0), dtype=float)
    fs = [f.copy()]
    x, y = x0, y0.copy()
    k = np.empty((7, y0.size))

    while (x_end - x) * direction > 0:
        if abs(h) < _TINY_STEP * max(1.0, abs(x)):
            traj = Trajectory(xs, ys, fs)
            raise IntegrationBlowUp(f"step size underflow near x = {x:.6g}", x, traj)
        if (x + h - x_end) * direction > 0:
            h = x_end - x
        k[0] = f
        failed = False
        for i in range(1, 7):
            yi = y + h * (_DP_A[i] @ k[:i])
            # one NaN-safe test per stage: a non-finite stage k[i-1] enters
            # yi through a nonzero weight, so it fails here as well
            if not np.abs(yi).max() <= 1e100:
                failed = True
                break
            k[i] = rhs(x + _DP_C[i] * h, yi)
        if failed or not np.isfinite(k[6]).all():
            h *= 0.5
            continue
        y5 = y + h * (_DP_B5 @ k)
        err_vec = h * (_DP_E @ k)
        scale = tol * (1.0 + np.maximum(np.abs(y), np.abs(y5)))
        # RMS norm; the sum over n is what np.mean computes, without its wrapper
        err = math.sqrt(np.add.reduce((err_vec / scale) ** 2) / y.size)
        if err <= 1.0 or abs(h) <= _TINY_STEP * max(1.0, abs(x)):
            x = x + h
            y = y5
            f = np.asarray(k[6], dtype=float)  # FSAL: last stage is f(x+h, y5)
            xs.append(x)
            ys.append(y.copy())
            fs.append(f.copy())
            if not np.abs(y).max() <= 1e100:
                traj = Trajectory(xs, ys, fs)
                raise IntegrationBlowUp(f"solution blow-up near x = {x:.6g}", x, traj)
        factor = 0.9 * err ** (-0.2) if err > 0 else 5.0
        h *= min(5.0, max(0.2, factor))
        if abs(h) > max_step:
            h = direction * max_step
    return Trajectory(xs, ys, fs)


def _rk4_fixed(rhs, x0, y0, x_end, step):
    direction = 1.0 if x_end > x0 else -1.0
    h = direction * abs(step)
    n = max(1, int(round(abs(x_end - x0) / abs(h))))
    h = (x_end - x0) / n
    k1 = np.asarray(rhs(x0, y0), dtype=float)
    xs = [x0]
    ys = [y0.copy()]
    fs = [k1]
    x, y = x0, y0.copy()
    for _ in range(n):
        k2 = np.asarray(rhs(x + h / 2, y + h / 2 * k1), dtype=float)
        k3 = np.asarray(rhs(x + h / 2, y + h / 2 * k2), dtype=float)
        k4 = np.asarray(rhs(x + h, y + h * k3), dtype=float)
        y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        x = x + h
        if not np.abs(y).max() <= 1e100:  # NaN-safe
            traj = Trajectory(xs, ys, fs)
            raise IntegrationBlowUp(f"solution blow-up near x = {x:.6g}", x, traj)
        # the slope stored for dense output is the next step's first stage
        k1 = np.asarray(rhs(x, y), dtype=float)
        xs.append(x)
        ys.append(y.copy())
        fs.append(k1)
    return Trajectory(xs, ys, fs)


# ---------------------------------------------------------------------------
# quadrature

# 15-point Kronrod extension of the 7-point Gauss rule on [-1, 1].
_GK_X = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769, 0.741531185599394,
    0.586087235467691, 0.405845151377397, 0.207784955007898, 0.0,
])
_GK_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250, 0.140653259715525,
    0.169004726639267, 0.190350578064785, 0.204432940075298, 0.209482141084728,
])
_GK_WG = np.array([0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469])


def _gk15(f, a, b):
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = f(c)
    resk = _GK_WK[7] * fc
    resg = _GK_WG[3] * fc
    for j in range(7):
        x = h * _GK_X[j]
        f1 = f(c - x)
        f2 = f(c + x)
        resk += _GK_WK[j] * (f1 + f2)
        if j % 2 == 1:  # Gauss nodes are the odd-index Kronrod nodes
            resg += _GK_WG[j // 2] * (f1 + f2)
    return resk * h, abs((resk - resg) * h)


def quadrature(f, a, b, tol=1e-10, endpoint_regularization=False, max_intervals=4000):
    """Adaptive integral of ``f`` over [a, b] with error below ``tol``.

    ``endpoint_regularization`` applies the substitution
    x = a + (b-a) sin^2(theta), which removes inverse-square-root
    singularities at both endpoints.  Infinite limits are mapped through
    x = tan(theta).
    """
    a = float(a)
    b = float(b)
    if a == b:
        return 0.0
    if math.isinf(a) or math.isinf(b):
        ta = math.atan(a) if not math.isinf(a) else math.copysign(math.pi / 2, a)
        tb = math.atan(b) if not math.isinf(b) else math.copysign(math.pi / 2, b)
        g = lambda t: f(math.tan(t)) / math.cos(t) ** 2
        return quadrature(g, ta, tb, tol=tol, max_intervals=max_intervals)
    if endpoint_regularization:
        w = b - a
        g = lambda t: f(a + w * math.sin(t) ** 2) * w * math.sin(2 * t)
        return quadrature(g, 0.0, math.pi / 2, tol=tol, max_intervals=max_intervals)

    val, err = _gk15(f, a, b)
    intervals = [(err, a, b, val)]
    total_val = val
    total_err = err
    count = 1
    while total_err > tol * max(1.0, abs(total_val)) and total_err > tol:
        if count >= max_intervals:
            raise QuadratureError(
                f"quadrature did not converge: error {total_err:.3g} after {count} intervals"
            )
        intervals.sort(key=lambda t: t[0])
        err, lo, hi, val = intervals.pop()
        mid = 0.5 * (lo + hi)
        v1, e1 = _gk15(f, lo, mid)
        v2, e2 = _gk15(f, mid, hi)
        total_val += v1 + v2 - val
        total_err += e1 + e2 - err
        intervals.append((e1, lo, mid, v1))
        intervals.append((e2, mid, hi, v2))
        count += 2
    return total_val


# ---------------------------------------------------------------------------
# dense linear algebra

class LUFactorization:
    """Partial-pivoting LU of a small dense matrix, reusable across solves."""

    def __init__(self, matrix):
        a = np.array(matrix, dtype=float)
        n, m = a.shape
        if n != m:
            raise ValueError("matrix must be square")
        self.n = n
        piv = np.arange(n)
        scale = np.max(np.abs(a)) or 1.0
        sign = 1
        for col in range(n):
            p = col + int(np.argmax(np.abs(a[col:, col])))
            if abs(a[p, col]) < 1e-14 * scale:
                raise SingularMatrixError(f"pivot {abs(a[p, col]):.3g} below threshold in column {col}")
            if p != col:
                a[[col, p]] = a[[p, col]]
                piv[[col, p]] = piv[[p, col]]
                sign = -sign
            a[col + 1 :, col] /= a[col, col]
            a[col + 1 :, col + 1 :] -= np.outer(a[col + 1 :, col], a[col, col + 1 :])
        self.lu = a
        self.piv = piv
        self.sign = sign

    def solve(self, b):
        b = np.asarray(b, dtype=float)
        x = b[self.piv].astype(float)
        n = self.n
        for i in range(1, n):
            x[i] -= self.lu[i, :i] @ x[:i]
        for i in range(n - 1, -1, -1):
            x[i] = (x[i] - self.lu[i, i + 1 :] @ x[i + 1 :]) / self.lu[i, i]
        return x

    def det_sign(self):
        s = self.sign
        for i in range(self.n):
            if self.lu[i, i] < 0:
                s = -s
        return s


def linsolve(matrix, b):
    """Solve M x = b by partial-pivoting LU."""
    return LUFactorization(matrix).solve(b)


# ---------------------------------------------------------------------------
# polynomials

class DensePoly:
    """Real polynomial with ascending coefficient list, trimmed."""

    def __init__(self, coeffs):
        c = [float(v) for v in coeffs]
        while len(c) > 1 and c[-1] == 0.0:
            c.pop()
        self.coeffs = c

    @classmethod
    def from_roots(cls, roots, leading=1.0):
        c = [1.0]
        for r in roots:
            c = [0.0] + c
            for i in range(len(c) - 1):
                c[i] -= r * c[i + 1]
        return cls([leading * v for v in c])

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __call__(self, x):
        out = 0.0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def deriv(self):
        return DensePoly([i * c for i, c in enumerate(self.coeffs)][1:] or [0.0])

    def __eq__(self, other):
        return isinstance(other, DensePoly) and self.coeffs == other.coeffs

    def __repr__(self):
        return f"DensePoly({self.coeffs})"


class RootResult:
    def __init__(self, roots, backward_error):
        self.roots = roots  # list of (value, multiplicity)
        self.backward_error = backward_error

    def values(self):
        out = []
        for r, m in self.roots:
            out.extend([r] * m)
        return out


def polyroots(p, cluster_tol=1e-7):
    """All complex roots with multiplicities from companion-matrix eigenvalues.

    Roots closer than ``cluster_tol`` (relative to their magnitude) are merged
    into multiplicity groups; a backward-error bound from evaluating the
    polynomial at the computed roots is always reported.
    """
    if not isinstance(p, DensePoly):
        p = DensePoly(p)
    if p.degree < 1:
        raise ValueError("polynomial degree must be at least 1")
    if p.degree > 16:
        raise ValueError("root finding is limited to degree <= 16")
    monic = np.array(p.coeffs, dtype=float) / p.coeffs[-1]
    n = p.degree
    comp = np.zeros((n, n))
    comp[1:, :-1] = np.eye(n - 1)
    comp[:, -1] = -monic[:-1]
    raw = sorted(np.linalg.eigvals(comp), key=lambda z: (round(z.real, 6), round(z.imag, 6)))

    groups = []
    for z in raw:
        placed = False
        for g in groups:
            center = sum(g) / len(g)
            if abs(z - center) <= cluster_tol * max(1.0, abs(center)):
                g.append(z)
                placed = True
                break
        if not placed:
            groups.append([z])
    roots = []
    for g in groups:
        center = sum(g) / len(g)
        if abs(center.imag) <= cluster_tol * max(1.0, abs(center)):
            center = complex(center.real, 0.0)
        roots.append((center, len(g)))

    scale = max(abs(c) for c in p.coeffs)
    backward = max(abs(p(r)) for r, _ in roots) / scale
    return RootResult(roots, backward)


# ---------------------------------------------------------------------------
# finite differences

_CENTRAL = {
    1: (1, [-0.5, 0.0, 0.5]),
    2: (1, [1.0, -2.0, 1.0]),
    3: (2, [-0.5, 1.0, 0.0, -1.0, 0.5]),
    4: (2, [1.0, -4.0, 6.0, -4.0, 1.0]),
}


def fd_derivative(samples, order, step):
    """Derivative of uniformly spaced samples by O(step^2) central stencils.

    Returns (derivatives, boundary_mask); near the ends one-sided stencils of
    lower accuracy are used and flagged in the mask.
    """
    y = np.asarray(samples, dtype=float)
    if order not in _CENTRAL:
        raise ValueError("order must be between 1 and 4")
    half, w = _CENTRAL[order]
    if y.size < 2 * half + 1:
        raise ValueError("grid too short for the requested order")
    out = np.empty_like(y)
    boundary = np.zeros(y.size, dtype=bool)
    w = np.array(w)
    for i in range(half, y.size - half):
        out[i] = w @ y[i - half : i + half + 1] / step**order
    for i in range(half):
        out[i] = w @ y[0 : 2 * half + 1] / step**order
        boundary[i] = True
    for i in range(y.size - half, y.size):
        out[i] = w @ y[-(2 * half + 1) :] / step**order
        boundary[i] = True
    return out, boundary
