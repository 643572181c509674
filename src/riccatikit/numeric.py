"""Shared numerical substrate.

Adaptive embedded Runge-Kutta integration with dense output (one array
pass per call, for one point or a whole grid of x), adaptive Gauss-Kronrod
quadrature to a whole array of upper limits in one sweep, and small dense LU
solves with reusable factorizations.  Polynomials across the package are
numpy's descending coefficient arrays, evaluated with np.polyval.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "check",
    "NumericError",
    "SingularMatrixError",
    "IntegrationBlowUp",
    "QuadratureError",
    "Trajectory",
    "integrate_ivp",
    "pow2",
    "quadrature",
    "LUFactorization",
    "linsolve",
]


def check(name, value, tol):
    """Named check record {name, value, tol, pass}: it passes when value <= tol, so NaN fails."""
    value = float(value)
    return {"name": name, "value": value, "tol": tol, "pass": bool(value <= tol)}


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


def _bounded(values):
    """Every value in [-1e100, 1e100]; NaN fails, wherever it sits."""
    for v in values:
        if not -1e100 <= v <= 1e100:
            return False
    return True


def integrate_ivp(rhs, x0, y0, x_end, tol=1e-10, fixed_step=None):
    """Integrate y' = rhs(x, y) from x0 to x_end.

    Adaptive Dormand-Prince 5(4) by default, starting with a step of
    min(span / 10, 1) and never stepping further than the span;
    ``fixed_step`` switches to classical fixed-step RK4 for bit-reproducible
    runs.  Raises IntegrationBlowUp (with location and the partial
    trajectory) when the step size underflows or the state leaves
    [-1e100, 1e100].

    ``rhs(x, y)`` reads the state by index and returns a sequence of floats
    (a tuple, a list or a 1-d array).  The fixed-step RK4 passes ``y`` as a
    list of Python floats and does its stage arithmetic on them, which rounds
    exactly as numpy's elementwise operations do; the adaptive steps pass a
    numpy array row.
    """
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    x0 = float(x0)
    x_end = float(x_end)
    if x_end == x0:
        f0 = np.asarray(rhs(x0, y0), dtype=float)
        return Trajectory([x0, x0], [y0, y0], [f0, f0])
    if fixed_step is not None:
        return _rk4_fixed(rhs, x0, y0.tolist(), x_end, fixed_step)

    direction = 1.0 if x_end > x0 else -1.0
    span = abs(x_end - x0)
    h = direction * min(span / 10, 1.0)

    xs = [x0]
    ys = [y0.copy()]
    f = np.array(rhs(x0, y0), dtype=float)
    fs = [f]
    x, y = x0, ys[0]
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
            # one NaN-safe test per stage, before the rhs sees the state: a
            # non-finite stage k[i-1] enters yi through a nonzero weight, so
            # it fails here as well
            if not _bounded(yi.tolist()):
                failed = True
                break
            k[i] = rhs(x + _DP_C[i] * h, yi)
        if failed or not all(map(math.isfinite, k[6].tolist())):
            h *= 0.5
            continue
        y5 = y + h * (_DP_B5 @ k)
        err_vec = h * (_DP_E @ k)
        scale = tol * (1.0 + np.maximum(np.abs(y), np.abs(y5)))
        # RMS norm; the sum over n is what np.mean computes, without its wrapper
        err = math.sqrt(np.add.reduce((err_vec / scale) ** 2) / y.size)
        if err <= 1.0 or abs(h) <= _TINY_STEP * max(1.0, abs(x)):
            x = x + h
            y = y5  # a fresh array: no later operation writes into it
            # FSAL: last stage is f(x+h, y5).  f is a view of k[6], so a step
            # retried after a rejection starts from the rejected attempt's
            # last stage, not from f(x, y)
            f = k[6]
            xs.append(x)
            ys.append(y)
            fs.append(f.copy())
            if not _bounded(y.tolist()):
                traj = Trajectory(xs, ys, fs)
                raise IntegrationBlowUp(f"solution blow-up near x = {x:.6g}", x, traj)
        factor = 0.9 * err ** (-0.2) if err > 0 else 5.0
        h *= min(5.0, max(0.2, factor))
        if abs(h) > span:
            h = direction * span
    return Trajectory(xs, ys, fs)


def _rk4_fixed(rhs, x0, y0, x_end, step):
    """Classical RK4 on lists of Python floats; the Trajectory arrays are built once, at the end."""
    direction = 1.0 if x_end > x0 else -1.0
    h = direction * abs(step)
    n = max(1, int(round(abs(x_end - x0) / abs(h))))
    h = (x_end - x0) / n
    h2 = h / 2
    h6 = h / 6
    x, y = x0, y0
    k1 = rhs(x, y)
    xs = [x]
    ys = [y]
    fs = [k1]
    for _ in range(n):
        xm = x + h2
        k2 = rhs(xm, [a + h2 * b for a, b in zip(y, k1)])
        k3 = rhs(xm, [a + h2 * b for a, b in zip(y, k2)])
        x = x + h
        k4 = rhs(x, [a + h * b for a, b in zip(y, k3)])
        y = [a + h6 * (b1 + 2 * b2 + 2 * b3 + b4) for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
        if not _bounded(y):
            traj = Trajectory(xs, ys, fs)
            raise IntegrationBlowUp(f"solution blow-up near x = {x:.6g}", x, traj)
        # the slope stored for dense output is the next step's first stage
        k1 = rhs(x, y)
        xs.append(x)
        ys.append(y)
        fs.append(k1)
    return Trajectory(xs, ys, fs)


# ---------------------------------------------------------------------------
# quadrature

# 15-point Kronrod extension of the 7-point Gauss rule on [-1, 1], to full
# double precision: the non-negative Kronrod nodes (the odd-index ones and 0
# are the Gauss nodes), their Kronrod weights and the Gauss weights.
_GK_X = np.array([
    0.99145537112081263920685469752633, 0.94910791234275852452618968404785,
    0.86486442335976907278971278864093, 0.74153118559939443986386477328079,
    0.58608723546769113029414483825873, 0.40584515137739716690660641207696,
    0.20778495500789846760068940377324, 0.0,
])
_GK_WK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.10479001032225018383987632254152, 0.14065325971552591874518959051024,
    0.16900472663926790282658342659855, 0.19035057806478540991325640242101,
    0.20443294007529889241416199923465, 0.20948214108472782801299917489171,
])
_GK_WG = np.array([
    0.12948496616886969327061143267908, 0.27970539148927666790146777142378,
    0.38183005050511894495036977548898, 0.41795918367346938775510204081633,
])
# all 15 nodes in ascending order and their (Kronrod, Gauss) weight columns
_GK_J = np.r_[0:8, 6:-1:-1]  # index into _GK_X of each node
_GK_NODES = np.where(np.arange(15) < 7, -1.0, 1.0) * _GK_X[_GK_J]
_GK_WEIGHTS = np.stack([_GK_WK[_GK_J], np.where(_GK_J % 2 == 1, _GK_WG[_GK_J // 2], 0.0)], axis=1)


def _gk15(f, lo, hi):
    """Kronrod values and |Kronrod - Gauss| error estimates from lo to hi.

    One call of ``f`` on the 15 nodes of every interval; an interval with
    hi < lo gets the negated integral.  The third result tells whether every
    value is finite; an interval where ``f`` is not finite at some node gets
    a NaN value.
    """
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    x = (c[:, None] + h[:, None] * _GK_NODES).reshape(-1)
    fx = np.asarray(f(x), dtype=float)
    if fx.shape != x.shape:
        fx = np.broadcast_to(fx, x.shape)
    kg = fx.reshape(-1, 15) @ _GK_WEIGHTS
    finite = math.isfinite(np.add.reduce(kg[:, 0]))
    if not finite:
        kg[~np.isfinite(kg)] = np.nan  # NaN, unlike inf, subtracts without a warning
    return kg[:, 0] * h, np.abs((kg[:, 0] - kg[:, 1]) * h), finite


def quadrature(f, a, b, tol=1e-10, max_intervals=4000, domain=False):
    """Adaptive integral of ``f`` from ``a`` to ``b``, a number or an array.

    ``f`` maps an array of abscissae to an array of values.  One adaptive
    sweep covers the sorted breakpoints {a} and b and returns the cumulative
    integral at each b (a float for a number b, an array of b's shape
    otherwise); for every returned value I(x) the summed error estimate
    between a and x is at most tol * max(1, |I(x)|).  Each refinement pass
    calls f once, on the 15 Gauss-Kronrod nodes of every interval still being
    refined.  Infinite limits are mapped through x = tan(theta).  A NaN
    limit, a non-finite integrand value, or more than ``max_intervals``
    intervals plus one per further breakpoint raises QuadratureError.

    With ``domain`` a non-finite integrand value marks the edge of the
    integrand's domain instead: seen from a, the far end of the gap between
    breakpoints where it appeared and every breakpoint beyond give NaN, and
    no interval there is refined further.
    """
    a = float(a)
    bs = np.asarray(b, dtype=float)
    if math.isnan(a) or np.isnan(bs).any():
        raise QuadratureError("quadrature limit is NaN")
    if math.isinf(a) or np.isinf(bs).any():
        g = lambda t: f(np.tan(t)) / np.cos(t) ** 2
        return quadrature(g, np.arctan(a), np.arctan(bs), tol=tol, max_intervals=max_intervals, domain=domain)
    if bs.ndim == 0:
        if bs == a:
            return 0.0
        pts, ia = np.array([a, bs]), 0  # one gap, from a to b
    else:
        # breakpoints in ascending order; a is breakpoint ia
        pts, where = np.unique(np.append(bs, a), return_inverse=True)
        where = where.reshape(-1)
        ia = where[-1]
        if len(pts) == 1:
            return np.zeros(bs.shape)
    gaps = len(pts) - 1
    dist = np.abs(pts - a)
    dist[ia] = 1.0
    limit = max_intervals + gaps - 1
    # gap k joins breakpoints k and k + 1 and runs from the end nearer to a,
    # so its integral carries the sign the breakpoints beyond it need
    lo = np.concatenate([pts[1 : ia + 1], pts[ia:-1]])
    hi = np.concatenate([pts[:ia], pts[ia + 1 :]])
    gap = np.arange(gaps)
    # breakpoints at or below ``left`` and at or above ``right`` lie beyond
    # the integrand's domain
    left, right = -1, gaps + 1
    val, err, finite = _gk15(f, lo, hi)
    while True:
        if not finite:
            bad = np.isnan(val)
            if not domain and bad.any():
                raise QuadratureError(f"integrand is not finite between x = {lo[bad][0]:.6g} and {hi[bad][0]:.6g}")
            left = max(left, np.max(gap[bad & (gap < ia)], initial=-1))
            right = min(right, np.min(gap[bad & (gap >= ia)], initial=gaps) + 1)
            live = (gap > left) & (gap < right - 1)
            lo, hi, gap, val, err = lo[live], hi[live], gap[live], val[live], err[live]
        integral = _outward(np.bincount(gap, val, gaps), ia)
        budget = tol * np.maximum(1.0, np.abs(integral))
        over = _outward(np.bincount(gap, err, gaps), ia) - budget
        if np.count_nonzero(over > 0) == 0:
            break
        # error per unit length allowed in each gap: the tightest budget of
        # the breakpoints beyond it; when every interval keeps to it, every
        # breakpoint keeps to its bound
        rate = budget / dist
        rate[: left + 1] = rate[right:] = np.inf
        allowed = np.concatenate([np.minimum.accumulate(rate[:ia]), np.minimum.accumulate(rate[:ia:-1])[::-1]])
        refine = err > allowed[gap] * np.abs(hi - lo)
        count = np.count_nonzero(refine)
        if count == 0:
            break  # the bound holds up to rounding in the sums
        if len(lo) + count > limit:
            raise QuadratureError(
                f"quadrature did not converge: error {np.max(over):.3g} over the bound after {len(lo)} intervals"
            )
        keep = ~refine
        mid = 0.5 * (lo[refine] + hi[refine])
        new_lo = np.concatenate([lo[refine], mid])
        new_hi = np.concatenate([mid, hi[refine]])
        new_val, new_err, finite = _gk15(f, new_lo, new_hi)
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        gap = np.concatenate([gap[keep], gap[refine], gap[refine]])
        val = np.concatenate([val[keep], new_val])
        err = np.concatenate([err[keep], new_err])
    integral[: left + 1] = integral[right:] = np.nan
    if bs.ndim == 0:
        return float(integral[1])
    return integral[where[:-1]].reshape(bs.shape)


def _outward(per_gap, ia):
    """Running sums of per-gap values from breakpoint ``ia`` out to every breakpoint."""
    out = np.empty(len(per_gap) + 1)
    out[ia] = 0.0
    np.add.accumulate(per_gap[ia:], out=out[ia + 1 :])
    if ia:
        np.add.accumulate(per_gap[ia - 1 :: -1], out=out[ia - 1 :: -1])
    return out


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
