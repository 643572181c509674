"""Shared numerical substrate.

Adaptive Dormand-Prince 5(4) integration and fixed-step RK4, both on lists
of Python floats, with dense output in one array pass per call, for one
point or a whole grid of x (Dormand-Prince's quartic continuous extension,
or a cubic Hermite for RK4); adaptive Gauss-Kronrod quadrature between
finite limits, to a whole array of upper limits in one sweep, capped at
4000 intervals; and small dense LU solves with reusable factorizations.
Polynomials across the package are numpy's descending coefficient arrays,
evaluated with np.polyval.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import chain

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

# Dormand-Prince 5(4) tableau: nodes _C*, stage weights _A*, the 5th order
# solution's weights _B* (also the last stage's, so that stage's state is the
# new solution and its slope f there) and the 5th minus embedded 4th order
# weights _E*, which estimate the local error.  Stage 2 has zero weight in the
# solution and in the error estimate.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = 71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40
# Dormand-Prince's quartic continuous extension (Hairer, Norsett & Wanner,
# Solving ODEs I, II.6; the coefficients of scipy's RK45), written as
#   y(t) = (1 - t) y0 + t y1 - h t (1 - t) (R0 + t (R1 + t R2)),
# which takes the node values exactly at t = 0 and t = 1.  Each row holds a
# stage index and its weights in R0, R1 and R2, R_m = sum of stage * weight.
_DP_DENSE = (
    (0, -349 / 384, 7313519299 / 3760694144, -12715105075 / 11282082432),
    (2, 500 / 1113, -116867902700 / 32700410799, 87487479700 / 32700410799),
    (3, 125 / 192, 24727186175 / 5641041216, -10690763975 / 1880347072),
    (4, -2187 / 6784, -573470282673 / 199316789632, 701980252875 / 199316789632),
    (5, 11 / 84, 3715202249 / 2467955532, -1453857185 / 822651844),
    (6, 0.0, -40617522 / 29380423, 69997945 / 29380423),
)
_TINY_STEP = 16 * np.finfo(float).eps


class Trajectory:
    """Dense solution of an IVP: the accepted nodes and an interpolant on each step.

    ``xs``, ``ys`` and ``fs`` hold the nodes, the states there and the slopes
    f(x, y) there.  With ``stages``, one tuple of the seven Dormand-Prince
    stage slopes per step, the interpolant is Dormand-Prince's quartic
    continuous extension, of the order of the steps; without, a cubic Hermite
    on the node states and slopes.
    """

    def __init__(self, xs, ys, fs, stages=None):
        self.xs = np.asarray(xs, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        self.fs = np.asarray(fs, dtype=float)
        self.stages = stages
        self._forward = self.xs[-1] >= self.xs[0]
        # step widths and the interior nodes in ascending order: searching the
        # interior nodes gives the step index already clipped to the range
        self._h = self.xs[1:] - self.xs[:-1]
        self._zero_steps = bool(np.any(self._h == 0))
        inner = self.xs[1:-1]
        self._inner = inner if self._forward else inner[::-1]

    def __call__(self, x):
        """State at x: shape (dim,) for a number, x.shape + (dim,) for an array.

        Every point is interpolated on the accepted step that holds it, all
        points in one array pass, so an array call gives the bits of the
        calls on its single points; points outside the range extrapolate the
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
        h = h[:, None]
        if self.stages is None:
            out = _hermite(t, h, self.ys[i], self.fs[i], self.ys[i + 1], self.fs[i + 1])
        else:
            r0, r1, r2 = self._quartic_coeffs
            s = 1 - t
            out = s * self.ys[i] + t * self.ys[i + 1] - (h * t * s) * (r0[i] + t * (r1[i] + t * r2[i]))
        if self._zero_steps:
            out[zero] = self.ys[i[zero]]
        return out.reshape(x.shape + self.ys.shape[1:])

    def _step_index(self, i):
        return i if self._forward else len(self.xs) - 2 - i

    @cached_property
    def _quartic_coeffs(self):
        """R0, R1 and R2 of every step as (steps, dim) arrays, summed elementwise in one fixed order."""
        shape = (len(self.stages), 7, self.ys.shape[1])
        k = np.fromiter(chain.from_iterable(chain.from_iterable(self.stages)), float, math.prod(shape))
        k = k.reshape(shape)
        r0 = r1 = r2 = 0.0
        for j, w0, w1, w2 in _DP_DENSE:
            kj = k[:, j]
            r0 = r0 + w0 * kj
            r1 = r1 + w1 * kj
            r2 = r2 + w2 * kj
        return r0, r1, r2


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
    min(span / 10, 1) and never stepping further than the span, with
    Dormand-Prince's quartic dense output; ``fixed_step`` switches to
    classical fixed-step RK4 with cubic Hermite dense output, for
    bit-reproducible runs.  Raises IntegrationBlowUp (with location and the
    partial trajectory) when the step size underflows or the state leaves
    [-1e100, 1e100].

    Both integrators pass ``rhs`` the state ``y`` as a list of Python floats,
    to be read by index, and do their stage arithmetic on Python floats,
    which rounds exactly as numpy's elementwise operations do.  ``rhs``
    returns a sequence of floats: a tuple, a list or a 1-d array (Python
    floats keep numpy scalars out of the stages).
    """
    y0 = np.atleast_1d(np.asarray(y0, dtype=float)).tolist()
    x0 = float(x0)
    x_end = float(x_end)
    if x_end == x0:
        f0 = rhs(x0, y0)
        return Trajectory([x0, x0], [y0, y0], [f0, f0])
    if fixed_step is not None:
        return _rk4_fixed(rhs, x0, y0, x_end, fixed_step)

    direction = 1.0 if x_end > x0 else -1.0
    span = abs(x_end - x0)
    h = direction * min(span / 10, 1.0)
    x, y = x0, y0
    f = rhs(x, y)
    xs, ys, fs, stages = [x], [y], [f], []
    n = len(y)
    while (x_end - x) * direction > 0:
        if abs(h) < _TINY_STEP * max(1.0, abs(x)):
            traj = Trajectory(xs, ys, fs, stages)
            raise IntegrationBlowUp(f"step size underflow near x = {x:.6g}", x, traj)
        if (x + h - x_end) * direction > 0:
            h = x_end - x
        attempt = _dp_step(rhs, x, y, f, h)
        if attempt is None:
            h *= 0.5
            continue
        y_new, k = attempt
        k1, _, k3, k4, k5, k6, k7 = k
        # RMS norm of the error estimate, each component scaled by tol * (1 + |y|)
        total = 0.0
        for a, b, p1, p3, p4, p5, p6, p7 in zip(y, y_new, k1, k3, k4, k5, k6, k7):
            e = h * (_E1 * p1 + _E3 * p3 + _E4 * p4 + _E5 * p5 + _E6 * p6 + _E7 * p7)
            e /= tol * (1.0 + max(abs(a), abs(b)))
            total += e * e
        err = math.sqrt(total / n)
        if err <= 1.0 or abs(h) <= _TINY_STEP * max(1.0, abs(x)):
            # FSAL: the last stage is f(x + h, y_new), the next step's first
            # stage; a rejected attempt leaves f alone
            x = x + h
            y = y_new
            f = k7
            xs.append(x)
            ys.append(y)
            fs.append(f)
            stages.append(k)
        factor = 0.9 * err ** (-0.2) if err > 0 else 5.0
        h *= min(5.0, max(0.2, factor))
        if abs(h) > span:
            h = direction * span
    return Trajectory(xs, ys, fs, stages)


def _dp_step(rhs, x, y, k1, h):
    """One Dormand-Prince attempt from (x, y) with first stage k1.

    Returns the 5th order solution at x + h, which is the last stage's
    state, and the seven stages.  None when a stage state leaves
    [-1e100, 1e100], tested before the rhs sees it (a non-finite stage enters
    the next state through a nonzero weight, so it fails there), or when the
    last stage is not finite.
    """
    y2 = [a + h * (_A21 * p1) for a, p1 in zip(y, k1)]
    if not _bounded(y2):
        return None
    k2 = rhs(x + _C2 * h, y2)
    y3 = [a + h * (_A31 * p1 + _A32 * p2) for a, p1, p2 in zip(y, k1, k2)]
    if not _bounded(y3):
        return None
    k3 = rhs(x + _C3 * h, y3)
    y4 = [a + h * (_A41 * p1 + _A42 * p2 + _A43 * p3) for a, p1, p2, p3 in zip(y, k1, k2, k3)]
    if not _bounded(y4):
        return None
    k4 = rhs(x + _C4 * h, y4)
    y5 = [
        a + h * (_A51 * p1 + _A52 * p2 + _A53 * p3 + _A54 * p4)
        for a, p1, p2, p3, p4 in zip(y, k1, k2, k3, k4)
    ]
    if not _bounded(y5):
        return None
    k5 = rhs(x + _C5 * h, y5)
    y6 = [
        a + h * (_A61 * p1 + _A62 * p2 + _A63 * p3 + _A64 * p4 + _A65 * p5)
        for a, p1, p2, p3, p4, p5 in zip(y, k1, k2, k3, k4, k5)
    ]
    if not _bounded(y6):
        return None
    k6 = rhs(x + h, y6)
    y7 = [
        a + h * (_B1 * p1 + _B3 * p3 + _B4 * p4 + _B5 * p5 + _B6 * p6)
        for a, p1, p3, p4, p5, p6 in zip(y, k1, k3, k4, k5, k6)
    ]
    if not _bounded(y7):
        return None
    k7 = rhs(x + h, y7)
    if not all(map(math.isfinite, k7)):
        return None
    return y7, (k1, k2, k3, k4, k5, k6, k7)


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


_MAX_INTERVALS = 4000


def quadrature(f, a, b, tol=1e-10, domain=False):
    """Adaptive integral of ``f`` from ``a`` to ``b``, a number or an array.

    ``f`` maps an array of abscissae to an array of values.  One adaptive
    sweep covers the sorted breakpoints {a} and b and returns the cumulative
    integral at each b (a float for a number b, an array of b's shape
    otherwise); for every returned value I(x) the summed error estimate
    between a and x is at most tol * max(1, |I(x)|).  Each refinement pass
    calls f once, on the 15 Gauss-Kronrod nodes of every interval still being
    refined.  The limits must be finite: a NaN or infinite limit, a
    non-finite integrand value, or more than 4000 intervals plus one per
    further breakpoint raises QuadratureError.

    With ``domain`` a non-finite integrand value marks the edge of the
    integrand's domain instead: seen from a, the far end of the gap between
    breakpoints where it appeared and every breakpoint beyond give NaN, and
    no interval there is refined further.
    """
    a = float(a)
    bs = np.asarray(b, dtype=float)
    if not (math.isfinite(a) and np.isfinite(bs).all()):
        raise QuadratureError("quadrature limit is not finite")
    # breakpoints in ascending order; a is breakpoint ia
    pts, where = np.unique(np.append(bs, a), return_inverse=True)
    where = where.reshape(-1)
    ia = where[-1]
    if len(pts) == 1:
        return np.zeros(bs.shape) if bs.ndim else 0.0
    gaps = len(pts) - 1
    dist = np.abs(pts - a)
    dist[ia] = 1.0
    limit = _MAX_INTERVALS + gaps - 1
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
    out = integral[where[:-1]].reshape(bs.shape)
    return out if bs.ndim else float(out)


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
        for col in range(n):
            p = col + int(np.argmax(np.abs(a[col:, col])))
            if abs(a[p, col]) < 1e-14 * scale:
                raise SingularMatrixError(f"pivot {abs(a[p, col]):.3g} below threshold in column {col}")
            if p != col:
                a[[col, p]] = a[[p, col]]
                piv[[col, p]] = piv[[p, col]]
            a[col + 1 :, col] /= a[col, col]
            a[col + 1 :, col + 1 :] -= np.outer(a[col + 1 :, col], a[col, col + 1 :])
        self.lu = a
        self.piv = piv

    def solve(self, b):
        b = np.asarray(b, dtype=float)
        x = b[self.piv].astype(float)
        n = self.n
        for i in range(1, n):
            x[i] -= self.lu[i, :i] @ x[:i]
        for i in range(n - 1, -1, -1):
            x[i] = (x[i] - self.lu[i, i + 1 :] @ x[i + 1 :]) / self.lu[i, i]
        return x
