"""Independent oracles for the benchmark's jobs.

Each oracle recomputes a job's output from the mathematics, without calling
riccatikit, and returns the job's relative error.  A job passes when that
error is at most ``BOUNDS[kind]``; ``digits`` turns an error into the
``accuracy_digits`` figure.

- soliton / kp: u = -2 (log tau)'' with tau the Wronskian of
  f_j = cosh or sinh(k_j x + beta_j) (cosh for the smallest k, alternating
  upward), evaluated in mpmath.  tau' and tau'' come from the row-replacement
  rule for Wronskians, so the oracle takes no finite differences either.
- finite-gap: gamma = lambda3 + (lambda2 - lambda3) sn^2(sqrt(lambda1 -
  lambda3) (x - x0) | m) with m = (lambda2 - lambda3)/(lambda1 - lambda3),
  from scipy.special; the period is 2 K(m) / sqrt(lambda1 - lambda3).
- floquet: the discriminant is +-2 at each of the three band edges.
- schwarz: the classical Schwarzian {phi, x} = phi'''/phi' - 3/2 (phi''/phi')^2
  built by sympy and evaluated in mpmath, times -1/2: riccatikit follows the
  paper's normalisation (3/4)(phi''/phi')^2 - (1/2) phi'''/phi'.
- hermite: the coefficients of sympy.hermite(n, x).
- checks: no numeric oracle; the program's exit status (its named checks)
  decides.
"""

from __future__ import annotations

import math
import re
import sys

import mpmath as mp
import numpy as np
import sympy
from scipy import special

BOUNDS = {"soliton": 1e-6, "kp": 1e-6, "finite-gap": 1e-7, "floquet": 1e-6, "schwarz": 1e-8, "hermite": 0.0}

# float64 resolves about 16 significant digits; an exact match reads as 16.
MAX_DIGITS = 16.0


def digits(err):
    return min(MAX_DIGITS, -math.log10(max(err, 10.0**-MAX_DIGITS)))


# ---------------------------------------------------------------------------
# soliton: tau-function in mpmath


def _wronskian_rows(k, beta, x, orders):
    """Rows d^i/dx^i of f_j = cosh/sinh(k_j x + beta_j) for i in ``orders``."""
    n = len(k)
    cols = []
    for j in range(n):
        th = k[j] * x + beta[j]
        c, s = mp.cosh(th), mp.sinh(th)
        even = (n - 1 - j) % 2 == 0
        cols.append((c, s) if even else (s, c))
    return [[k[j] ** i * cols[j][i % 2] for j in range(n)] for i in orders]


def _det(rows):
    """Determinant by partial-pivot elimination; 0 for a singular matrix.

    (mpmath's own ``det`` raises on exactly singular matrices, which occur
    here: tau' vanishes at the symmetric point of symmetric wells.)
    """
    a = [list(r) for r in rows]
    n = len(a)
    det = mp.mpf(1)
    for c in range(n):
        p = max(range(c, n), key=lambda r: abs(a[r][c]))
        if a[p][c] == 0:
            return mp.mpf(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            for q in range(c + 1, n):
                a[r][q] -= f * a[c][q]
    return det


def tau_potential(k, beta, xs, dps=40):
    """u(x) = -2 (log tau)'' at each x, with tau = Wr(f_1, ..., f_N).

    With rows R_i = f^(i), differentiating any row but the last duplicates
    its neighbour, so tau' = det(R_0..R_{N-2}, R_N) and
    tau'' = det(R_0..R_{N-2}, R_{N+1}) + det(R_0..R_{N-3}, R_{N-1}, R_N).
    """
    n = len(k)
    out = []
    with mp.workdps(dps):
        kk = [mp.mpf(v) for v in k]
        bb = [mp.mpf(v) for v in beta]
        for xv in xs:
            x = mp.mpf(float(xv))
            rows = _wronskian_rows(kk, bb, x, range(n + 2))
            base = rows[: n - 1]
            tau = _det(base + [rows[n - 1]])
            d1 = _det(base + [rows[n]])
            d2 = _det(base + [rows[n + 1]])
            if n >= 2:
                d2 += _det(rows[: n - 2] + [rows[n - 1], rows[n]])
            out.append(float(-2 * (d2 / tau - (d1 / tau) ** 2)))
    return np.array(out)


def soliton_error(job, xs, u):
    """Largest |u - u_tau| on the sampled points, relative to max |u_tau|."""
    beta = job["beta"]
    if job["kind"] == "kp":
        # the slice is the static potential with phases beta_j + k_j^2 y + k_j^3 t
        k = np.array(job["k"])
        beta = list(np.array(beta) + k**2 * job["y"] + k**3 * job["t"])
    ref = tau_potential(job["k"], beta, xs)
    return float(np.max(np.abs(np.asarray(u) - ref)) / max(1.0, np.max(np.abs(ref))))


# ---------------------------------------------------------------------------
# finite-gap: Jacobi elliptic functions


def elliptic_gamma(lams, gamma0, sign, xs):
    """gamma(x) and the period from sn^2, matching gamma(0) = gamma0."""
    l1, l2, l3 = lams
    m = (l2 - l3) / (l1 - l3)
    w = math.sqrt(l1 - l3)
    s = (gamma0 - l3) / (l2 - l3)
    z0 = special.ellipkinc(math.asin(math.sqrt(s)), m)
    if sign == "-":
        z0 = -z0  # gamma' = 2 w (l2 - l3) sn cn dn changes sign with the argument
    sn, _, _, _ = special.ellipj(w * np.asarray(xs, dtype=float) + z0, m)
    return l3 + (l2 - l3) * sn**2, 2.0 * special.ellipk(m) / w


def finitegap_error(job, xs, gamma):
    _, l2, l3 = job["lams"]
    ref, _ = elliptic_gamma(job["lams"], job["gamma0"], job["sign"], xs)
    return float(np.max(np.abs(np.asarray(gamma) - ref)) / (l2 - l3))


def floquet_error(job, discriminants):
    return float(max(abs(abs(d) - 2.0) for d in discriminants) / 2.0)


# ---------------------------------------------------------------------------
# symbolic: sympy


def _sympy_expr(text):
    return sympy.sympify(text.replace("^", "**"), locals={"x": sympy.Symbol("x")})


def schwarz_error(job, xs, values, dps=30):
    """Largest |S - S_ref| / max(1, |S_ref|) over the grid, S_ref = -{phi, x}/2."""
    x = sympy.Symbol("x")
    phi = _sympy_expr(job["phi"])
    d1, d2, d3 = (sympy.diff(phi, x, i) for i in (1, 2, 3))
    classical = d3 / d1 - sympy.Rational(3, 2) * (d2 / d1) ** 2
    fn = sympy.lambdify(x, -classical / 2, "mpmath")
    worst = 0.0
    with mp.workdps(dps):
        for xv, v in zip(xs, values):
            if not math.isfinite(v):
                return math.inf
            ref = float(fn(mp.mpf(float(xv))))
            worst = max(worst, abs(v - ref) / max(1.0, abs(ref)))
    return worst


_TERM = re.compile(r"([+-]?)(\d*)(x(?:\^(\d+))?)?")


def parse_poly_string(text):
    """'8x^3-12x' -> {3: 8, 1: -12}, the CLI's compact polynomial format."""
    out = {}
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"cannot parse polynomial {text!r} at {pos}")
        sign, mag, var, power = m.groups()
        if not mag and not var:
            raise ValueError(f"cannot parse polynomial {text!r} at {pos}")
        value = int(mag) if mag else 1
        degree = 0 if not var else int(power) if power else 1
        out[degree] = -value if sign == "-" else value
        pos = m.end()
    return out


def hermite_error(job, polynomial):
    """0 when the reported coefficients equal sympy's H_n exactly, else 1."""
    x = sympy.Symbol("x")
    ref = sympy.Poly(sympy.hermite(job["n"], x), x)
    want = {int(deg[0]): int(c) for deg, c in ref.terms()}
    return 0.0 if parse_poly_string(polynomial) == want else 1.0


# ---------------------------------------------------------------------------


def job_error(job, output):
    """Relative error of one job's output, or None for exit-status-only jobs."""
    kind = job["kind"]
    if kind in ("soliton", "kp"):
        return soliton_error(job, output["x"], output["u"])
    if kind == "finite-gap":
        return finitegap_error(job, output["x"], output["gamma"])
    if kind == "floquet":
        return floquet_error(job, output["discriminants"])
    if kind == "schwarz":
        return schwarz_error(job, output["x"], output["schwarzian"])
    if kind == "hermite":
        return hermite_error(job, output["polynomial"])
    return None


def passes(job, err):
    return err is None or err <= BOUNDS[job["kind"]]


def self_check(src_dir):
    """Compare the oracles with riccatikit's closed forms before they judge.

    The tau-function must reproduce ``closed_form_potential`` for N = 1 and
    N = 2, the elliptic period must match ``finitegap.period`` to 1e-10, and
    the elliptic gamma(0) must be gamma0.  Returns a list of failure messages.
    """
    if str(src_dir) not in sys.path:
        sys.path.insert(0, str(src_dir))
    from riccatikit import finitegap as fg
    from riccatikit import soliton as so

    problems = []
    xs = np.linspace(-10.0, 10.0, 41)
    for k, beta in (((1.3,), (0.4,)), ((2.1, 0.7), (0.3, -0.8)), ((1.0,), (0.0,)), ((2.0, 1.0), (0.0, 0.0))):
        cf = so.closed_form_potential(so.SolitonSpec(k, beta))
        ref = np.array([cf.evaluate(x=float(v)) for v in xs])
        gap = float(np.max(np.abs(tau_potential(k, beta, xs) - ref)))
        if not gap <= 1e-12:
            problems.append(f"tau oracle vs closed_form_potential k={k} beta={beta}: {gap:.3g} > 1e-12")
    for lams, gamma0, sign in (((2.0, 1.0, 0.0), 0.5, "+"), ((0.7, 0.1, -0.5), -0.2, "-")):
        gam, t_ell = elliptic_gamma(lams, gamma0, sign, [0.0])
        t_prog = fg.period(fg.GapSpec(*lams, gamma0))
        if not abs(t_ell - t_prog) <= 1e-10:
            problems.append(f"elliptic period {t_ell!r} vs finitegap.period {t_prog!r} for {lams}")
        if not abs(gam[0] - gamma0) <= 1e-12:
            problems.append(f"elliptic gamma(0) {gam[0]!r} != gamma0 {gamma0!r} for {lams}")
    return problems
