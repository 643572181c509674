"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see every line.  Criterion
10 is known-red: the y-extended two-soliton phases cannot satisfy the full
KP equation (see the decisions ledger); the criterion is asserted as stated
rather than weakened.
"""

from fractions import Fraction

import numpy as np
import pytest

from riccatikit import expr as ex
from riccatikit import finitegap as fg
from riccatikit import numeric
from riccatikit import riccati as rc
from riccatikit import schwarzian as sw
from riccatikit import soliton as so
from riccatikit.diffpoly import DiffPolynomial
from riccatikit.series import modschwarz_series, riccati_series, zeta_chain


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_one_soliton_equivalence():
    spec = so.SolitonSpec((1.0,), (0.0,))
    grid = np.linspace(-10.0, 10.0, 2001)
    tp = so.potential(spec, grid)
    cf = so.closed_form_potential(spec)
    gap = max(abs(tp.u[i] - cf.evaluate(x=float(v))) for i, v in enumerate(grid))
    u0_err = abs(tp.u_at(0.0) + 2.0)
    ok = gap <= 1e-10 and u0_err <= 1e-12
    report(1, ok, f"N=1 pipeline vs closed form: max diff {gap:.3g} (tol 1e-10), |u(0)+2| = {u0_err:.3g} (tol 1e-12)")


def test_criterion_02_two_soliton_equivalence():
    spec = so.SolitonSpec((2.0, 1.0), (0.0, 0.0))
    grid = np.linspace(-10.0, 10.0, 2001)
    tp = so.potential(spec, grid)
    cf = so.closed_form_potential(spec)
    gap = max(abs(tp.u[i] - cf.evaluate(x=float(v))) for i, v in enumerate(grid))
    # a_1 tends to -(k1+k2) at +infinity and +(k1+k2) at -infinity (the
    # stated criterion carries the sign slip inherited from the source text;
    # see the decisions ledger)
    a_plus = so.solve_coefficients(spec, 30.0, order=0)[0][0]
    a_minus = so.solve_coefficients(spec, -30.0, order=0)[0][0]
    asym = max(abs(a_plus + 3.0), abs(a_minus - 3.0))
    ok = gap <= 1e-10 and asym <= 1e-8
    report(2, ok, f"N=2 pipeline vs closed form: max diff {gap:.3g} (tol 1e-10), asymptote error {asym:.3g} (tol 1e-8)")


def test_criterion_03_transparency():
    worst = 0.0
    for k_list in ((1.0,), (2.0, 1.0), (3.0, 2.0, 1.0)):
        spec = so.SolitonSpec(k_list, tuple(0.0 for _ in k_list))
        for k in (0.5, 1.7, 3.0):
            for x in (-4.0, -1.0, 0.3, 2.0, 5.0):
                worst = max(worst, so.schrodinger_residual(spec, k, x))
    ok = worst <= 1e-8
    report(3, ok, f"Schrodinger residual of psi1 over N in 1..3, k in (0.5,1.7,3.0): {worst:.3g} (tol 1e-8)")


def test_criterion_04_wronskian():
    spec = so.SolitonSpec((2.0, 1.0), (0.0, 0.0))
    wp = so.wronskian_poly(spec)
    drift = 0.0
    match = 0.0
    for k in (0.4, 0.9, 1.6, 2.5, 3.3):
        vals = [so.numeric_wronskian(spec, k, x) for x in (-3.0, -0.5, 0.0, 1.2, 4.0)]
        drift = max(drift, (max(vals) - min(vals)) / max(1.0, abs(vals[0])))
        match = max(match, abs(vals[2] - np.polyval(wp, k)) / abs(np.polyval(wp, k)))
    ok = drift <= 1e-8 and match <= 1e-8
    report(4, ok, f"Wronskian: x-drift {drift:.3g}, polynomial mismatch {match:.3g} (tol 1e-8)")


def test_criterion_05_series_engine():
    f, _ = riccati_series(2, 0)
    h = modschwarz_series(1, 1)
    exact_f0 = f.coeff(0) == DiffPolynomial.symbol(1) / 2
    exact_h1 = h.coeff(-1) == DiffPolynomial.symbol(1) / 2
    u = ex.parse_expression("-2*(3/2)^2/cosh(3/2*x - 3/8)^2")  # k1 = 3/2, x0 = 1/4
    z1 = zeta_chain(u, 1)[0]
    rel = ex.sub(ex.intpow(z1, 2), ex.diff(z1, "x"))
    resid = max(abs(rel.evaluate(x=p) - 2.25) for p in np.linspace(-3, 3, 25))
    ok = exact_f0 and exact_h1 and resid <= 1e-12
    report(5, ok, f"series engine: f0==u1/2 {exact_f0}, h1==u/2 {exact_h1}, zeta identity residual {resid:.3g} (tol 1e-12)")


def test_criterion_06_schwarzian_invariance():
    rng = np.random.default_rng(1234)
    phi = ex.add(ex.Var("x"), ex.mul(ex.Rational(Fraction(1, 5)), ex.exp(ex.Var("x"))))
    s0 = sw.schwarz(phi)
    worst = 0.0
    count = 0
    while count < 20:
        alpha, beta, gamma, delta = (float(v) for v in rng.uniform(-2, 2, 4))
        if abs(alpha * delta - beta * gamma) < 0.2:
            continue
        count += 1
        m = rc.MobiusMap(alpha, beta, gamma, delta)
        gap = ex.sub(sw.schwarz(m.apply(phi)), s0)
        den = ex.add(ex.mul(m.gamma, phi), m.delta)
        pts = rc.sample_points([gap, ex.recip(den)], interval=(-2.0, 2.0))
        worst = max(worst, max(abs(gap.evaluate(x=p)) for p in pts))
    ok = worst <= 1e-9
    report(6, ok, f"Schwarzian invariance over 20 random maps at 32 points: {worst:.3g} (tol 1e-9)")


def test_criterion_07_hermite():
    exact = all(rc.hermite_coefficients(n) == rc.rodrigues_coefficients(n) for n in range(11))
    worst = 0.0
    for n in range(7):
        _, y = rc.hermite_polynomial(n)
        rhs = ex.parse_expression(f"x^2 - {2 * n + 1}")
        res = ex.add(ex.diff(y, "x"), ex.intpow(y, 2), ex.neg(rhs))
        worst = max(worst, max(abs(res.evaluate(x=float(p))) for p in np.linspace(4.0, 9.0, 100)))
    y_hat, alpha_hat = rc.hermite_ladder(ex.Var("x"), 1)
    ladder = y_hat == ex.parse_expression("x + 1/x") and alpha_hat == 3
    ok = exact and worst <= 1e-10 and ladder
    report(7, ok, f"Hermite: recurrence==derivative-route {exact}, witness residual {worst:.3g} (tol 1e-10), ladder exact {ladder}")


def test_criterion_08_pole_series():
    a = rc.pole_series(3, 0, 5)
    exact = a == [0, 1, 0, 0, 0, 0]

    b = rc.pole_series(1, 0, 5)

    def series(x):
        return 1.0 / x + sum(float(c) * x**j for j, c in enumerate(b))

    traj = numeric.integrate_ivp(
        lambda x, y: np.array([x * x + 1.0 - y[0] ** 2]), 0.2, [series(0.2)], 0.4, tol=1e-13
    )
    gap = abs(traj.ys[-1][0] - series(0.4))
    ok = exact and gap <= 1e-5
    report(8, ok, f"pole series: alpha=3 coefficients exact {exact}, IVP-vs-series gap {gap:.3g} (truncation bound 1e-5)")


def test_criterion_09_finite_gap():
    spec = fg.GapSpec(2.0, 1.0, 0.0, 0.5)
    t_quad = fg.period(spec)
    traj = fg.integrate_gamma(spec, (0.0, 3.2 * t_quad), step=0.005)
    maxima = traj.turning_points("max")
    period_gap = abs((maxima[1] - maxima[0]) - t_quad) / t_quad

    per = 0.0
    for x in np.linspace(0.0, t_quad, 41):
        per = max(per, abs(2 * traj(float(x) + t_quad)[0] - 2 * traj(float(x))[0]))

    dc = np.polyder(fg.c_poly(spec))
    coeffs = []
    for idx in range(0, len(traj.xs), 40):
        g, dg = traj.gammas[idx, 0], traj.dgammas[idx, 0]
        ddg = 0.5 * np.polyval(dc, g)  # the trajectory's gamma'' = C'(gamma)/2
        u = 2 * g - spec.trace
        p = np.polymul([4.0, 4.0 * u], [1.0, -2 * g, g * g])
        p = np.polyadd(p, [2 * ddg, dg * dg - 2 * ddg * g])
        coeffs.append(p)
    coeffs = np.array(coeffs)
    coeff_drift = float(np.max(np.ptp(coeffs, axis=0)))
    roots = sorted(np.roots(coeffs[0]).real)
    root_gap = max(abs(r - e) for r, e in zip(roots, [0.0, 1.0, 2.0]))

    dub = fg.dubrovin_checks(traj, fg.c_poly(spec))
    ok = period_gap <= 1e-6 and per <= 1e-6 and coeff_drift <= 1e-6 and root_gap <= 1e-6 and dub <= 1e-6
    report(
        9,
        ok,
        "finite gap: period rel diff %.3g, periodicity %.3g, coefficient drift %.3g, "
        "root error %.3g, root-identity residual %.3g (tol 1e-6)"
        % (period_gap, per, coeff_drift, root_gap, dub),
    )


def test_criterion_10_kp():
    # Known-red: with phases k x + k^2 y + k^3 t the x-t part of the KP
    # operator cancels exactly but the transverse term 3 u_yy survives, so
    # the full residual is O(1).  Asserted as specified; analysis in the
    # decisions ledger.
    spec = so.SolitonSpec((2.0, 1.0), (0.0, 0.0))
    rep = so.pde_residual(spec, which="kp", box=3.0, n=5)
    from riccatikit.soliton import _fd_kp

    r1 = abs(_fd_kp(spec, 0.7, 0.4, 0.3, 0.04))
    r2 = abs(_fd_kp(spec, 0.7, 0.4, 0.3, 0.02))
    ratio = r1 / r2 if r2 else float("inf")
    ok = rep.max_abs <= 1e-8 and abs(ratio - 4.0) <= 0.5
    report(10, ok, f"KP: exact-partial residual {rep.max_abs:.3g} (tol 1e-8), FD halving ratio {ratio:.3g} (target 4 +- 0.5)")


def test_criterion_11_kovalevskii():
    worst = 0.0
    for n, y0, span in (
        (3, (1.0, 2.0, 3.0), (0.0, 0.25)),
        (4, (1.0, 2.0, 3.0, 4.0), (0.0, 0.12)),
        (5, (1.0, 2.0, 3.0, 4.0, 5.0), (0.0, 0.08)),
    ):
        rep = rc.kovalevskii_check(n, y0, span)
        worst = max(worst, rep.max_drift)
    ok = worst <= 1e-7
    report(11, ok, f"Kovalevskii integrals drift over finite-existence spans: {worst:.3g} (tol 1e-7)")


def test_criterion_12_cross_ratio_conservation():
    eq = rc.RiccatiEq(1, ex.parse_expression("sin(x)/2"), ex.parse_expression("-1 - x/10"))

    def rhs(x, y):
        a = eq.a.evaluate(x=x)
        b = eq.b.evaluate(x=x)
        c = eq.c.evaluate(x=x)
        return (a * y[0] ** 2 + b * y[0] + c,)

    trajs = [
        numeric.integrate_ivp(lambda x, y: rhs(x, y), 0.0, [s], 1.2, tol=1e-12)
        for s in (0.0, 0.25, 0.5, 0.75)
    ]
    xs = np.linspace(0.0, 1.2, 80)
    vals = np.array([[t(float(p))[0] for t in trajs] for p in xs])
    cr = (vals[:, 0] - vals[:, 1]) * (vals[:, 3] - vals[:, 2]) / (
        (vals[:, 0] - vals[:, 2]) * (vals[:, 3] - vals[:, 1])
    )
    drift = float(np.max(np.abs(cr - cr[0])))
    ok = drift <= 1e-8
    report(12, ok, f"cross-ratio of four integrated solutions: drift {drift:.3g} (tol 1e-8)")


def test_criterion_13_kdv_density():
    spec = so.SolitonSpec((1.0,), (0.0,))
    h1 = modschwarz_series(1, 1).coeff(-1)
    u_xt = so.kdv_closed_form(spec)
    vals = []
    for t0 in (-0.8, 0.0, 0.5, 1.1):
        u_slice = lambda xv: u_xt.evaluate(x=xv, t=t0)
        h1_expr = h1.to_expression({1: u_xt})  # = u/2 as a differential polynomial
        lhs = numeric.quadrature(lambda xv: h1_expr.evaluate(x=xv, t=t0), -40, 40, tol=1e-11)
        rhs = 0.5 * numeric.quadrature(u_slice, -40, 40, tol=1e-11)
        assert lhs == pytest.approx(rhs, abs=1e-10)
        vals.append(lhs)
    drift = max(vals) - min(vals)
    ok = drift <= 1e-8
    report(13, ok, f"KdV density: time drift of the h1 integral {drift:.3g} (tol 1e-8), value {vals[0]:.6f}")
