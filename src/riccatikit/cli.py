"""Command-line front door.

Subcommands run the library pipelines and emit CSV tables plus JSON reports
of named checks.  Exit status: 0 on success, 2 on configuration/validation
errors, 3 when a numeric check fails or a computation breaks down.

Grid syntax is ``min:max:step``; lists are comma-separated; all flags are
long-form.  ``--config FILE`` supplies the same values as JSON.  CSV output
uses %.17g formatting with LF line endings, so deterministic runs are
byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import expr as ex
from . import finitegap as fg
from . import numeric
from . import riccati as rc
from . import schwarzian as sw
from . import series as se
from . import soliton as so
from .diffpoly import DiffPolynomial, format_diffpoly

__all__ = ["main"]


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# emission


def emit_csv(path, columns):
    """columns: list of (name, values); uniform lengths required."""
    names = [c[0] for c in columns]
    lengths = {len(c[1]) for c in columns}
    if len(lengths) > 1:
        raise ConfigError("CSV columns must have uniform length")
    n = lengths.pop() if lengths else 0
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        for i in range(n):
            fh.write(",".join("%.17g" % float(c[1][i]) for c in columns) + "\n")


def emit_json(path, obj):
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def check(name, value, tol, larger_is_fail=True):
    value = float(value)
    ok = value <= tol if larger_is_fail else value >= tol
    return {"name": name, "value": value, "tol": tol, "pass": bool(ok)}


def _finish(out_dir, command, report, tables=None):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if tables:
        csv_path = out / f"{command}.csv"
        emit_csv(csv_path, tables)
        written.append(str(csv_path))
    report_path = out / f"{command}_report.json"
    emit_json(report_path, report)
    written.append(str(report_path))
    failures = [c for c in report.get("checks", []) if not c["pass"]]
    for c in report.get("checks", []):
        status = "PASS" if c["pass"] else "FAIL"
        print(f"{status} {c['name']}: value={c['value']:.3g} tol={c['tol']:.3g}")
    for w in written:
        print(f"wrote {w}")
    return 3 if failures else 0


# ---------------------------------------------------------------------------
# parsing helpers


def parse_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be min:max:step, got {text!r}")
    lo, hi, step = (float(p) for p in parts)
    if not lo < hi:
        raise ConfigError("grid must have min < max")
    if step <= 0:
        raise ConfigError("grid step must be positive")
    n = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return lo + step * np.arange(n)

def parse_list(text):
    return [float(v) for v in str(text).split(",") if v != ""]


def parse_expr_arg(text):
    try:
        return ex.parse_expression(str(text))
    except ValueError as err:
        raise ConfigError(f"bad expression {text!r}: {err}") from err


def format_poly_string(coeffs):
    """Compact polynomial rendering, e.g. [-2, 0, 4] -> '4x^2-2'."""
    terms = []
    for p in range(len(coeffs) - 1, -1, -1):
        c = coeffs[p]
        if c == 0:
            continue
        mag = abs(c)
        if p == 0:
            body = str(mag)
        else:
            xs = "x" if p == 1 else f"x^{p}"
            body = xs if mag == 1 else f"{mag}{xs}"
        sign = "-" if c < 0 else ("+" if terms else "")
        terms.append(sign + body)
    return "".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# subcommands


def cmd_transform(args):
    eq = rc.RiccatiEq(parse_expr_arg(args.a), parse_expr_arg(args.b), parse_expr_arg(args.c))
    m = rc.MobiusMap(
        parse_expr_arg(args.alpha),
        parse_expr_arg(args.beta),
        parse_expr_arg(args.gamma),
        parse_expr_arg(args.delta),
    )
    out = rc.mobius_transform(eq, m)
    inverse = rc.MobiusMap(m.delta, ex.neg(m.beta), ex.neg(m.gamma), m.alpha)
    back = rc.mobius_transform(out, inverse)
    pts = rc.sample_points([eq.a, eq.b, eq.c, back.a, back.b, back.c])
    roundtrip = np.max([np.abs(getattr(eq, n).evaluate(x=pts) - getattr(back, n).evaluate(x=pts)) for n in "abc"])
    report = {
        "command": "transform",
        "input": {"a": str(eq.a), "b": str(eq.b), "c": str(eq.c)},
        "map": {k: str(getattr(m, k)) for k in ("alpha", "beta", "gamma", "delta")},
        "output": {"a": str(out.a), "b": str(out.b), "c": str(out.c)},
        "checks": [check("inverse_map_roundtrip", roundtrip, 1e-9)],
    }
    return _finish(args.out, "transform", report)


def cmd_solve_re(args):
    eq = rc.RiccatiEq(parse_expr_arg(args.a), parse_expr_arg(args.b), parse_expr_arg(args.c))
    phi1 = parse_expr_arg(args.phi1) if args.phi1 is not None else None
    family = rc.general_from_particular(eq, phi1)
    constants = parse_list(args.constants)
    grid = parse_grid(args.grid)
    columns = [("x", grid)]
    checks = []
    for c0 in constants:
        sol = family(Fraction(c0) if c0 == int(c0) else c0)
        columns.append((f"phi_C{c0:g}", sol.evaluate(x=grid)))  # NaN at singular points
        checks.append(check(f"solution_residual_C{c0:g}", rc.riccati_residual(eq, sol), 1e-9))
    report = {"command": "solve-re", "constants": constants, "checks": checks}
    return _finish(args.out, "solve_re", report, columns)


def cmd_hermite(args):
    n = args.n
    if n < 0:
        raise ConfigError("--n must be non-negative")
    coeffs = rc.hermite_coefficients(n)
    rod = rc.rodrigues_coefficients(n)
    omega, y = rc.hermite_polynomial(n)
    rhs = ex.parse_expression(f"x^2 - {2 * n + 1}")
    witness = ex.add(ex.diff(y, "x"), ex.intpow(y, 2), ex.neg(rhs))
    pts = [p for p in np.linspace(4.0, 9.0, 100)]
    residual = np.max([abs(witness.evaluate(x=p)) for p in pts])  # a NaN at any point fails
    report = {
        "command": "hermite",
        "n": n,
        "polynomial": format_poly_string([int(c) for c in coeffs]),
        "riccati_witness": str(y),
        "equation_rhs": f"x^2{-(2 * n + 1):+d}",
        "checks": [
            check("recurrence_matches_derivative_route", 0.0 if coeffs == rod else 1.0, 0.5),
            check("riccati_witness_residual", residual, 1e-10),
        ],
    }
    return _finish(args.out, "hermite", report)


def cmd_pole_series(args):
    depth = args.depth
    alpha = _maybe_rational(args.alpha)
    eps = _maybe_rational(args.eps)
    coeffs = rc.pole_series(alpha, eps, depth)

    # IVP cross-check: start on the series a bit off the pole and march outward
    def series_val(xv):
        s = xv + float(eps)
        return 1.0 / s + sum(float(c) * s**j for j, c in enumerate(coeffs))

    x_start = -float(eps) + 0.2
    x_end = -float(eps) + 0.4
    traj = numeric.integrate_ivp(
        lambda xv, yv: np.array([xv**2 + float(alpha) - yv[0] ** 2]),
        x_start, np.array([series_val(x_start)]), x_end, tol=1e-12,
    )
    ivp_gap = abs(traj.ys[-1][0] - series_val(x_end))
    report = {
        "command": "pole-series",
        "alpha": float(alpha),
        "eps": float(eps),
        "coefficients": [float(c) for c in coeffs],
        "exact": [str(c) for c in coeffs],
        "checks": [
            check("zeroth_coefficient_vanishes", abs(float(coeffs[0])), 1e-15),
            check("fourth_order_line", abs(4 * float(coeffs[2]) + 2 * float(eps)) if depth >= 2 else 0.0, 1e-12),
            check("series_vs_ivp_near_pole", ivp_gap, 5e-4),
        ],
    }
    return _finish(args.out, "pole_series", report)


def _maybe_rational(text):
    s = str(text)
    try:
        return Fraction(s)
    except ValueError:
        return float(s)


def cmd_schwarz(args):
    phi = parse_expr_arg(args.phi)
    s_expr = sw.schwarz(phi)
    grid = parse_grid(args.grid)
    vals = s_expr.evaluate(x=grid)  # NaN at singular points
    m = rc.MobiusMap(1.25, -0.5, 0.75, 2.0)
    mapped = sw.schwarz(m.apply(phi))
    gap = ex.sub(mapped, s_expr)
    pts = rc.sample_points([phi, s_expr, mapped], interval=(float(grid[0]), float(grid[-1])))
    invariance = np.max(np.abs(gap.evaluate(x=pts)))
    report = {
        "command": "schwarz",
        "phi": str(phi),
        "checks": [check("mobius_invariance", invariance, 1e-9)],
    }
    return _finish(args.out, "schwarz", report, [("x", grid), ("schwarzian", vals)])


def cmd_series(args):
    what = args.what
    depth = args.depth
    m = args.m
    report = {"command": "series", "what": what, "m": m, "depth": depth}
    single = m == 1
    if what in ("f", "g"):
        f, g = se.riccati_series(m, depth)
        chosen = f if what == "f" else g
        names = [f"{what}_{j}" for j in range(depth + 1)]
        report["coefficients"] = {
            nm: format_diffpoly(chosen.coeff(-j), single=single) for j, nm in enumerate(names)
        }
        residual = sum(_unmatched_orders(se.riccati_series_residual(s, m), 2) for s in (f, g))
        report["checks"] = [check("triangular_system_residual_orders", residual, 0.5)]
    elif what == "h":
        h = se.modschwarz_series(m, depth)
        report["coefficients"] = {
            f"h_{j}": format_diffpoly(h.coeff(-j), single=single) for j in range(0, depth + 1)
        }
        residual = _unmatched_orders(se.modschwarz_residual(h, m), m)
        report["checks"] = [check("order_matching_residual", residual, 0.5)]
    elif what == "zeta":
        u = parse_expr_arg(args.u)
        chain = se.zeta_chain(u, depth if depth >= 1 else 1)
        report["coefficients"] = {f"zeta_{j + 1}": str(z) for j, z in enumerate(chain)}
        z1 = chain[0]
        rel = ex.sub(ex.intpow(z1, 2), ex.diff(z1, "x"))
        vals = rel.evaluate(x=rc.sample_points([rel]))
        drift = np.max(vals) - np.min(vals)
        report["checks"] = [check("zeta1_truncation_constant_drift", drift, 1e-9)]
    else:
        raise ConfigError("series --what must be one of f, g, h, zeta")
    return _finish(args.out, "series", report)


def _unmatched_orders(residual, top):
    """How many exactly known orders floor+1..top of a series residual fail to cancel."""
    return sum(not residual.coeff(d).is_zero() for d in range(residual.floor + 1, top + 1))


def cmd_soliton(args):
    spec = so.SolitonSpec(tuple(parse_list(args.k)), tuple(parse_list(args.beta)))
    grid = parse_grid(args.grid)
    tp = so.potential(spec, grid)
    checks = []
    ksum = sum(spec.k)
    xe = 30.0 / spec.k[-1]
    a_far, da_far = so.solve_coefficients(spec, np.array([xe, -xe]), order=1)
    checks.append(check("a1_limit_plus_infinity", abs(a_far[0, 0] + ksum), 1e-8))
    checks.append(check("a1_limit_minus_infinity", abs(a_far[1, 0] - ksum), 1e-8))
    checks.append(check("decay_at_far_field", np.max(np.abs(2.0 * da_far[:, 0])), 1e-10))
    kprobe = np.array([0.3, 1.31, 2.17, 3.7, spec.k[0] + 0.5])
    wk = so.wronskian_poly(spec)(kprobe)
    wgap = np.max(np.abs(so.numeric_wronskian(spec, kprobe, 0.37) - wk) / np.maximum(1.0, np.abs(wk)))
    checks.append(check("wronskian_polynomial_match", wgap, 1e-8))
    sr = np.max(so.schrodinger_residual(spec, np.array([[0.5], [1.7]]), np.array([-1.0, 0.8])))
    checks.append(check("transparency_residual", sr, 1e-8))
    if spec.n <= 2:
        gap = np.max(np.abs(tp.u - tp.closed_form.evaluate(x=grid)))
        checks.append(check("closed_form_match", gap, 1e-10))
    report = {
        "command": "soliton",
        "k": list(spec.k),
        "beta": list(spec.beta),
        "u_at_zero": tp.u_at(0.0),
        "checks": checks,
    }
    return _finish(args.out, "soliton", report, [("x", grid), ("u", tp.u)])


def cmd_kp(args):
    spec = so.SolitonSpec(tuple(parse_list(args.k)), tuple(parse_list(args.beta)))
    grid = parse_grid(args.grid)
    y0, t0 = args.y, args.t
    vals = so.kp_field(spec, grid, y0, t0)
    probe = np.array([-2.0, 0.4, 1.7])
    reduction = np.max(np.abs(so.kp_field(spec, probe, 0.0, 0.0) - so.TransparentPotential(spec).u_at(probe)))
    checks = [check("static_reduction_matches_potential", reduction, 1e-12)]
    if spec.n <= 2:
        # one closed form serves both: the x-t part at the probes, and the
        # full residual on pde_residual(spec, "kp", box=2.0, n=3)'s grid
        xt_part, uyy_term = so._kp_residual_terms(spec)
        worst = so._max_abs_on_grid(xt_part, x=(-2.0, 0.5, 1.5), y=(-1.0, 0.7), t=(-0.8, 0.3))
        checks.append(check("xt_flow_identity", worst, 1e-6))
        box = np.linspace(-2.0, 2.0, 3)
        transverse = so._max_abs_on_grid(ex.add(xt_part, uyy_term), x=box, y=box, t=box)
    else:
        transverse = abs(so._fd_kp(spec, 0.5, 0.4, 0.3, 0.05))
    report = {
        "command": "kp",
        "k": list(spec.k),
        "beta": list(spec.beta),
        "y": y0,
        "t": t0,
        "transverse_term_max": transverse,
        "checks": checks,
    }
    return _finish(args.out, "kp", report, [("x", grid), ("u", vals)])


def cmd_finite_gap(args):
    lams = parse_list(args.lambdas)
    if len(lams) != 3:
        raise ConfigError("--lambdas needs exactly three values")
    spec = fg.GapSpec(lams[0], lams[1], lams[2], args.gamma0, 1 if args.sign != "-" else -1)
    grid = parse_grid(args.grid)
    step = float(grid[1] - grid[0]) if len(grid) > 1 else 0.01
    fixed = step / 10 if args.deterministic else None
    traj = fg.integrate_gamma(spec, (float(grid[0]), float(grid[-1])), step=step, fixed_step=fixed)
    u = fg.trace_potential(traj, spec)
    t_quad = fg.period(spec)
    maxima = traj.turning_points("max")
    checks = []
    if len(maxima) >= 2:
        t_traj = maxima[1] - maxima[0]
        checks.append(check("period_quadrature_vs_trajectory", abs(t_quad - t_traj) / t_quad, 1e-6))
    else:
        t_traj = float("nan")
        checks.append(check("period_quadrature_vs_trajectory", float("inf"), 1e-6))
    c = fg.c_poly(spec)
    energy = np.max(np.abs(numeric.pow2(traj.dgammas[:, 0]) - c(traj.gammas[:, 0])))
    checks.append(check("energy_invariant_drift", energy, 1e-8))
    if traj.xs[-1] - traj.xs[0] > t_quad:
        xs_check = traj.xs[traj.xs <= traj.xs[-1] - t_quad][::5]
        per = np.max(np.abs(traj(xs_check + t_quad)[:, 0] - traj(xs_check)[:, 0]))
        checks.append(check("periodicity_of_u", 2 * per, 1e-6))
    dub = fg.dubrovin_checks(traj, c)
    checks.append(check("dubrovin_item1", dub.item1_max, 1e-6))
    checks.append(check("dubrovin_division_remainder", dub.remainder_max, 1e-6))
    report = {
        "command": "finite-gap",
        "lambdas": lams,
        "gamma0": args.gamma0,
        "period": t_quad,
        "trajectory_period": t_traj,
        "checks": checks,
    }
    return _finish(args.out, "finite_gap", report, [("x", traj.xs), ("gamma", traj.gammas[:, 0]), ("u", u)])


# ---------------------------------------------------------------------------
# verify suites


def _verify_symbolic(rng):
    checks = []
    f, g = se.riccati_series(2, 4)
    checks.append(check("series_f0_is_half_u1", 0.0 if f.coeff(0) == DiffPolynomial.symbol(1) / 2 else 1.0, 0.5))
    h = se.modschwarz_series(1, 3)
    checks.append(check("series_h1_is_half_u", 0.0 if h.coeff(-1) == DiffPolynomial.symbol(1) / 2 else 1.0, 0.5))
    unmatched = sum(_unmatched_orders(se.riccati_series_residual(s, 2), 2) for s in (f, g))
    checks.append(check("riccati_series_order_matching", unmatched, 0.5))
    checks.append(check("modschwarz_order_matching", _unmatched_orders(se.modschwarz_residual(h, 1), 1), 0.5))
    p = DiffPolynomial.symbol(1) * DiffPolynomial.symbol(1, 1) + DiffPolynomial.constant(Fraction(1, 3))
    q = DiffPolynomial.symbol(1, 2) - DiffPolynomial.symbol(1) * 2
    leibniz = (p * q).d_x() - (p.d_x() * q + p * q.d_x())
    checks.append(check("leibniz_rule_exact", 0.0 if leibniz.is_zero() else 1.0, 0.5))
    e = ex.parse_expression("exp(-x^2)*tanh(x) + x^3/(1+x^2)")
    d = ex.diff(e, "x")
    errs = []
    for p0 in rng.uniform(-2, 2, 8):
        h0 = 1e-6
        fd = (e.evaluate(x=p0 + h0) - e.evaluate(x=p0 - h0)) / (2 * h0)
        errs.append(abs(fd - d.evaluate(x=p0)) / max(1.0, abs(fd)))
    checks.append(check("derivative_vs_central_difference", np.max(errs), 1e-7))  # a NaN at any point fails
    return checks


def _verify_riccati(rng):
    checks = []
    eq = rc.RiccatiEq(1, 0, 0)
    phi = ex.neg(ex.recip(ex.add(ex.Var("x"), ex.Rational(7))))
    m = rc.MobiusMap(*[float(v) for v in rng.uniform(-2, 2, 4)])
    out = rc.mobius_transform(eq, m)
    mapped = m.apply(phi)
    checks.append(check("solution_transport", rc.riccati_residual(out, mapped), 1e-9))
    ycur, acur = ex.Var("x"), 1
    ycur, acur = rc.hermite_ladder(ycur, acur)
    target = ex.parse_expression("x + 1/x")
    checks.append(check("ladder_reaches_x_plus_1_over_x", 0.0 if ycur == target else 1.0, 0.5))
    ok = all(rc.hermite_coefficients(n) == rc.rodrigues_coefficients(n) for n in range(9))
    checks.append(check("hermite_recurrence_vs_derivative_route", 0.0 if ok else 1.0, 0.5))
    rep = rc.kovalevskii_check(3, (1.0, 2.0, 3.0), (0.0, 0.2))
    checks.append(check("kovalevskii_n3_integral_drift", rep.max_drift, 1e-7))
    return checks


def _verify_schwarzian(rng):
    checks = []
    x = ex.Var("x")
    phi = ex.add(x, ex.mul(ex.Rational(Fraction(1, 5)), ex.exp(x)))
    s0 = sw.schwarz(phi)
    gaps = [0.0]
    for _ in range(5):
        alpha, beta, gamma, delta = (float(v) for v in rng.uniform(-2, 2, 4))
        if abs(alpha * delta - beta * gamma) < 0.1:
            continue
        m = rc.MobiusMap(alpha, beta, gamma, delta)
        gap = ex.sub(sw.schwarz(m.apply(phi)), s0)
        den = ex.add(ex.mul(m.gamma, phi), m.delta)
        pts = rc.sample_points([gap, ex.recip(den)], interval=(-2, 2))
        gaps.append(np.max(np.abs(gap.evaluate(x=pts))))
    checks.append(check("schwarzian_mobius_invariance", np.max(gaps), 1e-9))
    c = ex.Rational(-1)
    phi3 = ex.mul(ex.sin(x), ex.cos(x))
    res = sw.third_order_residual(phi3, c)
    pts = np.linspace(0.1, 1.4, 9)
    checks.append(check("product_solution_residual", np.max(np.abs(res.evaluate(x=pts))), 1e-10))
    fi = sw.first_integral(phi3, c)
    checks.append(check("first_integral_is_one", np.max(np.abs(fi.evaluate(x=pts) - 1.0)), 1e-10))
    return checks


def _verify_soliton(rng):
    checks = []
    spec = so.SolitonSpec((1.0,), (0.0,))
    tp = so.TransparentPotential(spec)
    cf = so.closed_form_potential(spec)
    xs = np.linspace(-10, 10, 101)
    checks.append(check("one_soliton_closed_form", np.max(np.abs(tp.u_at(xs) - cf.evaluate(x=xs))), 1e-10))
    spec2 = so.SolitonSpec((2.0, 1.0), (0.0, 0.0))
    tp2 = so.TransparentPotential(spec2)
    cf2 = so.closed_form_potential(spec2)
    checks.append(check("two_soliton_closed_form", np.max(np.abs(tp2.u_at(xs) - cf2.evaluate(x=xs))), 1e-10))
    kv, xv = np.array([[0.5], [1.7], [3.0]]), np.array([-2.0, 0.3])
    sr = np.max([so.schrodinger_residual(s, kv, xv) for s in (spec, spec2)])
    checks.append(check("transparency_residual", sr, 1e-8))
    sign, _ = np.linalg.slogdet(so.system_matrix(spec2, np.linspace(-50, 50, 41))[0])
    ok = sign[0] != 0 and np.all(sign == sign[0])
    checks.append(check("interpolation_determinant_sign_constant", 0.0 if ok else 1.0, 0.5))
    z1 = se.zeta_chain(so.closed_form_potential(spec), 1)[0]
    gap = np.max(np.abs(z1.evaluate(x=xs) - so.solve_coefficients(spec, xs, order=0)[0][:, 0]))
    checks.append(check("zeta1_equals_a1", gap, 1e-10))
    vals = []
    u_t = so.kdv_closed_form(spec)
    for t0 in (-0.5, 0.0, 0.7):
        integral = numeric.quadrature(lambda xv: u_t.evaluate(x=xv, t=t0), -40, 40, tol=1e-10)
        vals.append(0.5 * integral)
    checks.append(check("kdv_density_time_drift", np.ptp(vals), 1e-8))  # NaN if any integral is NaN
    return checks


def _verify_finitegap(rng):
    checks = []
    spec = fg.GapSpec(2.0, 1.0, 0.0, 0.5)
    t_quad = fg.period(spec)
    traj = fg.integrate_gamma(spec, (0.0, 3.2 * t_quad), step=0.005)
    maxima = traj.turning_points("max")
    checks.append(check("period_match", abs((maxima[1] - maxima[0]) - t_quad) / t_quad, 1e-6))
    c = fg.c_poly(spec)
    dub = fg.dubrovin_checks(traj, c)
    checks.append(check("dubrovin_item1", dub.item1_max, 1e-6))
    checks.append(check("dubrovin_division_remainder", dub.remainder_max, 1e-6))
    disc = fg.floquet_discriminant(spec, spec.lam1, traj=traj)
    checks.append(check("floquet_band_edge", abs(abs(disc) - 2.0), 1e-4))
    return checks


_SUITES = {
    "symbolic": _verify_symbolic,
    "riccati": _verify_riccati,
    "schwarzian": _verify_schwarzian,
    "soliton": _verify_soliton,
    "finitegap": _verify_finitegap,
}


def cmd_verify(args):
    rng = np.random.default_rng(20240817)
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    if any(n not in _SUITES for n in names):
        raise ConfigError(f"unknown suite {args.suite!r}")
    checks = []
    for n in names:
        checks.extend(_SUITES[n](rng))
    report = {"command": "verify", "suites": names, "checks": checks}
    return _finish(args.out, "verify", report)


# ---------------------------------------------------------------------------
# argument wiring


def build_parser():
    parser = argparse.ArgumentParser(
        prog="riccati",
        description="Riccati-equation toolkit: transformations, solvable potentials, verification.",
    )
    parser.add_argument("--config", default=None, help="JSON file with flag values")
    sub = parser.add_subparsers(dest="command")
    subparsers = {}

    def new(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--deterministic", action="store_true", help="fixed-step integrators")
        p.set_defaults(handler=fn)
        subparsers[name] = p
        return p

    p = new("transform", cmd_transform, help="apply a fraction-linear map to a Riccati equation")
    for flag, default in (("--a", "0"), ("--b", "0"), ("--c", "0"),
                          ("--alpha", "1"), ("--beta", "0"), ("--gamma", "0"), ("--delta", "1")):
        p.add_argument(flag, default=default)

    p = new("solve-re", cmd_solve_re, help="general solution family from a particular solution")
    p.add_argument("--a", default="0")
    p.add_argument("--b", default="0")
    p.add_argument("--c", default="0")
    p.add_argument("--phi1", default=None)
    p.add_argument("--constants", default="1")
    p.add_argument("--grid", default="-2:2:0.1")

    p = new("hermite", cmd_hermite, help="Hermite polynomial and its Riccati witness")
    p.add_argument("--n", type=int, required=True)

    p = new("pole-series", cmd_pole_series, help="movable-pole series coefficients")
    p.add_argument("--alpha", required=True)
    p.add_argument("--eps", default="0")
    p.add_argument("--depth", type=int, default=5)

    p = new("schwarz", cmd_schwarz, help="Schwarzian derivative on a grid")
    p.add_argument("--phi", required=True)
    p.add_argument("--grid", default="-1:1:0.05")

    p = new("series", cmd_series, help="formal series coefficients as differential polynomials")
    p.add_argument("--what", required=True, choices=["f", "g", "h", "zeta"])
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--u", default="-2/cosh(x)^2", help="potential for --what zeta")

    p = new("soliton", cmd_soliton, help="N-soliton transparent potential on a grid")
    p.add_argument("--k", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--grid", default="-10:10:0.01")

    p = new("kp", cmd_kp, help="time-extended soliton field slice")
    p.add_argument("--k", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--grid", default="-10:10:0.05")
    p.add_argument("--y", type=float, default=0.0)
    p.add_argument("--t", type=float, default=0.0)

    p = new("finite-gap", cmd_finite_gap, help="1-phase finite-gap potential")
    p.add_argument("--lambdas", required=True)
    p.add_argument("--gamma0", type=float, required=True)
    p.add_argument("--sign", default="+", choices=["+", "-"])
    p.add_argument("--grid", default="0:12:0.01")

    p = new("verify", cmd_verify, help="run the invariant suites")
    p.add_argument("--suite", default="all")

    return parser, subparsers


def _merge_negative_values(argv):
    """Join "--flag -10:10:0.01" into "--flag=-10:10:0.01" so argparse accepts it."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (
            tok.startswith("--")
            and "=" not in tok
            and nxt is not None
            and len(nxt) > 1
            and nxt[0] == "-"
            and nxt[1].isdigit()
        ):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None):
    argv = _merge_negative_values(list(sys.argv[1:] if argv is None else argv))
    parser, subparsers = build_parser()
    # --config supplies defaults for the chosen subcommand
    if "--config" in argv:
        idx = argv.index("--config")
        cfg_path = argv[idx + 1]
        try:
            cfg = json.loads(Path(cfg_path).read_text())
        except (OSError, json.JSONDecodeError) as err:
            print(f"error: cannot read config {cfg_path}: {err}", file=sys.stderr)
            return 2
        command = cfg.pop("command", None)
        supplied = {k.replace("-", "_"): v for k, v in cfg.items()}
        for name, p in subparsers.items():
            p.set_defaults(**supplied)
            for action in p._actions:
                if action.dest in supplied:
                    action.required = False
        if command and not any(a in subparsers for a in argv):
            argv = [command] + [a for a in argv if a not in ("--config", cfg_path)]
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help()
        return 2
    try:
        return args.handler(args)
    except (ConfigError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except numeric.NumericError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
