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
import functools
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
from .diffpoly import DiffPolynomial
from .numeric import check

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
    table = np.column_stack([np.asarray(c[1], dtype=float) for c in columns])
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        fh.write(row * len(table) % tuple(table.ravel().tolist()))


def emit_json(path, obj):
    """Strict JSON: a non-finite float is written as the string "inf", "-inf" or "nan"."""
    with open(path, "w", newline="\n") as fh:
        json.dump(_finite_json(obj), fh, indent=2, allow_nan=False)
        fh.write("\n")


def _finite_json(obj):
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    if isinstance(obj, dict):
        return {k: _finite_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_json(v) for v in obj]
    return obj


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

# far above the 2,001 points of a -10:10:0.01 grid; a larger grid is refused
# before its count overflows an int or its array is allocated
MAX_GRID_POINTS = 10**6


def finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def parse_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be min:max:step, got {text!r}")
    lo, hi, step = (finite_float(p) for p in parts)
    if not lo < hi:
        raise ConfigError("grid must have min < max")
    if step <= 0:
        raise ConfigError("grid step must be positive")
    steps = (hi - lo) / step + 1e-9
    if not steps < MAX_GRID_POINTS:  # inf when the count overflows
        raise ConfigError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
    return lo + step * np.arange(int(math.floor(steps)) + 1)


def parse_list(text):
    return [finite_float(v) for v in str(text).split(",") if v != ""]


def parse_expr_arg(text):
    try:
        return ex.parse_expression(str(text))
    except ValueError as err:
        raise ConfigError(f"bad expression {text!r}: {err}") from err


# ---------------------------------------------------------------------------
# subcommands


def cmd_transform(args):
    eq = rc.RiccatiEq(parse_expr_arg(args.a), parse_expr_arg(args.b), parse_expr_arg(args.c))
    m = rc.MobiusMap(parse_expr_arg(args.alpha), parse_expr_arg(args.beta), parse_expr_arg(args.gamma),
                     parse_expr_arg(args.delta))
    report = {"command": "transform", "input": {k: str(v) for k, v in vars(eq).items()},
              "map": {k: str(v) for k, v in vars(m).items()}, **rc.transform_report(eq, m)}
    return _finish(args.out, "transform", report)


def cmd_solve_re(args):
    eq = rc.RiccatiEq(parse_expr_arg(args.a), parse_expr_arg(args.b), parse_expr_arg(args.c))
    phi1 = parse_expr_arg(args.phi1) if args.phi1 is not None else None
    family = rc.general_from_particular(eq, phi1)
    constants = parse_list(args.constants)
    if not constants:
        raise ConfigError("--constants needs at least one value")
    labels = [f"C{c0:g}" for c0 in constants]
    if len(set(labels)) < len(labels):
        raise ConfigError(f"--constants {args.constants!r} gives two columns the same label: {', '.join(labels)}")
    grid = parse_grid(args.grid)
    solutions = {label: family(Fraction(c0) if c0 == int(c0) else c0) for label, c0 in zip(labels, constants)}
    # NaN at singular points
    columns = [("x", grid)] + [(f"phi_{label}", sol.evaluate(x=grid)) for label, sol in solutions.items()]
    report = {"command": "solve-re", "constants": constants, **rc.family_report(eq, solutions)}
    return _finish(args.out, "solve_re", report, columns)


def cmd_hermite(args):
    n = args.n
    if not 0 <= n <= 16:
        # past degree 16 the float witness check cannot verify H_n: every n = 17..24 fails it; inside
        # the bound n = 13 fails it too (residual 1.99e-9 against 1e-10), which an exact evaluation
        # of the rational witness would mend (ROADMAP item 6)
        raise ConfigError("--n must lie in 0..16")
    return _finish(args.out, "hermite", {"command": "hermite", "n": n, **rc.hermite_report(n)})


def cmd_pole_series(args):
    alpha = _maybe_rational(args.alpha)
    eps = _maybe_rational(args.eps)
    built = rc.pole_series_report(alpha, eps, args.depth)
    report = {"command": "pole-series", "alpha": float(alpha), "eps": float(eps), **built}
    return _finish(args.out, "pole_series", report)


def _maybe_rational(text):
    s = str(text)
    try:
        value = Fraction(s)
        float(value)  # overflows past the float range
    except ZeroDivisionError:
        raise ValueError(f"division by zero in a constant: {s!r}") from None
    except OverflowError:
        raise ValueError(f"not a finite number: {s!r}") from None
    except ValueError:
        return finite_float(s)
    return value


def cmd_schwarz(args):
    phi = parse_expr_arg(args.phi)
    s_expr = sw.schwarz(phi)
    grid = parse_grid(args.grid)
    vals = s_expr.evaluate(x=grid)  # NaN at singular points
    report = {"command": "schwarz", "phi": str(phi), **sw.report(phi, s_expr, (float(grid[0]), float(grid[-1])))}
    return _finish(args.out, "schwarz", report, [("x", grid), ("schwarzian", vals)])


def cmd_series(args):
    what, m, depth = args.what, args.m, args.depth
    if what == "zeta":
        built = se.zeta_chain(parse_expr_arg(args.u), depth)
    elif what == "h":
        built = se.modschwarz_series(m, depth)
    else:
        built = se.riccati_series(m, depth)
    report = {"command": "series", "what": what, "m": m, "depth": depth, **se.report(what, m, depth, built)}
    return _finish(args.out, "series", report)


def cmd_soliton(args):
    spec = so.SolitonSpec(tuple(parse_list(args.k)), tuple(parse_list(args.beta)))
    grid = parse_grid(args.grid)
    tp = so.potential(spec, grid)
    report = {"command": "soliton", "k": list(spec.k), "beta": list(spec.beta), **so.report(tp)}
    return _finish(args.out, "soliton", report, [("x", grid), ("u", tp.u)])


def cmd_kp(args):
    spec = so.SolitonSpec(tuple(parse_list(args.k)), tuple(parse_list(args.beta)))
    if spec.n > so.TAU_SUM_MAX_N:
        raise ConfigError(f"kp takes at most {so.TAU_SUM_MAX_N} wavenumbers: its KP residual sums "
                          f"2^N = {2**spec.n} subsets at every point")
    grid = parse_grid(args.grid)
    vals = so.kp_field(spec, grid, args.y, args.t)
    report = {"command": "kp", "k": list(spec.k), "beta": list(spec.beta), "y": args.y, "t": args.t,
              **so.kp_report(spec, grid, args.y, args.t, vals)}
    return _finish(args.out, "kp", report, [("x", grid), ("u", vals)])


def cmd_finite_gap(args):
    lams = parse_list(args.lambdas)
    if len(lams) != 3:
        raise ConfigError("--lambdas needs exactly three values")
    spec = fg.GapSpec(lams[0], lams[1], lams[2], args.gamma0, 1 if args.sign != "-" else -1)
    grid = parse_grid(args.grid)
    step = float(grid[1] - grid[0]) if len(grid) > 1 else 0.01
    fixed = step / 10 if args.deterministic else None  # the cross-check's RK4 step
    traj = fg.elliptic_trajectory(spec, grid)
    u = fg.trace_potential(traj, spec)
    report = {"command": "finite-gap", "lambdas": lams, "gamma0": args.gamma0,
              **fg.report(spec, traj, fg.period(spec), fixed)}
    return _finish(args.out, "finite_gap", report, [("x", traj.xs), ("gamma", traj.gammas[:, 0]), ("u", u)])


# ---------------------------------------------------------------------------
# verify suites


def _verify_symbolic(rng):
    checks = []
    f, g = se.riccati_series(2, 4)
    checks.append(check("series_f0_is_half_u1", 0.0 if f.coeff(0) == DiffPolynomial.symbol(1) / 2 else 1.0, 0.5))
    h = se.modschwarz_series(1, 3)
    checks.append(check("series_h1_is_half_u", 0.0 if h.coeff(-1) == DiffPolynomial.symbol(1) / 2 else 1.0, 0.5))
    for what, m, depth, built in (("f", 2, 4, (f, g)), ("h", 1, 3, h)):
        checks.extend({**c, "name": f"{c['name']}_m{m}"} for c in se.report(what, m, depth, built)["checks"])
    p = DiffPolynomial.symbol(1) * DiffPolynomial.symbol(1, 1) + DiffPolynomial.constant(Fraction(1, 3))
    q = DiffPolynomial.symbol(1, 2) - DiffPolynomial.symbol(1) * 2
    leibniz = (p * q).d_x() - (p.d_x() * q + p * q.d_x())
    checks.append(check("leibniz_rule_exact", 0.0 if leibniz.is_zero() else 1.0, 0.5))
    e = ex.parse_expression("exp(-x^2)*tanh(x) + x^3/(1+x^2)")
    d = ex.diff(e)
    p0, h0 = rng.uniform(-2, 2, 8), 1e-6
    fd = (e.evaluate(x=p0 + h0) - e.evaluate(x=p0 - h0)) / (2 * h0)
    errs = np.abs(fd - d.evaluate(x=p0)) / np.maximum(1.0, np.abs(fd))
    checks.append(check("derivative_vs_central_difference", np.max(errs), 1e-7))  # a NaN at any point fails
    return checks


def _verify_riccati(rng):
    checks = []
    eq = rc.RiccatiEq(1, 0, 0)
    phi = ex.neg(ex.recip(ex.add(ex.X, ex.Rational(7))))
    m = rc.MobiusMap(*[float(v) for v in rng.uniform(-2, 2, 4)])
    out = rc.mobius_transform(eq, m)
    mapped = m.apply(phi)
    checks.append(check("solution_transport", rc.riccati_residual(out, mapped), 1e-9))
    ycur, acur = ex.X, 1
    ycur, acur = rc.hermite_ladder(ycur, acur)
    target = ex.parse_expression("x + 1/x")
    checks.append(check("ladder_reaches_x_plus_1_over_x", 0.0 if ycur == target else 1.0, 0.5))
    ok = all(rc.hermite_coefficients(n) == rc.rodrigues_coefficients(n) for n in range(9))
    checks.append(check("hermite_recurrence_vs_derivative_route", 0.0 if ok else 1.0, 0.5))
    rep = rc.kovalevskii_check(3, (1.0, 2.0, 3.0), (0.0, 0.2))
    checks.append(check("kovalevskii_n3_integral_drift", rep.max_drift, 1e-7))
    return checks


def _verify_schwarzian(rng):
    x = ex.X
    phi = ex.add(x, ex.mul(ex.Rational(Fraction(1, 5)), ex.exp(x)))
    draws = [[float(v) for v in rng.uniform(-2, 2, 4)] for _ in range(5)]
    maps = [rc.MobiusMap(*d) for d in draws if abs(d[0] * d[3] - d[1] * d[2]) >= 0.1]
    invariance = sw.mobius_invariance(phi, maps, (-2, 2), sw.schwarz(phi))
    checks = [check("schwarzian_mobius_invariance", invariance, 1e-9)]
    c = ex.Rational(-1)
    phi3 = ex.mul(ex.sin(x), ex.cos(x))
    res = sw.third_order_residual(phi3, c)
    pts = np.linspace(0.1, 1.4, 9)
    checks.append(check("product_solution_residual", np.max(np.abs(res.evaluate(x=pts))), 1e-10))
    fi = sw.first_integral(phi3, c)
    checks.append(check("first_integral_is_one", np.max(np.abs(fi.evaluate(x=pts) - 1.0)), 1e-10))
    return checks


def _verify_soliton(rng):
    xs = np.linspace(-10, 10, 101)
    spec = so.SolitonSpec((1.0,), (0.0,))
    spec2 = so.SolitonSpec((2.0, 1.0), (0.0, 0.0))
    checks = [
        {**c, "name": f"{c['name']}_n{one.n}"}
        for one in (spec, spec2)
        for c in so.report(so.potential(one, xs))["checks"]
    ]
    sign, _ = np.linalg.slogdet(so.system_matrix(spec2, np.linspace(-50, 50, 41))[0])
    ok = sign[0] != 0 and np.all(sign == sign[0])
    checks.append(check("interpolation_determinant_sign_constant", 0.0 if ok else 1.0, 0.5))
    z1 = se.zeta_chain(so.closed_form_potential(spec), 1)[0]
    gap = np.max(np.abs(z1.evaluate(x=xs) - so.solve_coefficients(spec, xs, order=0)[0][:, 0]))
    checks.append(check("zeta1_equals_a1", gap, 1e-10))
    vals = []
    for t0 in (-0.5, 0.0, 0.7):
        u_t0 = so.kdv_closed_form(spec, t0)
        integral = numeric.quadrature(lambda xv: u_t0.evaluate(x=xv), -40, 40, tol=1e-10)
        vals.append(0.5 * integral)
    checks.append(check("kdv_density_time_drift", np.ptp(vals), 1e-8))  # NaN if any integral is NaN
    return checks


def _verify_finitegap(rng):
    spec = fg.GapSpec(2.0, 1.0, 0.0, 0.5)
    traj = fg.elliptic_trajectory(spec, parse_grid("0:12:0.01"))
    checks = fg.report(spec, traj, fg.period(spec), None)["checks"]
    disc = fg.floquet_discriminant(spec, spec.lam1)
    return [*checks, check("floquet_band_edge", abs(abs(disc) - 2.0), 2e-8)]


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
    checks = []
    for n in names:
        checks.extend(_SUITES[n](rng))
    report = {"command": "verify", "suites": names, "checks": checks}
    return _finish(args.out, "verify", report)


# ---------------------------------------------------------------------------
# argument wiring


@functools.cache
def build_parser():
    """The one parser of the process; parsing never changes it."""
    parser = argparse.ArgumentParser(
        prog="riccati",
        description="Riccati-equation toolkit: transformations, solvable potentials, verification.",
        allow_abbrev=False,
    )
    parser.add_argument("--config", default=None, help="JSON file with flag values")
    sub = parser.add_subparsers(dest="command")

    def new(name, fn, **kw):
        p = sub.add_parser(name, allow_abbrev=False, **kw)
        p.add_argument("--out", default=".", help="output directory")
        p.set_defaults(handler=fn.__name__)  # looked up per call, so a rebound cmd_* takes effect
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
    p.add_argument("--y", type=finite_float, default=0.0)
    p.add_argument("--t", type=finite_float, default=0.0)

    p = new("finite-gap", cmd_finite_gap, help="1-phase finite-gap potential")
    p.add_argument("--lambdas", required=True)
    p.add_argument("--gamma0", type=finite_float, required=True)
    p.add_argument("--sign", default="+", choices=["+", "-"])
    p.add_argument("--grid", default="0:12:0.01")
    p.add_argument("--deterministic", action="store_true", help="fixed-step RK4 for the gamma_vs_elliptic cross-check only")

    p = new("verify", cmd_verify, help="run the invariant suites")
    p.add_argument("--suite", default="all", choices=["all", *_SUITES])

    return parser


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


def _config_argv(argv):
    """Replace ``--config FILE`` by the file's flags, right after the subcommand.

    A key ``k`` with value ``v`` becomes ``--k=v``, ``true`` a bare ``--k``;
    ``false`` and ``null`` are left out.  The user's own flags come after
    them, so they win.  ``command`` names the subcommand when argv has none.
    """
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 == len(argv):
        return argv  # argparse reports the missing file name
    path = argv[i + 1]
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    rest = argv[:i] + argv[i + 2:]
    command = cfg.pop("command", None)
    if rest and not rest[0].startswith("-"):
        command, rest = rest[0], rest[1:]
    if command is None:
        return rest
    flags = [f"--{k}" if v is True else f"--{k}={v}" for k, v in cfg.items() if v is not False and v is not None]
    return [command, *flags, *rest]


def main(argv=None):
    argv = _merge_negative_values(list(sys.argv[1:] if argv is None else argv))
    parser = build_parser()
    try:
        args = parser.parse_args(_config_argv(argv))
        if args.command is None:
            parser.print_help()
            return 2
        return globals()[args.handler](args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except numeric.NumericError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
