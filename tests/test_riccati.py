import math
from fractions import Fraction

import numpy as np
import pytest

from riccatikit import cli
from riccatikit import expr as ex
from riccatikit import numeric
from riccatikit import riccati as rc

X = ex.X


def integrate_re(eq, phi0, x0, x1, tol=1e-12):
    def rhs(x, y):
        return np.array([eq.a.evaluate(x=x) * y[0] ** 2 + eq.b.evaluate(x=x) * y[0] + eq.c.evaluate(x=x)])

    return numeric.integrate_ivp(rhs, x0, [phi0], x1, tol=tol)


class TestMobiusTransform:
    def test_inversion_flips_and_negates(self):
        eq = rc.RiccatiEq(ex.parse_expression("x"), ex.parse_expression("2"), ex.cosh(X))
        out = rc.mobius_transform(eq, rc.MobiusMap(0, 1, 1, 0))
        assert out.a == ex.neg(ex.cosh(X))
        assert out.b == ex.Rational(-2)
        assert out.c == ex.neg(X)

    def test_identity_map(self):
        eq = rc.RiccatiEq(ex.parse_expression("x"), ex.parse_expression("0"), ex.parse_expression("1"))
        out = rc.mobius_transform(eq, rc.MobiusMap(1, 0, 0, 1))
        assert (out.a, out.b, out.c) == (eq.a, eq.b, eq.c)

    def test_shift_by_x_on_pure_square(self):
        eq = rc.RiccatiEq(1, 0, 0)
        out = rc.mobius_transform(eq, rc.MobiusMap(1, X, 0, 1))
        assert out.a == ex.ONE
        assert out.b == ex.parse_expression("-2*x")
        assert out.c == ex.parse_expression("x^2 + 1")

    def test_degenerate_map_rejected(self):
        eq = rc.RiccatiEq(1, 0, 0)
        with pytest.raises(ValueError):
            rc.mobius_transform(eq, rc.MobiusMap(1, 2, 2, 4))

    def test_group_law(self):
        rng = np.random.default_rng(11)
        eq = rc.RiccatiEq(1, ex.parse_expression("x/4"), ex.parse_expression("1/(4+x^2)"))
        pts = np.linspace(-3, 3, 13)
        for _ in range(6):
            vals = rng.uniform(-2, 2, 8)
            m1 = rc.MobiusMap(*[float(v) for v in vals[:4]])
            m2 = rc.MobiusMap(*[float(v) for v in vals[4:]])
            det1 = vals[0] * vals[3] - vals[1] * vals[2]
            det2 = vals[4] * vals[7] - vals[5] * vals[6]
            if min(abs(det1), abs(det2)) < 0.1:
                continue
            two_step = rc.mobius_transform(rc.mobius_transform(eq, m1), m2)
            one_step = rc.mobius_transform(eq, m2.compose(m1))
            for name in ("a", "b", "c"):
                gap = max(
                    abs(getattr(two_step, name).evaluate(x=float(p)) - getattr(one_step, name).evaluate(x=float(p)))
                    for p in pts
                )
                assert gap <= 1e-9

    def test_solution_transport(self):
        rng = np.random.default_rng(12)
        eq = rc.RiccatiEq(1, 0, 0)
        phi = ex.neg(ex.recip(ex.add(X, ex.Rational(7))))  # solves phi' = phi^2
        for _ in range(6):
            vals = [float(v) for v in rng.uniform(-2, 2, 4)]
            if abs(vals[0] * vals[3] - vals[1] * vals[2]) < 0.1:
                continue
            m = rc.MobiusMap(*vals)
            out = rc.mobius_transform(eq, m)
            assert rc.riccati_residual(out, m.apply(phi)) <= 1e-9


class TestGeneralFromParticular:
    def test_quadrature_family_of_the_hermite_case(self):
        # y' = -y^2 + x^2 + 1 with particular solution y = x
        eq = rc.RiccatiEq(-1, 0, ex.parse_expression("x^2+1"))
        family = rc.general_from_particular(eq, X)
        for c0 in (1, 3):
            sol = family(c0)
            assert rc.riccati_residual(eq, sol, points=np.linspace(-1.5, 1.5, 20)) <= 1e-9

    def test_pure_square_family(self):
        eq = rc.RiccatiEq(1, 0, 0)
        family = rc.general_from_particular(eq, ex.ZERO)
        sol = family(5)
        assert rc.riccati_residual(eq, sol, points=np.linspace(-2, 2, 20)) <= 1e-12
        # separable-equation oracle: phi = -1/(x + C), here with C = -5
        assert sol.evaluate(x=1.0) == pytest.approx(-1.0 / (1.0 - 5.0), rel=1e-12)

    def test_linear_case_needs_no_particular_solution(self):
        eq = rc.RiccatiEq(0, 1, 1)
        family = rc.general_from_particular(eq)
        sol = family(2)
        # C e^x - 1 up to the anchoring of the quadrature constant
        for p in (-1.0, 0.0, 1.0):
            assert sol.evaluate(x=p) == pytest.approx(2 * math.exp(p) - 1, rel=1e-12)

    def test_rejects_non_solution(self):
        eq = rc.RiccatiEq(-1, 0, ex.parse_expression("x^2+1"))
        with pytest.raises(ValueError):
            rc.general_from_particular(eq, ex.intpow(X, 2))


class TestCrossRatio:
    def phis(self):
        return [ex.neg(ex.recip(ex.sub(X, ex.Rational(c)))) for c in (0, 1, 2)]

    def test_a_zero_collapses_to_phi1(self):
        p1, p2, p3 = self.phis()
        assert rc.cross_ratio_solution(p1, p2, p3, 0) == p1

    def test_a_one_collapses_to_phi3(self):
        p1, p2, p3 = self.phis()
        out = rc.cross_ratio_solution(p1, p2, p3, 1)
        pts = [3.0, 4.0, 5.5]
        assert max(abs(out.evaluate(x=p) - p3.evaluate(x=p)) for p in pts) <= 1e-12

    def test_fourth_solution_shares_the_pole_family(self):
        eq = rc.RiccatiEq(1, 0, 0)
        p1, p2, p3 = self.phis()
        out = rc.cross_ratio_solution(p1, p2, p3, -1)
        pts = np.linspace(3.0, 6.0, 16)
        assert rc.riccati_residual(eq, out, points=pts) <= 1e-12
        # root-finder oracle: c4 with out = -1/(x - c4) must be x-independent
        c4 = [p + 1.0 / out.evaluate(x=p) for p in pts]
        assert np.ptp(c4) <= 1e-9

    def test_degenerate_constant(self):
        p1, p2, p3 = self.phis()
        with pytest.raises(ValueError):
            rc.cross_ratio_solution(p1, p1, p3, 0.5)


class TestCrossRatioConservation:
    def test_four_integrated_solutions(self):
        eq = rc.RiccatiEq(1, ex.parse_expression("sin(x)/2"), ex.parse_expression("-1 - x/10"))
        x0, x1 = 0.0, 1.2
        starts = [0.0, 0.25, 0.5, 0.75]
        trajs = [integrate_re(eq, s, x0, x1) for s in starts]
        xs = np.linspace(x0, x1, 60)
        vals = np.array([[t(p)[0] for t in trajs] for p in xs])
        cr = (vals[:, 0] - vals[:, 1]) * (vals[:, 3] - vals[:, 2]) / (
            (vals[:, 0] - vals[:, 2]) * (vals[:, 3] - vals[:, 1])
        )
        assert np.max(np.abs(cr - cr[0])) <= 1e-8


class TestConvertReLode:
    def test_lode_to_re_shape(self):
        l = rc.Lode2(ex.parse_expression("x"), ex.parse_expression("cosh(x)"))
        eq, mapping = rc.convert_re_lode("lode_to_re", l)
        assert eq.a == ex.ONE
        assert eq.b == l.b
        assert eq.c == ex.neg(l.c)
        assert "psi" in mapping

    def test_lode_to_re_transport(self):
        # psi'' = psi has solution e^x; phi = -psi'/psi = -1 must solve the image
        l = rc.Lode2(0, 1)
        eq, _ = rc.convert_re_lode("lode_to_re", l)
        assert rc.riccati_residual(eq, ex.Rational(-1)) <= 1e-12

    def test_re_to_lode_canonical_case(self):
        eq = rc.RiccatiEq(1, 0, ex.parse_expression("x^2+1"))
        l, _ = rc.convert_re_lode("re_to_lode", eq)
        assert ex.is_zero(l.b)
        assert l.c == ex.parse_expression("-(x^2+1)")

    def test_round_trip(self):
        eq = rc.RiccatiEq(1, 0, ex.parse_expression("x^2+1"))
        l, _ = rc.convert_re_lode("re_to_lode", eq)
        back, _ = rc.convert_re_lode("lode_to_re", l)
        assert (back.a, back.b, back.c) == (eq.a, eq.b, eq.c)

    def test_re_to_lode_numeric_consistency(self):
        # integrate the RE and the LODE side by side: phi == -psi'/(a psi)
        eq = rc.RiccatiEq(1, 0, ex.parse_expression("x^2+1"))
        l, _ = rc.convert_re_lode("re_to_lode", eq)
        phi_traj = integrate_re(eq, 0.3, 0.0, 0.8)

        def lode_rhs(x, y):
            return np.array([y[1], l.b.evaluate(x=x) * y[1] + l.c.evaluate(x=x) * y[0]])

        psi_traj = numeric.integrate_ivp(lode_rhs, 0.0, [1.0, -0.3], 0.8, tol=1e-12)
        for p in np.linspace(0.0, 0.8, 9):
            psi, dpsi = psi_traj(p)
            assert phi_traj(p)[0] == pytest.approx(-dpsi / psi, abs=1e-8)

    def test_linear_case_refused(self):
        with pytest.raises(ValueError):
            rc.convert_re_lode("re_to_lode", rc.RiccatiEq(0, 1, 1))


class TestCanonicalForm:
    def test_no_first_derivative_term(self):
        l = rc.Lode2(0, ex.cosh(X))
        c_hat, gauge = rc.canonical_form(l)
        assert c_hat == ex.neg(ex.cosh(X))
        assert gauge == ex.ONE

    def test_hermite_equation(self):
        # omega'' - 2x omega' + 2 lam omega = 0 as psi'' = 2x psi' - 2 lam psi
        lam = 3
        l = rc.Lode2(ex.parse_expression("2*x"), ex.Rational(-2 * lam))
        c_hat, gauge = rc.canonical_form(l)
        assert c_hat == ex.parse_expression(f"{2 * lam} + 1 - x^2")
        assert gauge == ex.exp(ex.parse_expression("1/2*x^2"))

    def test_constant_coefficients(self):
        l = rc.Lode2(2, 0)
        c_hat, _ = rc.canonical_form(l)
        assert c_hat == ex.Rational(-1)

    def test_gauge_maps_solutions(self):
        # psi'' = 2x psi' - 2 psi (lam = 1) has solution omega = 2x;
        # psi_hat = omega / gauge must solve psi'' + c_hat psi = 0
        l = rc.Lode2(ex.parse_expression("2*x"), ex.Rational(-2))
        c_hat, gauge = rc.canonical_form(l)
        psi_hat = ex.mul(ex.parse_expression("2*x"), ex.recip(gauge))
        res = ex.add(ex.diff(psi_hat, 2), ex.mul(c_hat, psi_hat))
        for p in (-1.5, 0.4, 2.0):
            assert abs(res.evaluate(x=p)) <= 1e-10


class TestHermite:
    def test_polynomial_table(self):
        assert rc.hermite_polynomial(0)[0] == ex.ONE
        assert rc.hermite_polynomial(1)[0] == ex.parse_expression("2*x")
        assert rc.hermite_polynomial(2)[0] == ex.parse_expression("4*x^2 - 2")

    def test_witness_for_n0(self):
        _, y = rc.hermite_polynomial(0)
        assert y == ex.neg(X)

    @pytest.mark.parametrize("n", range(7))
    def test_witness_solves_the_riccati_equation(self, n):
        _, y = rc.hermite_polynomial(n)
        rhs = ex.parse_expression(f"x^2 - {2 * n + 1}")
        res = ex.add(ex.diff(y), ex.intpow(y, 2), ex.neg(rhs))
        for p in np.linspace(4.0, 9.0, 100):
            assert abs(res.evaluate(x=float(p))) <= 1e-10

    @pytest.mark.parametrize("n", range(11))
    def test_recurrence_equals_derivative_route(self, n):
        assert rc.hermite_coefficients(n) == rc.rodrigues_coefficients(n)

    def test_ladder_from_x(self):
        y_hat, alpha_hat = rc.hermite_ladder(X, 1)
        assert y_hat == ex.parse_expression("x + 1/x")
        assert alpha_hat == 3

    def test_ladder_preserves_the_equation(self):
        y_hat, alpha_hat = rc.hermite_ladder(X, 1)
        y2, alpha2 = rc.hermite_ladder(y_hat, alpha_hat)
        assert alpha2 == 5
        rhs = ex.parse_expression("x^2 + 5")
        res = ex.add(ex.diff(y2), ex.intpow(y2, 2), ex.neg(rhs))
        for p in (0.3, 0.9, 2.0, -1.7):
            assert abs(res.evaluate(x=p)) <= 1e-10

    def test_ladder_rejects_identically_minus_x(self):
        with pytest.raises(ValueError):
            rc.hermite_ladder(ex.neg(X), 1)


class TestPoleSeries:
    def test_alpha_three_terminates(self):
        a = rc.pole_series(3, 0, 5)
        assert a == [0, 1, 0, 0, 0, 0]
        assert all(isinstance(v, Fraction) for v in a)

    def test_universal_low_order_lines(self):
        for alpha, eps in ((2, Fraction(1, 2)), (Fraction(-1, 3), 1)):
            a = rc.pole_series(alpha, eps, 4)
            assert a[0] == 0
            assert 4 * a[2] + 2 * eps == 0

    def test_float_arguments_are_taken_exactly(self):
        a = rc.pole_series(0.1, 0.25, 6)
        assert all(isinstance(v, Fraction) for v in a)
        assert a == rc.pole_series(Fraction(0.1), Fraction(1, 4), 6)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            rc.pole_series(1, 0, -1)

    def test_alpha_one_coefficients(self):
        a = rc.pole_series(1, 0, 5)
        assert a[1] == Fraction(1, 3)
        assert a[3] == Fraction(8, 45)

    def test_series_matches_ivp_near_the_pole(self):
        a = rc.pole_series(1, 0, 5)

        def series(x):
            return 1.0 / x + sum(float(c) * x**j for j, c in enumerate(a))

        def rhs(x, y):
            return np.array([x * x + 1.0 - y[0] ** 2])

        x0, x1 = 0.2, 0.4
        traj = numeric.integrate_ivp(rhs, x0, [series(x0)], x1, tol=1e-13)
        # truncation order: next omitted term is O(x^7)
        assert abs(traj.ys[-1][0] - series(x1)) <= 1e-5
        traj2 = numeric.integrate_ivp(rhs, x0, [series(x0)], 0.25, tol=1e-13)
        assert abs(traj2.ys[-1][0] - series(0.25)) <= 5e-7


class TestKovalevskii:
    def test_n3_quadratic_integrals(self):
        rep = rc.kovalevskii_check(3, (1.0, 2.0, 3.0), (0.0, 0.25))
        assert set(rep.drifts) == {"F1", "F2"}
        assert rep.max_drift <= 1e-7

    def test_n4_cross_ratios(self):
        rep = rc.kovalevskii_check(4, (1.0, 2.0, 3.0, 4.0), (0.0, 0.12))
        assert "CR1234" in rep.drifts
        assert rep.max_drift <= 1e-7

    def test_equal_pair_keeps_f1_zero(self):
        rep = rc.kovalevskii_check(3, (2.0, 2.0, 1.0), (0.0, 0.3))
        assert rep.drifts["F1"] <= 1e-12

    def test_blow_up_is_reported(self):
        with pytest.raises(numeric.IntegrationBlowUp):
            rc.kovalevskii_check(3, (1.0, 2.0, 3.0), (0.0, 10.0))


def sample_points_per_point(exprs, interval=rc.DEFAULT_INTERVAL):
    """Reference: the candidate loop with one scalar evaluation per point."""
    lo, hi = interval
    n = rc.SAMPLE_COUNT
    good = []
    for p in np.linspace(lo, hi, 4 * n + 1)[1:-1]:
        ok = True
        for e in exprs:
            v = ex.as_expression(e).evaluate(x=float(p))
            if not np.isfinite(v) or abs(v) > 1e8:
                ok = False
                break
        if ok:
            good.append(float(p))
    stride = max(1, len(good) // n)
    return good[::stride][:n]


def residual_per_point(eq, phi, pts):
    """Reference: riccati_residual's maximum taken one point at a time."""
    dphi = ex.diff(phi)
    rhs = ex.add(ex.mul(eq.a, ex.intpow(phi, 2)), ex.mul(eq.b, phi), eq.c)
    res = ex.sub(dphi, rhs)
    worst = 0.0
    for p in pts:
        scale = max(1.0, abs(rhs.evaluate(x=p)), abs(dphi.evaluate(x=p)))
        worst = max(worst, abs(res.evaluate(x=p)) / scale)
    return worst


# (a, b, p, q): phi1 = p x + q solves phi' = a phi^2 + b phi + c for the c below;
# the general solution carries a quadrature-backed antiderivative
SOLVE_RE_FAMILIES = [(-1, 0, 1, 1), (-1, 1, -1, 0), (1, 0, 1, -1), (1, -1, -1, 1)]


def solve_re_family(a, b, p, q):
    c = f"{-a * p * p}*x^2 + {-2 * a * p * q - b * p}*x + {p - a * q * q - b * q}"
    eq = rc.RiccatiEq(a, b, ex.parse_expression(c))
    return eq, rc.general_from_particular(eq, ex.parse_expression(f"{p}*x + {q}"))


class TestArrayChecks:
    """The array sampling and residual against their per-point loops."""

    @pytest.mark.parametrize("text", ["1/x", "2*x + 1/x", "1/x - 1/(x - 2)", "tan(x)", "log(x + 2)"])
    def test_sample_points_match_the_loop(self, text):
        e = ex.parse_expression(text)
        got = rc.sample_points([e])
        assert isinstance(got, np.ndarray)
        assert got.tolist() == sample_points_per_point([e])

    def test_sample_points_with_several_expressions(self):
        exprs = [ex.parse_expression("log(x + 2)"), ex.parse_expression("1/(x - 1)")]
        assert rc.sample_points(exprs, interval=(-3.0, 3.0)).tolist() == sample_points_per_point(
            exprs, interval=(-3.0, 3.0)
        )

    @pytest.mark.parametrize("family", SOLVE_RE_FAMILIES)
    def test_solve_re_families_with_a_quadrature_node(self, family):
        eq, fam = solve_re_family(*family)
        for c0 in (1, 4):
            sol = fam(c0)
            assert "quad(" in str(sol)
            res = ex.sub(ex.diff(sol), ex.add(ex.mul(eq.a, ex.intpow(sol, 2)), ex.mul(eq.b, sol), eq.c))
            pts = rc.sample_points([sol, res])
            assert pts.tolist() == sample_points_per_point([sol, res])
            got = rc.riccati_residual(eq, sol)
            ref = residual_per_point(eq, sol, pts)
            assert got <= 1e-9 and abs(got - ref) <= 1e-13

    def test_sample_points_with_a_restricted_integrand(self):
        # phi' = -phi^2 + phi/(x + 2) through phi1 = 0: the family's
        # antiderivative of exp(log(x + 2)) has no value for x < -2
        eq = rc.RiccatiEq(-1, ex.parse_expression("1/(x + 2)"), 0)
        fam = rc.general_from_particular(eq, ex.ZERO)
        for c0 in (1, 4):
            sol = fam(c0)
            assert "quad(" in str(sol)
            pts = rc.sample_points([sol])
            assert pts.tolist() == sample_points_per_point([sol])
            assert pts.min() > -2.0
            assert rc.riccati_residual(eq, sol) == pytest.approx(residual_per_point(eq, sol, pts), abs=1e-13)

    def test_residual_matches_the_loop_on_a_non_solution(self):
        eq = rc.RiccatiEq(-1, 0, ex.parse_expression("x^2+1"))
        phi = ex.parse_expression("x^2 + 1/(x - 1)")
        pts = rc.sample_points([phi])
        assert rc.riccati_residual(eq, phi, points=pts) == pytest.approx(residual_per_point(eq, phi, pts), rel=1e-13)

    def test_nan_point_fails_the_check(self):
        eq = rc.RiccatiEq(1, 0, 0)
        phi = ex.neg(ex.recip(ex.add(X, ex.Rational(7))))
        pts = [0.0, np.nan, 1.0]
        # Python's max would drop the NaN here (max(0.0, nan) is 0.0)
        assert math.isnan(rc.riccati_residual(eq, phi, points=pts))
        assert not cli.check("solution_residual", rc.riccati_residual(eq, phi, points=pts), 1e-9)["pass"]


def passes(report):
    return {c["name"]: c["pass"] for c in report["checks"]}


class TestReports:
    """Each builder passes on a fixed input, and a broken object fails the check that watches it."""

    def test_transform_report(self):
        eq = rc.RiccatiEq(ex.parse_expression("x"), 2, ex.cosh(X))
        report = rc.transform_report(eq, rc.MobiusMap(0, 1, 1, 0))
        assert list(report) == ["output", "checks"]
        assert report["output"] == {"a": "-cosh(x)", "b": "-2", "c": "-x"}
        assert passes(report) == {"inverse_map_roundtrip": True}

    def test_transform_report_fails_on_a_wrong_transform(self, monkeypatch):
        mobius_transform = rc.mobius_transform

        def loses_c(eq, m):
            out = mobius_transform(eq, m)
            return rc.RiccatiEq(out.a, out.b, 0)

        monkeypatch.setattr(rc, "mobius_transform", loses_c)
        eq = rc.RiccatiEq(1, 0, ex.parse_expression("x^2 + 1"))
        assert passes(rc.transform_report(eq, rc.MobiusMap(1, 0, 0, 1))) == {"inverse_map_roundtrip": False}

    def test_family_report(self):
        eq = rc.RiccatiEq(-1, 0, ex.parse_expression("x^2+1"))
        family = rc.general_from_particular(eq, X)
        report = rc.family_report(eq, {"C1": family(1), "C2": family(2), "bad": ex.add(family(3), X)})
        assert [c["tol"] for c in report["checks"]] == [rc.RESIDUAL_TOL] * 3
        assert passes(report) == {"solution_residual_C1": True, "solution_residual_C2": True,
                                  "solution_residual_bad": False}

    def test_hermite_report(self):
        report = rc.hermite_report(3)
        assert list(report) == ["polynomial", "riccati_witness", "equation_rhs", "checks"]
        assert report["polynomial"] == "8x^3-12x"
        assert report["equation_rhs"] == "x^2-7"
        assert passes(report) == {"recurrence_matches_derivative_route": True, "riccati_witness_residual": True}

    def test_hermite_report_fails_on_a_wrong_derivative_route(self, monkeypatch):
        rodrigues = rc.rodrigues_coefficients
        monkeypatch.setattr(rc, "rodrigues_coefficients", lambda n: rodrigues(n)[:-1] + [rodrigues(n)[-1] + 1])
        assert passes(rc.hermite_report(4)) == {"recurrence_matches_derivative_route": False,
                                                "riccati_witness_residual": True}

    def test_pole_series_report(self):
        report = rc.pole_series_report(Fraction(1), Fraction(0), 6)
        assert list(report) == ["coefficients", "exact", "checks"]
        assert report["exact"][:4] == ["0", "1/3", "0", "8/45"]
        assert passes(report) == {"zeroth_coefficient_vanishes": True, "fourth_order_line": True,
                                  "series_vs_ivp_near_pole": True}

    def test_pole_series_report_fails_on_a_wrong_coefficient(self, monkeypatch):
        pole_series = rc.pole_series
        monkeypatch.setattr(rc, "pole_series", lambda *a: [c + Fraction(1, 10) for c in pole_series(*a)])
        assert passes(rc.pole_series_report(Fraction(1), Fraction(0), 6)) == {
            "zeroth_coefficient_vanishes": False, "fourth_order_line": False, "series_vs_ivp_near_pole": False}

    def test_pole_series_report_fails_its_check_when_the_ivp_blows_up(self):
        # at alpha = -100 the IVP from 0.2 off the pole runs into a nearer pole and underflows its step
        report = rc.pole_series_report(Fraction(-100), Fraction(0), 6)
        checks = {c["name"]: c for c in report["checks"]}
        assert checks["series_vs_ivp_near_pole"]["value"] == math.inf
        assert passes(report) == {"zeroth_coefficient_vanishes": True, "fourth_order_line": True,
                                  "series_vs_ivp_near_pole": False}


@pytest.mark.parametrize("coeffs, text", [([], "0"), ([0, 0], "0"), ([-2, 0, 4], "4x^2-2"), ([0, -1], "-x"),
                                          ([1, 1, -1], "-x^2+x+1"), ([-12, 0, 1], "x^2-12")])
def test_polynomial_rendering(coeffs, text):
    assert rc._format_poly(coeffs) == text
