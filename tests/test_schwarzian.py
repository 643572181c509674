from fractions import Fraction

import numpy as np
import pytest

from riccatikit import expr as ex
from riccatikit import numeric
from riccatikit import riccati as rc
from riccatikit import schwarzian as sw

X = ex.X


class TestSchwarz:
    def test_affine_map_vanishes(self):
        s = sw.schwarz(X)
        assert ex.is_zero(s)

    def test_exponential(self):
        s = sw.schwarz(ex.exp(ex.mul(ex.Rational(2), X)))
        for p in (-0.5, 0.0, 1.0):
            assert s.evaluate(x=p) == pytest.approx(1.0, rel=1e-12)

    def test_tangent_reproduces_its_potential(self):
        # tan = sin/cos with the pair solving psi'' = -psi
        s = sw.schwarz(ex.tan(X))
        for p in np.linspace(-0.9, 0.9, 11):
            assert s.evaluate(x=float(p)) == pytest.approx(-1.0, abs=1e-9)

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            sw.schwarz(ex.Rational(4))

    def test_mobius_invariance(self):
        rng = np.random.default_rng(5)
        phi = ex.add(X, ex.mul(ex.Rational(Fraction(1, 5)), ex.exp(X)))
        s0 = sw.schwarz(phi)
        tried = 0
        for _ in range(40):
            alpha, beta, gamma, delta = (float(v) for v in rng.uniform(-2, 2, 4))
            if abs(alpha * delta - beta * gamma) < 0.2:
                continue
            tried += 1
            m = rc.MobiusMap(alpha, beta, gamma, delta)
            gap = ex.sub(sw.schwarz(m.apply(phi)), s0)
            den = ex.add(ex.mul(m.gamma, phi), m.delta)
            pts = rc.sample_points([gap, ex.recip(den)], interval=(-2.0, 2.0))
            assert max(abs(gap.evaluate(x=p)) for p in pts) <= 1e-9
            if tried >= 20:
                break
        assert tried >= 20


class TestThirdOrder:
    def test_product_of_sine_and_cosine(self):
        res = sw.third_order_residual(ex.mul(ex.sin(X), ex.cos(X)), ex.Rational(-1))
        for p in np.linspace(-1.2, 1.2, 9):
            assert abs(res.evaluate(x=float(p))) <= 1e-10

    def test_square_of_linear_solution(self):
        res = sw.third_order_residual(ex.intpow(X, 2), ex.ZERO)
        assert ex.is_zero(res)

    def test_exponential_is_not_a_solution(self):
        res = sw.third_order_residual(ex.exp(X), ex.Rational(-1))
        expected = ex.mul(ex.Rational(5), ex.exp(X))
        for p in (-1.0, 0.0, 1.0):
            assert res.evaluate(x=p) == pytest.approx(expected.evaluate(x=p), rel=1e-12)

    def test_numeric_basis_from_integrated_pair(self):
        # psi1, psi2 from integration of psi'' = c psi with a polynomial c
        c = lambda x: 0.3 * x * x - 0.5

        def rhs(x, y):
            return np.array([y[1], c(x) * y[0], y[3], c(x) * y[2]])

        traj = numeric.integrate_ivp(rhs, 0.0, [1.0, 0.0, 0.0, 1.0], 2.0, tol=1e-12)
        xs = np.linspace(0.1, 1.9, 25)
        dc = lambda x: 0.6 * x
        worst = 0.0
        for which in ((0, 0), (2, 2), (0, 2)):
            for p in xs:
                s = traj(float(p))
                p1, d1 = s[which[0]], s[which[0] + 1]
                p2, d2 = s[which[1]], s[which[1] + 1]
                phi = p1 * p2
                dphi = d1 * p2 + p1 * d2
                # second and third derivatives via psi'' = c psi
                ddphi = 2 * d1 * d2 + c(p) * 2 * phi
                dddphi = 2 * c(p) * (d1 * p2 + p1 * d2) + dc(p) * 2 * phi + c(p) * (d1 * p2 + p1 * d2) * 2
                res = dddphi - 4 * c(p) * dphi - 2 * dc(p) * phi
                worst = max(worst, abs(res))
        assert worst <= 1e-7

    def test_wronskian_of_two_solutions_is_a_solution(self):
        # a1 = sin x cos x and a2 = cos^2 x solve the c = -1 equation;
        # their Wronskian combination must solve it too
        a1 = ex.mul(ex.sin(X), ex.cos(X))
        a2 = ex.intpow(ex.cos(X), 2)
        w = ex.sub(ex.mul(a1, ex.diff(a2)), ex.mul(a2, ex.diff(a1)))
        res = sw.third_order_residual(w, ex.Rational(-1))
        for p in np.linspace(-1.0, 1.0, 9):
            assert abs(res.evaluate(x=float(p))) <= 1e-7


class TestFirstIntegral:
    def test_sine_cosine_product(self):
        fi = sw.first_integral(ex.mul(ex.sin(X), ex.cos(X)), ex.Rational(-1))
        for p in np.linspace(-1.2, 1.2, 9):
            assert fi.evaluate(x=float(p)) == pytest.approx(1.0, abs=1e-12)

    def test_linear_solution(self):
        fi = sw.first_integral(X, ex.ZERO)
        assert fi == ex.ONE

    def test_degenerate_pair(self):
        k = 2
        fi = sw.first_integral(ex.exp(ex.mul(ex.Rational(2 * k), X)), ex.Rational(k * k))
        assert ex.is_zero(fi)

    def test_derivative_vanishes_along_solutions(self):
        fi = sw.first_integral(ex.mul(ex.sin(X), ex.cos(X)), ex.Rational(-1))
        dfi = ex.diff(fi)
        for p in np.linspace(-1.2, 1.2, 9):
            assert abs(dfi.evaluate(x=float(p))) <= 1e-8


class TestMobiusInvariance:
    PHI = ex.add(X, ex.mul(ex.Rational(Fraction(1, 5)), ex.exp(X)))
    MAPS = [rc.MobiusMap(1.25, -0.5, 0.75, 2.0), rc.MobiusMap(-1.0, 0.5, 1.5, 0.3), rc.MobiusMap(0, 1, 1, 0)]

    def test_invariant_under_every_map(self):
        s0 = sw.schwarz(self.PHI)
        assert sw.mobius_invariance(self.PHI, self.MAPS, (-2, 2), s0) <= 1e-9
        assert sw.mobius_invariance(self.PHI, [], (-2, 2), s0) == 0.0

    def test_a_wrong_s0_is_seen(self):
        s0 = ex.add(sw.schwarz(self.PHI), ex.Real(1e-6))
        assert sw.mobius_invariance(self.PHI, self.MAPS, (-2, 2), s0) == pytest.approx(1e-6, rel=1e-3)

    def test_gap_next_to_a_pole_is_relative_to_the_terms(self):
        # [0, 3] holds the pole of tan at pi/2, where (phi''/phi')^2 reaches about 1.7e7
        phi = ex.tan(X)
        s0 = sw.schwarz(phi)
        assert sw.mobius_invariance(phi, self.MAPS, (0.0, 3.0), s0) <= 1e-12

    @pytest.mark.parametrize(
        "text, interval",
        [("tan(x)", (-1.0, 1.0)), ("exp(0.5*x)", (-1.0, 1.0)), ("x^3+0.75*x", (-1.0, 1.0)),
         ("log(x+2)", (-1.0, 1.0)), ("tan(x)", (0.0, 3.0))],
    )
    def test_a_wrong_s0_fails_the_report(self, text, interval):
        phi = ex.parse_expression(text)
        (check,) = sw.report(phi, ex.add(sw.schwarz(phi), ex.Real(1e-6)), interval)["checks"]
        assert check["value"] == pytest.approx(1e-6, rel=1e-3)
        assert not check["pass"]

    def test_nan_gap_at_a_later_map_is_nan(self, monkeypatch):
        sample_points = sw.sample_points
        calls = []

        def nan_point_from_the_second_call(exprs, **kw):
            calls.append(exprs)
            pts = sample_points(exprs, **kw)
            return np.append(pts, np.nan) if len(calls) >= 2 else pts

        monkeypatch.setattr(sw, "sample_points", nan_point_from_the_second_call)
        # Python's max would keep the first map's finite gap (max(0.0, nan) is 0.0)
        assert np.isnan(sw.mobius_invariance(self.PHI, self.MAPS, (-2, 2), sw.schwarz(self.PHI)))
        assert len(calls) == len(self.MAPS)

    def test_report(self):
        phi = ex.tan(X)
        report = sw.report(phi, sw.schwarz(phi), (-1.0, 1.0))
        assert [(c["name"], c["tol"], c["pass"]) for c in report["checks"]] == [("mobius_invariance", 1e-9, True)]
