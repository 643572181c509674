from fractions import Fraction

import pytest
from test_diffpoly import ReferencePoly

from riccatikit import expr as ex
from riccatikit import series
from riccatikit.diffpoly import DiffPolynomial, format_diffpoly
from riccatikit.series import FormalSeries, modschwarz_series, riccati_series, zeta_chain

U1 = DiffPolynomial.symbol(1)
U2 = DiffPolynomial.symbol(2)


def zs_potential(m):
    if m == 2:
        return FormalSeries({2: 1, 1: U1, 0: U2})
    return FormalSeries({2: 1, 0: U1})


class TestRiccatiSeries:
    def test_f0_is_half_u1(self):
        f, _ = riccati_series(2, 0)
        assert f.coeff(0) == U1 / 2

    def test_f1_from_second_system_line(self):
        f, _ = riccati_series(2, 1)
        expected = U2 / 2 - U1.d_x() / 4 - U1 * U1 / 8
        assert f.coeff(-1) == expected

    def test_g0_is_minus_half_u1(self):
        _, g = riccati_series(2, 0)
        assert g.coeff(0) == -(U1 / 2)

    def test_m1_reduces_to_single_potential(self):
        f, g = riccati_series(1, 2)
        assert f.coeff(0).is_zero()
        assert f.coeff(-1) == U1 / 2
        assert f.coeff(-2) == -(U1.d_x() / 4)
        # mirror series: g_j = (-1)^j f_j once u_1 = 0
        assert g.coeff(-1) == -(U1 / 2)
        assert g.coeff(-2) == f.coeff(-2)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("depth", [0, 1, 3, 5])
    def test_residual_vanishes_at_all_known_orders(self, m, depth):
        f, g = riccati_series(m, depth)
        pot = zs_potential(m)
        for s in (f, g):
            residual = s.d_x() + s * s - pot
            # all exactly-known orders (degree > -depth) must cancel in the ring
            for d in range(residual.floor + 1, 3):
                assert residual.coeff(d).is_zero(), (m, depth, d)

    def test_rejects_unsupported_degree(self):
        with pytest.raises(ValueError):
            riccati_series(3, 2)


class TestModschwarzSeries:
    def test_h1_is_half_u(self):
        h = modschwarz_series(1, 1)
        assert h.coeff(-1) == U1 / 2

    def test_h2_line(self):
        h = modschwarz_series(1, 2)
        h1 = h.coeff(-1)
        assert h.coeff(-2) == (h1.d_x().d_x() / 2 - h1 * h1) / 2

    def test_zero_potential_collapses(self):
        h = modschwarz_series(1, 2)
        # substituting u = 0 kills every tail coefficient
        zero = ex.ZERO
        for d in (-1, -2):
            e = h.coeff(d).to_expression({1: zero})
            assert ex.is_zero(e)

    @pytest.mark.parametrize("m", [1, 2])
    def test_order_matching_residual(self, m):
        depth = 4
        h = modschwarz_series(m, depth)
        u_terms = {m: DiffPolynomial.constant(1)}
        for i in range(1, m + 1):
            u_terms[m - i] = DiffPolynomial.symbol(i)
        pot = FormalSeries(u_terms)
        hx = h.d_x()
        hxx = hx.d_x()
        h2 = h * h
        residual = hx * hx * Fraction(3, 4) - h * hxx * Fraction(1, 2) + (h2 * h2).shift(m) - pot * h2
        for d in range(residual.floor + 1, m + 1):
            assert residual.coeff(d).is_zero(), (m, d)


class TestAgainstReferenceArithmetic:
    @staticmethod
    def formatted(m, depth=8):
        f, g = riccati_series(m, depth)
        h = modschwarz_series(m, depth)
        return [format_diffpoly(s.coeff(-j), single=m == 1) for s in (f, g, h) for j in range(depth + 1)]

    @pytest.mark.parametrize("m", [1, 2])
    def test_series_format_as_on_the_reference_arithmetic(self, m, monkeypatch):
        fast = self.formatted(m)
        monkeypatch.setattr(series, "DiffPolynomial", ReferencePoly)
        assert type(modschwarz_series(m, 1).coeff(-1)) is ReferencePoly
        assert self.formatted(m) == fast


class TestZetaChain:
    def test_one_soliton_closed_form(self):
        u = ex.parse_expression("-2/cosh(x)^2")
        z1 = zeta_chain(u, 1)[0]
        assert z1 == ex.neg(ex.tanh(ex.Var("x")))

    def test_truncation_identity(self):
        # zeta_1^2 - zeta_1' equals k1^2 for the solitonic chain
        u = ex.parse_expression("-2/cosh(x)^2")
        z1 = zeta_chain(u, 1)[0]
        rel = ex.sub(ex.intpow(z1, 2), ex.diff(z1, "x"))
        for p in (-2.0, 0.0, 0.7, 3.1):
            assert rel.evaluate(x=p) == pytest.approx(1.0, abs=1e-12)

    def test_scaled_and_shifted_soliton(self):
        # k1 = 3/2, x0 = 1/4: exact tanh form survives the chain
        u = ex.parse_expression("-2*(3/2)^2/cosh(3/2*x - 3/8)^2")
        z1 = zeta_chain(u, 1)[0]
        expected = ex.parse_expression("-3/2*tanh(3/2*x - 3/8)")
        assert z1 == expected

    def test_zero_potential(self):
        assert ex.is_zero(zeta_chain(ex.ZERO, 1)[0])

    def test_second_element_vanishes_numerically(self):
        u = ex.parse_expression("-2/cosh(x)^2")
        z2 = zeta_chain(u, 2)[1]
        for p in (-1.0, 0.3, 2.0):
            assert abs(z2.evaluate(x=p)) <= 1e-10

    def test_quadrature_opt_out(self):
        u = ex.parse_expression("exp(-x^2)")
        with pytest.raises(ValueError):
            zeta_chain(u, 2, allow_quadrature=False)

    def test_custom_constants(self):
        u = ex.ZERO
        z1 = zeta_chain(u, 1, constants=[Fraction(5)])[0]
        assert z1 == ex.Rational(5)
