from fractions import Fraction

import pytest
from test_diffpoly import ReferencePoly

from riccatikit import expr as ex
from riccatikit import series
from riccatikit.diffpoly import DiffPolynomial, format_diffpoly
from riccatikit.series import FormalSeries, modschwarz_residual, modschwarz_series, riccati_series, zeta_chain

U1 = DiffPolynomial.symbol(1)
U2 = DiffPolynomial.symbol(2)


def residual_driven_modschwarz_series(m, depth):
    """h built by recomputing the whole residual at each order, kept as the oracle of the recurrence."""
    h = FormalSeries({0: DiffPolynomial.constant(1)}, floor=0)
    for k in range(1, depth + 1):
        h = FormalSeries(h.terms, floor=-k)
        residual = modschwarz_residual(h, m)
        hk = -(residual.coeff(m - k)) / Fraction(2)
        h = h + FormalSeries({-k: hk})
    return h


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


class TestModschwarzRecurrence:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_the_residual_driven_construction(self, m):
        for depth in range(8):
            got = modschwarz_series(m, depth)
            want = residual_driven_modschwarz_series(m, depth)
            assert got.floor == want.floor
            assert got.terms == want.terms, (m, depth)

    def test_products_grow_quadratically_in_depth(self, monkeypatch):
        calls = [0]
        mul = DiffPolynomial.__mul__

        def counted(self, other):
            calls[0] += 1
            return mul(self, other)

        monkeypatch.setattr(DiffPolynomial, "__mul__", counted)
        counts = []
        for depth in (8, 16):
            calls[0] = 0
            modschwarz_series(1, depth)
            counts.append(calls[0])
        # doubling the depth: about 4x the products when quadratic, about 8x when cubic
        assert counts[1] < 5 * counts[0], counts


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
        assert z1 == ex.neg(ex.tanh(ex.X))

    def test_truncation_identity(self):
        # zeta_1^2 - zeta_1' equals k1^2 for the solitonic chain
        u = ex.parse_expression("-2/cosh(x)^2")
        z1 = zeta_chain(u, 1)[0]
        rel = ex.sub(ex.intpow(z1, 2), ex.diff(z1))
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

    def test_quadrature_node_without_closed_form(self):
        # the printed form the series report's zeta_j strings carry
        z1, z2 = zeta_chain(ex.parse_expression("exp(-x^2)"), 2)
        assert str(z1) == "quad((1/2)*exp(-x^2), dx, from=0)"
        assert str(z2) == (
            "quad((1/2)*(x*exp(-x^2) + exp(-x^2)*quad((1/2)*exp(-x^2), dx, from=0)), dx, from=0)"
        )


class TestReport:
    """``series.report`` prints a built series and checks it; a broken series fails its check."""

    def test_f_and_g(self):
        f, g = riccati_series(2, 1)
        report = series.report("f", 2, 1, (f, g))
        assert report["coefficients"] == {"f_0": "1/2*u_1", "f_1": "1/2*u_2 - 1/4*u_1' - 1/8*u_1^2"}
        assert report["checks"] == [{"name": "triangular_system_residual_orders", "value": 0.0, "tol": 0.5,
                                     "pass": True}]
        assert list(series.report("g", 2, 1, (f, g))["coefficients"]) == ["g_0", "g_1"]

    def test_h(self):
        report = series.report("h", 1, 2, modschwarz_series(1, 2))
        assert report["coefficients"]["h_1"] == "1/2*u"
        assert [(c["name"], c["pass"]) for c in report["checks"]] == [("order_matching_residual", True)]

    def test_zeta(self):
        report = series.report("zeta", 1, 1, zeta_chain(ex.parse_expression("-2/cosh(x)^2"), 1))
        assert report["coefficients"] == {"zeta_1": "-tanh(x)"}
        assert [(c["name"], c["pass"]) for c in report["checks"]] == [("zeta1_truncation_constant_drift", True)]

    def test_broken_series_fail(self):
        f, g = riccati_series(2, 3)
        bad_f = FormalSeries({**f.terms, -1: f.coeff(-1) + U1}, floor=f.floor)
        assert series.report("f", 2, 3, (bad_f, g))["checks"][0]["value"] >= 1
        h = modschwarz_series(2, 3)
        bad_h = FormalSeries({**h.terms, -2: h.coeff(-2) + U2}, floor=h.floor)
        assert not series.report("h", 2, 3, bad_h)["checks"][0]["pass"]
        two_soliton_chain = zeta_chain(ex.parse_expression("-6/cosh(x)^2"), 1)
        assert not series.report("zeta", 1, 1, two_soliton_chain)["checks"][0]["pass"]

    def test_unknown_series_rejected(self):
        with pytest.raises(ValueError):
            series.report("q", 1, 1, None)
