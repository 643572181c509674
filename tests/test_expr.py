import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riccatikit import expr as ex

X = ex.X
# x-only atoms that the constructors and the parser keep as opaque factors
EXP, SIN, COSH = ex.exp(X), ex.sin(X), ex.cosh(X)


def fd(f, x0, h=1e-6):
    return (f(x0 + h) - f(x0 - h)) / (2 * h)


class TestDiff:
    def test_power_rule(self):
        assert ex.diff(ex.intpow(X, 2)) == ex.parse_expression("2*x")

    def test_tanh_chain_rule_matches_identity(self):
        k = 1.7
        e = ex.tanh(ex.mul(ex.Real(k), X))
        d = ex.diff(e)
        for p in (-1.0, 0.0, 0.4, 2.2):
            expected = k * (1 - math.tanh(k * p) ** 2)
            assert d.evaluate(x=p) == pytest.approx(expected, rel=1e-14)

    def test_gaussian_derivative_at_one(self):
        e = ex.exp(ex.neg(ex.intpow(X, 2)))
        d = ex.diff(e)
        # frozen value from the central-difference oracle at step 1e-6
        oracle = fd(lambda v: math.exp(-v * v), 1.0)
        assert d.evaluate(x=1.0) == pytest.approx(-2 * math.exp(-1), abs=1e-12)
        assert d.evaluate(x=1.0) == pytest.approx(oracle, rel=1e-9)
        assert oracle == pytest.approx(-0.7357588823, abs=1e-9)

    def test_derivative_closed_on_quadrature_node(self):
        g = ex.antiderivative(ex.parse_expression("exp(-x^2)"))
        assert _reference_contains_quadrature(g)
        back = ex.diff(g)
        assert back == ex.parse_expression("exp(-x^2)")

    def test_random_expressions_match_central_differences(self):
        rng = np.random.default_rng(42)
        pool = [
            "tanh(x)*x^2 - 1/(4+x^2)",
            "exp(-x^2)*sinh(x)",
            "log(2+cosh(x)) + x^3/7",
            "sin(2*x)*cos(x) + tan(x/4)",
            "1/cosh(x)^2 + exp(x/3)",
        ]
        for text in pool:
            e = ex.parse_expression(text)
            d = ex.diff(e)
            f = lambda v: e.evaluate(x=v)
            for p in rng.uniform(-1.5, 1.5, 6):
                approx = fd(f, float(p))
                assert d.evaluate(x=float(p)) == pytest.approx(approx, rel=1e-7, abs=1e-7)


class TestEval:
    def test_sum(self):
        assert ex.parse_expression("x+1").evaluate(x=2.0) == 3.0

    def test_cosh_zero_folds_exactly(self):
        assert ex.cosh(ex.ZERO) == ex.ONE
        assert ex.parse_expression("cosh(0)").evaluate(x=0.0) == 1.0

    def test_soliton_peak_value(self):
        u = ex.parse_expression("-2/cosh(x)^2")
        assert u.evaluate(x=0.0) == -2.0

    def test_log_domain(self):
        with pytest.raises(ex.EvalDomainError):
            ex.log(X).evaluate(x=-1.0)

    def test_division_by_zero(self):
        with pytest.raises(ex.EvalDomainError):
            ex.recip(X).evaluate(x=0.0)

    def test_array_evaluation(self):
        e = ex.parse_expression("x^2 + 1")
        out = e.evaluate(x=np.array([0.0, 1.0, 2.0]))
        assert np.allclose(out, [1.0, 2.0, 5.0])


def pointwise(e, xs):
    """Reference: one scalar evaluation per point, NaN where it raises."""
    out = []
    for p in np.asarray(xs, dtype=float).ravel():
        try:
            out.append(e.evaluate(x=float(p)))
        except ex.EvalDomainError:
            out.append(np.nan)
    return np.array(out, dtype=float).reshape(np.shape(xs))


class TestArrayEvaluation:
    XS = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, np.nan])

    @pytest.mark.parametrize(
        "e",
        [
            ex.recip(X),
            ex.log(X),
            ex.Recip(ex.Recip(X)),  # 1/(1/x): NaN propagates out of the inner node
            ex.parse_expression("log(x + 1) + 1/(x - 0.5)"),
            ex.parse_expression("x^2 + 1/x^2"),
            ex.log(ex.cos(ex.Rational(3))),  # a constant subtree that always raises
        ],
    )
    def test_nan_exactly_where_a_point_raises(self, e):
        got = e.evaluate(x=self.XS)
        ref = pointwise(e, self.XS)
        assert got.shape == self.XS.shape
        np.testing.assert_array_equal(got, ref)

    def test_scalar_evaluation_still_raises(self):
        with pytest.raises(ex.EvalDomainError):
            ex.Recip(ex.Recip(X)).evaluate(x=0.0)

    def test_constant_broadcasts_to_the_binding_shape(self):
        out = ex.Rational(3).evaluate(x=np.zeros((2, 3)))
        assert out.shape == (2, 3) and np.all(out == 3.0)

    def test_overflow_gives_inf(self):
        xs = np.array([1.0, 1e10, 1000.0])
        assert np.isinf(ex.intpow(X, 40).evaluate(x=xs)[1])
        assert np.isinf(ex.exp(X).evaluate(x=xs)[2])
        with pytest.raises(OverflowError):
            ex.intpow(X, 40).evaluate(x=1e10)

    def test_quadrature_node_in_one_sweep(self):
        f = ex.antiderivative(ex.parse_expression("exp(-x^2)"))
        xs = np.array([[1.5, -0.75], [0.0, 2.0]])
        got = f.evaluate(x=xs)
        assert got.shape == xs.shape
        for v, p in zip(got.ravel(), xs.ravel()):
            ref = f.evaluate(x=float(p))
            assert abs(v - ref) <= 2e-12 * max(1.0, abs(ref))
            assert v == pytest.approx(math.sqrt(math.pi) / 2 * math.erf(p), abs=1e-12)

    @pytest.mark.parametrize("text, exact", [("exp(log(x + 2))", lambda x: x * x / 2 + 2 * x),
                                             ("exp(log(1 - x^2))", lambda x: x - x**3 / 3)])
    def test_quadrature_nan_beyond_the_integrand_domain(self, text, exact):
        # the integrand is NaN outside its domain, and so is the antiderivative
        # at every x whose path from 0 leaves it
        f = ex.Quadrature(ex.parse_expression(text))
        xs = np.linspace(-5.0, 5.0, 41)
        got = f.evaluate(x=xs)
        ref = pointwise(f, xs)
        np.testing.assert_array_equal(np.isnan(got), np.isnan(ref))
        inside = ~np.isnan(ref)
        assert 0 < np.count_nonzero(inside) < len(xs)
        for v, r, p in zip(got[inside], ref[inside], xs[inside]):
            assert abs(v - r) <= 2e-12 * max(1.0, abs(r))
            assert v == pytest.approx(exact(p), rel=1e-12, abs=1e-12)
        with pytest.raises(ex.EvalDomainError):
            f.evaluate(x=-4.0)


class TestSimplification:
    def test_rational_folding_is_exact(self):
        e = ex.add(ex.Rational(Fraction(1, 3)), ex.Rational(Fraction(1, 6)))
        assert e == ex.Rational(Fraction(1, 2))

    def test_identical_terms_cancel(self):
        assert ex.is_zero(ex.add(X, ex.neg(X)))
        assert ex.mul(X, ex.recip(X)) == ex.ONE

    def test_like_terms_merge(self):
        assert ex.add(X, X) == ex.mul(2, X)

    def test_power_merging(self):
        assert ex.mul(X, X) == ex.intpow(X, 2)
        assert ex.intpow(ex.intpow(X, 2), 3) == ex.intpow(X, 6)

    def test_exp_reciprocal_normalises(self):
        assert ex.recip(ex.exp(X)) == ex.exp(ex.neg(X))

    def test_no_expansion_of_sums(self):
        e = ex.mul(ex.add(X, 1), ex.add(X, 2))
        assert isinstance(e, ex.Product)


def _trees():
    """Random expressions with Rational constants, built by the smart constructors."""
    leaves = st.one_of(
        st.sampled_from([X, SIN]),
        st.builds(lambda n, d: ex.Rational(Fraction(n, d)), st.integers(-9, 9), st.integers(1, 4)),
    )

    def extend(kids):
        nonzero = kids.filter(lambda e: not ex.is_zero(e))
        return st.one_of(
            st.builds(ex.add, kids, kids),
            st.builds(ex.sub, kids, kids),
            st.builds(ex.mul, kids, kids),
            st.builds(ex.neg, kids),
            st.builds(ex.intpow, nonzero, st.integers(-3, 3)),
            st.builds(lambda f, e: f(e), st.sampled_from([ex.exp, ex.tanh, ex.sin, ex.cosh]), kids),
        )

    return st.recursive(leaves, extend, max_leaves=10)


def _subtrees(e):
    yield e
    for kid in (*getattr(e, "terms", ()), *getattr(e, "factors", ())):
        yield from _subtrees(kid)
    for attr in ("arg", "base"):
        if hasattr(e, attr):
            yield from _subtrees(getattr(e, attr))


class TestParser:
    @pytest.mark.parametrize(
        "text",
        ["x^2 - 2*x + 1", "1/cosh(2*x)^2", "exp(-x^2)*tanh(x)", "3/4*x - 1/2", "sin(x)*cos(x)"],
    )
    def test_round_trip_by_value(self, text):
        e = ex.parse_expression(text)
        for p in (0.3, 1.1, -0.4):
            v1 = e.evaluate(x=p)
            v2 = ex.parse_expression(str(e)).evaluate(x=p)
            assert v1 == pytest.approx(v2, rel=1e-15)

    def test_decimals_become_exact_rationals(self):
        e = ex.parse_expression("0.5*x")
        assert e == ex.mul(ex.Rational(Fraction(1, 2)), X)

    def test_rejects_symbolic_exponent(self):
        with pytest.raises(ValueError):
            ex.parse_expression("x^x")

    def test_trailing_garbage(self):
        with pytest.raises(ValueError):
            ex.parse_expression("x + ")

    @pytest.mark.parametrize(
        "text, tree",
        [
            ("-x^2", ex.neg(ex.intpow(X, 2))),
            ("2^-1", ex.Rational(Fraction(1, 2))),
            ("x^(-2)", ex.recip(ex.intpow(X, 2))),
            ("x^-(2)", ex.recip(ex.intpow(X, 2))),
            ("x^(2.0)", ex.intpow(X, 2)),
            ("x^(-(2))", ex.recip(ex.intpow(X, 2))),
            # a, b, c and y of the ids stand for the opaque atoms exp(x), sin(x), cosh(x) and sin(x)
            pytest.param("exp(x)-sin(x)-cosh(x)", ex.add(EXP, ex.neg(SIN), ex.neg(COSH)), id="a-b-c-tree6"),
            pytest.param("exp(x)/sin(x)/cosh(x)", ex.mul(EXP, ex.recip(SIN), ex.recip(COSH)), id="a/b/c-tree7"),
            pytest.param("-x*sin(x)", ex.mul(ex.neg(X), SIN), id="-x*y-tree8"),
            ("0.5*x", ex.mul(ex.Rational(Fraction(1, 2)), X)),
            (".25", ex.Rational(Fraction(1, 4))),
            ("5.", ex.Rational(5)),
            ("exp(-x^2)*tanh(x)", ex.mul(ex.exp(ex.neg(ex.intpow(X, 2))), ex.tanh(X))),
            ("3/4*x - 1/2", ex.add(ex.mul(ex.Rational(Fraction(3, 4)), X), ex.Rational(Fraction(-1, 2)))),
            (" sin (x)\n+ 1 ", ex.add(ex.sin(X), 1)),
        ],
    )
    def test_text_builds_the_constructor_tree(self, text, tree):
        e = ex.parse_expression(text)
        assert e == tree
        assert str(e) == str(tree)

    @pytest.mark.parametrize(
        "text",
        [
            "x**2", "1e-3", "1_0", "0x1f", "1j",  # only ^ and digit-and-dot literals
            "x^2^3", "x^--2", "x^+2", "x^2.0", "x^y",  # bare exponent: one optional sign, then digits
            "x^(1/2)", "07", "lambda", "True", "exp", "exp()", "exp(x,)", "(exp)(x)", "exp(x=1)",
            "x # c", "x.real", "x//y", "x if y else x", "", "1/0", "0^-1", "x^(1/(x-x))",
        ],
    )
    def test_rejected_inputs_raise_value_error(self, text):
        with pytest.raises(ValueError):
            ex.parse_expression(text)

    @pytest.mark.parametrize("text, names", [("t", "t"), ("y + t*x - exp(a)", "a, t, y"), ("x^2 + y", "y")])
    def test_x_is_the_only_variable(self, text, names):
        with pytest.raises(ValueError, match=f"^x is the only variable, got {names}$"):
            ex.parse_expression(text)

    @settings(max_examples=300, deadline=None)
    @given(_trees())
    def test_printed_tree_parses_back(self, e):
        back = ex.parse_expression(str(e))
        # -(a + b) prints as written but parses to the distributed sum
        if not any(isinstance(s, ex.Neg) and isinstance(s.arg, ex.Sum) for s in _subtrees(e)):
            assert back == e
        xs = np.linspace(0.3, 1.7, 7)
        np.testing.assert_allclose(back.evaluate(x=xs), e.evaluate(x=xs), rtol=1e-9, atol=1e-9)


class TestQuadratureNode:
    GAUSS = ex.parse_expression("exp(-x^2)")

    def test_printed_form(self):
        f = ex.antiderivative(ex.parse_expression("x + exp(-x^2)"))
        assert str(f) == "(1/2)*x^2 + quad(exp(-x^2), dx, from=0)"

    def test_sort_position_after_every_other_node(self):
        q = ex.Quadrature(self.GAUSS)
        assert str(ex.add(q, ex.exp(X), 3, X)) == "3 + x + exp(x) + quad(exp(-x^2), dx, from=0)"
        assert str(ex.mul(ex.exp(X), q, X)) == "x*exp(x)*quad(exp(-x^2), dx, from=0)"

    def test_key_equality(self):
        q = ex.Quadrature(self.GAUSS)
        same = ex.Quadrature(ex.parse_expression("exp(-x^2)"))
        assert q == same and hash(q) == hash(same)
        assert q != ex.Quadrature(ex.parse_expression("exp(-x^3)"))
        assert ex.is_zero(ex.sub(q, same))


def _children(e):
    if isinstance(e, ex.Sum):
        return e.terms
    if isinstance(e, ex.Product):
        return e.factors
    if isinstance(e, ex.IntPower):
        return (e.base,)
    if isinstance(e, (ex.Neg, ex.Recip, ex.Func)):
        return (e.arg,)
    return ()


def _reference_contains_quadrature(e):
    return isinstance(e, ex.Quadrature) or any(map(_reference_contains_quadrature, _children(e)))


class TestAntiderivative:
    def check(self, text, lo=-2.0, hi=2.0):
        e = ex.parse_expression(text)
        f = ex.antiderivative(e)
        d = ex.diff(f)
        for p in np.linspace(lo, hi, 9):
            assert d.evaluate(x=float(p)) == pytest.approx(e.evaluate(x=float(p)), rel=1e-12, abs=1e-12)
        return f

    def test_polynomial(self):
        f = self.check("3*x^2 + 2*x + 5")
        assert not _reference_contains_quadrature(f)

    def test_poly_times_exp(self):
        f = self.check("(x^2+1)*exp(-3*x)")
        assert not _reference_contains_quadrature(f)

    def test_sech_squared(self):
        f = ex.antiderivative(ex.parse_expression("-1/cosh(x)^2"))
        assert f == ex.neg(ex.tanh(X))

    def test_sec_squared(self):
        f = ex.antiderivative(ex.parse_expression("1/cos(x)^2"))
        assert f == ex.tan(X)

    def test_tanh(self):
        f = self.check("tanh(2*x)")
        assert not _reference_contains_quadrature(f)

    def test_inverse_linear(self):
        f = ex.antiderivative(ex.parse_expression("1/(2*x+6)"))
        d = ex.diff(f)
        for p in (0.0, 1.0, 2.5):
            assert d.evaluate(x=p) == pytest.approx(1.0 / (2 * p + 6), rel=1e-12)

    def test_gaussian_falls_back_to_quadrature(self):
        f = ex.antiderivative(ex.parse_expression("exp(-x^2)"))
        assert _reference_contains_quadrature(f)
        # oracle: the error function
        for p in (0.5, 1.0, 2.0):
            expected = math.sqrt(math.pi) / 2 * math.erf(p)
            assert f.evaluate(x=p) == pytest.approx(expected, abs=1e-11)

    def test_mixed_sum_splits_cleanly(self):
        f = ex.antiderivative(ex.parse_expression("x + exp(-x^2)"))
        assert _reference_contains_quadrature(f)
        d = ex.diff(f)
        for p in (0.2, 0.9):
            assert d.evaluate(x=p) == pytest.approx(p + math.exp(-p * p), rel=1e-12)
