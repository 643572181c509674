import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riccatikit.diffpoly import DiffPolynomial, format_diffpoly

U = DiffPolynomial.symbol(1)
UX = DiffPolynomial.symbol(1, 1)
UXX = DiffPolynomial.symbol(1, 2)


def _canon(factors):
    return tuple(sorted((k, e) for k, e in factors.items() if e != 0))


class ReferencePoly:
    """The Fraction-valued, dict-copying arithmetic the ring operations replaced, kept as an oracle.

    Every result goes through the normalising constructor, and ``d_x`` adds
    one Leibniz term at a time with ``+``.  It stands alone, with only what
    ``series`` and ``format_diffpoly`` use beyond the arithmetic: ``==``,
    ``is_zero`` and ``_coerce``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        if coeffs:
            for mono, c in coeffs.items():
                c = Fraction(c)
                if c != 0:
                    self.coeffs[mono] = self.coeffs.get(mono, Fraction(0)) + c
            self.coeffs = {m: c for m, c in self.coeffs.items() if c != 0}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def constant(cls, q):
        q = Fraction(q)
        return cls({(): q}) if q != 0 else cls()

    @classmethod
    def symbol(cls, index=1, order=0):
        return cls({(((index, order), 1),): Fraction(1)})

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, Fraction(0)) + c
        return ReferencePoly(out)

    __radd__ = __add__

    def __neg__(self):
        return ReferencePoly({m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        out = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                factors = dict(m1)
                for k, e in m2:
                    factors[k] = factors.get(k, 0) + e
                mono = _canon(factors)
                out[mono] = out.get(mono, Fraction(0)) + c1 * c2
        return ReferencePoly(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        q = Fraction(scalar)
        return ReferencePoly({m: c / q for m, c in self.coeffs.items()})

    @staticmethod
    def _coerce(v):
        if isinstance(v, ReferencePoly):
            return v
        return ReferencePoly.constant(v)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ReferencePoly.constant(other)
        return isinstance(other, ReferencePoly) and self.coeffs == other.coeffs

    def is_zero(self):
        return not self.coeffs

    def d_x(self):
        out = ReferencePoly()
        for mono, c in self.coeffs.items():
            for (sym, order), e in mono:
                factors = dict(mono)
                factors[(sym, order)] = e - 1
                factors[(sym, order + 1)] = factors.get((sym, order + 1), 0) + 1
                out = out + ReferencePoly({_canon(factors): c * e})
        return out


class TestTotalDerivative:
    def test_symbol(self):
        assert U.d_x() == UX

    def test_leibniz_on_u_times_ux(self):
        assert (U * UX).d_x() == UX * UX + U * UXX

    def test_half_square(self):
        assert (U * U / 2).d_x() == U * UX

    def test_constant(self):
        assert DiffPolynomial.constant(Fraction(3, 7)).d_x().is_zero()

    def test_leibniz_terms_that_cancel_are_dropped(self):
        # D_x(u u'' - u'^2 / 2) = u u''': the two u' u'' terms cancel
        p = (U * UXX - UX * UX / 2).d_x()
        assert p == U * DiffPolynomial.symbol(1, 3)
        assert len(p.coeffs) == 1


def small_polys():
    atoms = st.sampled_from([U, UX, UXX, DiffPolynomial.symbol(2), DiffPolynomial.constant(1)])
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    term = st.tuples(coeffs, atoms, atoms).map(lambda t: DiffPolynomial.constant(t[0]) * t[1] * t[2])
    return st.lists(term, min_size=1, max_size=4).map(lambda ts: sum(ts, DiffPolynomial.zero()))


class TestRingAxioms:
    @settings(max_examples=60, deadline=None)
    @given(small_polys(), small_polys())
    def test_commutativity(self, p, q):
        assert p + q == q + p
        assert p * q == q * p

    @settings(max_examples=60, deadline=None)
    @given(small_polys(), small_polys(), small_polys())
    def test_associativity_and_distributivity(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @settings(max_examples=60, deadline=None)
    @given(small_polys(), small_polys())
    def test_derivation_rules(self, p, q):
        assert (p + q).d_x() == p.d_x() + q.d_x()
        assert (p * q).d_x() == p.d_x() * q + p * q.d_x()

    @settings(max_examples=30, deadline=None)
    @given(small_polys())
    def test_zero_coefficients_never_stored(self, p):
        assert all(c != 0 for c in p.coeffs.values())


def _coeffs_are_nonzero_fractions(p):
    return all(type(c) is Fraction and c != 0 for c in p.coeffs.values())


def _is_canonical(p):
    """Nonzero int numerators over a positive int denominator, with no common factor."""
    nums = list(p._num.values())
    return (
        type(p._den) is int and p._den > 0
        and all(type(c) is int and c != 0 for c in nums)
        and math.gcd(p._den, *nums) == 1
    )


class TestAgainstReferenceArithmetic:
    @settings(max_examples=80, deadline=None)
    @given(small_polys(), small_polys(), st.fractions(min_value=-3, max_value=3, max_denominator=5))
    def test_every_operation_matches_the_reference(self, p, q, k):
        if k == 0:
            k = Fraction(7, 2)
        rp, rq = ReferencePoly(p.coeffs), ReferencePoly(q.coeffs)
        before = (dict(p.coeffs), dict(q.coeffs))
        results = [
            (p + q, rp + rq),
            (p - q, rp - rq),
            (p - p, rp - rp),
            (p * q, rp * rq),
            (p * k, rp * k),
            (k - p, k - rp),
            (p / k, rp / k),
            (-p, -rp),
            (p.d_x(), rp.d_x()),
            ((p * q).d_x(), (rp * rq).d_x()),
        ]
        for got, want in results:
            assert got.coeffs == want.coeffs
            assert _coeffs_are_nonzero_fractions(got)
            # a result never shares its dict with an operand
            assert got._num is not p._num and got._num is not q._num
        assert (dict(p.coeffs), dict(q.coeffs)) == before

    @settings(max_examples=80, deadline=None)
    @given(small_polys(), small_polys(), st.fractions(min_value=-3, max_value=3, max_denominator=5))
    def test_every_result_is_canonical_and_eq_hash_follow_the_coefficients(self, p, q, k):
        if k == 0:
            k = Fraction(-5, 3)
        results = [p + q, p - q, p - p, p * q, p * k, k - p, p / k, -p, p.d_x(), (p * q).d_x(),
                   DiffPolynomial(p.coeffs), DiffPolynomial.constant(k)]
        for r in results:
            assert _is_canonical(r)
            rebuilt = DiffPolynomial(dict(r.coeffs))
            assert r == rebuilt and hash(r) == hash(rebuilt)
        for a in results:
            for b in results:
                assert (a == b) == (dict(a.coeffs) == dict(b.coeffs))
                if a == b:
                    assert hash(a) == hash(b)

    def test_trivial_operations_return_a_copy(self):
        p = U * UX + 1
        for r in (p + 0, 0 + p, p + DiffPolynomial.zero(), p * 1, p / 1):
            assert r == p and r._num is not p._num
            r._num.clear()
        assert p == U * UX + 1

    def test_public_constructor_coerces_and_drops_zeros(self):
        p = DiffPolynomial({(): 2, (((1, 0), 1),): Fraction(0), (((1, 1), 1),): Fraction(1, 2)})
        assert p.coeffs == {(): Fraction(2), (((1, 1), 1),): Fraction(1, 2)}
        assert _coeffs_are_nonzero_fractions(p)
        assert (p._num, p._den) == ({(): 4, (((1, 1), 1),): 1}, 2)


class TestHashEq:
    @pytest.mark.parametrize("value", [0, 1, -3, Fraction(2, 5), Fraction(-7, 3)])
    def test_constant_hashes_as_its_value(self, value):
        c = DiffPolynomial.constant(value)
        assert c == value and value == c
        assert hash(c) == hash(value) == hash(Fraction(value))
        assert len({c, value}) == 1

    def test_constant_built_by_arithmetic(self):
        one = U * UX - UX * U + 1
        assert one == DiffPolynomial.constant(1) == 1
        assert hash(one) == hash(DiffPolynomial.constant(1)) == hash(1)
        assert hash(U - U) == hash(DiffPolynomial.zero()) == hash(0)

    def test_equal_polynomials_hash_equal(self):
        assert hash(U + UX * 2) == hash(2 * UX + U)
        assert len({U * UX, UX * U, U + 0}) == 2


class TestFormatting:
    def test_half_u(self):
        assert format_diffpoly(U / 2) == "1/2*u"

    def test_mixed_terms_match_expected_layout(self):
        u1 = DiffPolynomial.symbol(1)
        u2 = DiffPolynomial.symbol(2)
        p = u2 / 2 - u1.d_x() / 4 - u1 * u1 / 8
        assert format_diffpoly(p, single=False) == "1/2*u_2 - 1/4*u_1' - 1/8*u_1^2"

    def test_derivative_ticks(self):
        assert format_diffpoly(UXX) == "u''"

    def test_zero(self):
        assert format_diffpoly(DiffPolynomial.zero()) == "0"

    def test_exponent(self):
        assert format_diffpoly(U * U * U) == "u^3"


class TestToExpression:
    def test_substitution_matches_symbolic_derivative(self):
        from riccatikit import expr as ex

        u = ex.parse_expression("-2/cosh(x)^2")
        p = U * UX  # u * u_x
        e = p.to_expression({1: u})
        expected = ex.mul(u, ex.diff(u, "x"))
        for v in (0.0, 0.4, -1.2):
            assert e.evaluate(x=v) == pytest.approx(expected.evaluate(x=v), rel=1e-14)
