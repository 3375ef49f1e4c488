from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_oracle import series_exp
from paper_oracle import same_set, scale_translate
from vanishlab.poly import LaurentPoly, TruncSeries, powers
from vanishlab.polytopes import contains_point, newton_polytope


def lp(src, arity=2):
    from vanishlab.parsing import parse_poly
    names = ["x", "y", "z"][:arity]
    return parse_poly(src, names)


X = LaurentPoly.variable(2, 0)
Y = LaurentPoly.variable(2, 1)


class TestBasics:
    def test_add_cancellation(self):
        assert (X + Y) + (-X) == Y

    def test_add_identity(self):
        p = lp("3*x - y^2")
        assert p + LaurentPoly.zero(2) == p

    def test_add_laurent(self):
        assert lp("x^-1 + 1") + lp("x^-1 - 1") == lp("2*x^-1")

    def test_mul(self):
        assert (X + Y) * (X - Y) == lp("x^2 - y^2")
        assert lp("x^-1") * X == LaurentPoly.one(2)
        assert lp("1 + x^-1") * lp("1 + y^-1") == lp("1 + x^-1 + y^-1 + x^-1*y^-1")

    def test_pow(self):
        assert lp("1 + x^-1") ** 2 == lp("1 + 2*x^-1 + x^-2")
        p = lp("2*x - y^3")
        assert p ** 1 == p
        # oracle: repeated multiplication
        cube = (X + Y) * (X + Y) * (X + Y)
        assert (X + Y) ** 3 == cube == lp("x^3 + 3*x^2*y + 3*x*y^2 + y^3")

    def test_coeff_at(self):
        p = lp("x^2 - y^2")
        assert p.coeff((2, 0)) == 1
        assert p.coeff((1, 1)) == 0
        # oracle: expansion of (1 + x^-1)^2 in one variable
        q = lp("1 + x^-1", arity=1) ** 2
        assert q.coeff((-1,)) == 2

    def test_coeff_refuses_an_exponent_of_the_wrong_arity(self):
        # a short or long exponent names no monomial: it is an error, not a 0
        # coefficient, for a polynomial and a series of that body alike
        p = LaurentPoly(2, {(0, 1): 1})
        for reader in (p, TruncSeries(p, 1, 3)):
            with pytest.raises(ValueError, match=r"exponent \(0,\) has arity 1, expected 2"):
                reader.coeff((0,))
            with pytest.raises(ValueError, match="has arity 3, expected 2"):
                reader.coeff((0, 1, 0))
            assert reader.coeff((0, 1)) == 1

    def test_holomorphic_part(self):
        assert lp("x^-1*y + x*y").holomorphic_part() == lp("x*y")
        assert lp("x^-1 + x^-2*y").holomorphic_part().is_zero
        assert lp("1 + x^-1").holomorphic_part() == LaurentPoly.one(2)

    def test_zero_coefficients_dropped(self):
        p = LaurentPoly(2, {(1, 0): Fraction(1), (0, 1): Fraction(0)})
        assert set(p.terms) == {(1, 0)}

    def test_rejects_float_coefficients(self):
        # 0.1 would be stored as 3602879701896397/36028797018963968
        with pytest.raises(TypeError):
            LaurentPoly(1, {(1,): 0.1})
        with pytest.raises(TypeError):
            LaurentPoly.constant(2, 2.0)
        with pytest.raises(TypeError):
            LaurentPoly.monomial((1, 2), 0.5)
        assert LaurentPoly(1, {(1,): True}) == LaurentPoly.monomial((1,))

    def test_rejects_non_integer_exponents(self):
        # int() would truncate 1.7 to 1 and build x
        with pytest.raises(TypeError):
            LaurentPoly.monomial((1.7,))
        with pytest.raises(TypeError):
            LaurentPoly(2, {(1, Fraction(1, 2)): 1})
        with pytest.raises(TypeError):
            LaurentPoly.variable(2, 0, 2.0)
        assert LaurentPoly.monomial((True, -2)).terms == {(1, -2): 1}

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            LaurentPoly.one(2) + LaurentPoly.one(3)
        with pytest.raises(ValueError):
            LaurentPoly.one(2) * LaurentPoly.one(3)

    def test_substitute(self):
        # y -> y - x turns (x + y)^2 into y^2
        p = (X + Y) ** 2
        assert p.substitute(1, Y - X) == Y ** 2
        with pytest.raises(ValueError):
            lp("y^-1").substitute(1, Y - X)


polys = st.builds(
    lambda terms: LaurentPoly(2, dict(terms)),
    st.lists(
        st.tuples(
            st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
            st.integers(-3, 3),
        ),
        max_size=4,
    ),
)


class TestRingLaws:
    @settings(max_examples=60, deadline=None)
    @given(polys, polys, polys)
    def test_associativity_distributivity(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @settings(max_examples=60, deadline=None)
    @given(polys, polys)
    def test_commutativity(self, p, q):
        assert p + q == q + p
        assert p * q == q * p

    @settings(max_examples=40, deadline=None)
    @given(polys, st.integers(0, 4), st.integers(0, 4))
    def test_pow_additive(self, p, a, b):
        assert p ** (a + b) == (p ** a) * (p ** b)

    @settings(max_examples=40, deadline=None)
    @given(polys, st.integers(1, 3))
    def test_support_of_power_contained_in_sumset(self, p, m):
        sums = {(0, 0)}
        for _ in range(m):
            sums = {tuple(a + b for a, b in zip(s, u)) for s in sums for u in p.terms}
        assert set((p ** m).terms) <= sums

    @settings(max_examples=30, deadline=None)
    @given(polys, st.integers(1, 3))
    def test_polytope_of_power_is_scaled_polytope(self, p, m):
        if p.is_zero:
            return
        lhs = newton_polytope(p ** m)
        rhs = scale_translate(newton_polytope(p), m)
        assert same_set(lhs, rhs)


class TestTruncSeries:
    def test_series_exp_taylor(self):
        y = TruncSeries(LaurentPoly.variable(2, 1), 1, 3)
        e = series_exp(y)
        assert e.body == lp("1 + y + 1/2*y^2 + 1/6*y^3")

    def test_series_exp_zero(self):
        zero = TruncSeries(LaurentPoly.zero(2), 1, 5)
        assert series_exp(zero).body == LaurentPoly.one(2)

    def test_series_exp_scaled(self):
        s = TruncSeries(2 * Y, 1, 2)
        assert series_exp(s).body == lp("1 + 2*y + 2*y^2")

    def test_series_exp_rejects_constant_term(self):
        with pytest.raises(ValueError):
            series_exp(TruncSeries(LaurentPoly.one(2) + Y, 1, 4))

    def test_series_exp_tracks_one_variable(self):
        # the exponential is taken in the truncated variable, whichever it is
        e = series_exp(TruncSeries(X, 0, 3))
        assert (e.var, e.degree) == (0, 3)
        assert e.body == lp("1 + x + 1/2*x^2 + 1/6*x^3")
        # x + y truncated in y has a term of y-order 0
        with pytest.raises(ValueError):
            series_exp(TruncSeries(X + Y, 1, 3))

    def test_coeff_reads_only_what_the_series_knows(self):
        s = TruncSeries(lp("x^-1 + 3*x^-1*y^2 + y^3"), 1, 2)
        assert s.coeff((-1, 2)) == 3
        assert s.coeff((-1, 1)) == 0
        assert s.coeff((5, 0)) == 0      # the other variable is exact
        assert s.constant_term() == 0
        with pytest.raises(ValueError, match="truncation degree"):
            s.coeff((0, 3))
        # the truncated y-term is unknown at degree -1, not zero
        with pytest.raises(ValueError):
            TruncSeries(LaurentPoly.one(2) + Y, 1, -1).constant_term()
        assert TruncSeries(LaurentPoly.one(2) + Y, 1, 0).constant_term() == 1

    def test_degree_is_an_integer(self):
        y = LaurentPoly.variable(2, 1)
        for degree in (2.5, True, Fraction(3), "3", None):
            with pytest.raises(ValueError, match="degree"):
                TruncSeries(y, 1, degree)
        # a bool is not a variable index either
        with pytest.raises(ValueError, match="variable"):
            TruncSeries(y, True, 3)
        assert TruncSeries(y, 1, -2).body.is_zero

    def test_mul_precision_nonnegative_orders(self):
        # with all tracked exponents >= 0, precision-D inputs give a
        # precision-D product whose coefficients match the exact product
        a_full = lp("1 + y + y^2 + y^3 + y^4 + y^5")
        b_full = lp("2 - y + y^3 + y^5")
        d = 4
        a = TruncSeries(a_full, 1, d)
        b = TruncSeries(b_full, 1, d)
        prod = a * b
        assert prod.degree == d
        exact = TruncSeries(a_full * b_full, 1, d)
        assert prod.body == exact.body

    def test_mul_precision_shifts_with_negative_order(self):
        d = 6
        e = TruncSeries(lp("1 + y + 1/2*y^2"), 1, d)
        shifted = e * lp("y^-2")
        assert shifted.degree == d - 2

    def test_pow_precision(self):
        d = 5
        f = TruncSeries(lp("y^-1 + y"), 1, d)
        # pairwise product: the degree shifts by the min exponent of the other factor
        assert (f * f).degree == d - 1
        # powering starts from the operand, not from a one-series
        assert (f ** 1).degree == d
        assert (f ** 3).degree == d - 2
        # ** m is the last element of powers, body and degree, and its
        # body agrees with the exact power up to the claimed precision
        for m in range(1, 5):
            pw = f ** m
            last = list(powers(f, m))[-1]
            assert (pw.body, pw.var, pw.degree) == (last.body, last.var, last.degree)
            exact = lp("y^-1 + y") ** m
            assert pw.body == TruncSeries(exact, 1, pw.degree).body
