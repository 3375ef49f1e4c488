import random
from fractions import Fraction

import pytest

from vanishlab.diffops import DiffOp, apply, vanishing_profile
from vanishlab.parsing import parse_operator, parse_poly
from vanishlab.poly import LaurentPoly, TruncSeries


def lp(src):
    return parse_poly(src, ["x", "y"])


def op(src):
    return parse_operator(src, ["x", "y"])


def d(mu, beta):
    """d^mu applied to the monomial z^beta."""
    return apply(DiffOp(LaurentPoly.monomial(mu)), LaurentPoly.monomial(beta))


class TestApplyMonomial:
    def test_simple(self):
        assert d((1, 1), (1, 1)) == LaurentPoly.monomial((0, 0))
        assert d((2, 0), (1, 3)).is_zero
        assert d((0, 2), (1, 3)) == LaurentPoly.monomial((1, 1), 6)

    def test_polynomial_mode_rejects_negative(self):
        with pytest.raises(ValueError):
            d((0, 1), (0, -1))


class TestApply:
    def test_examples(self):
        assert apply(op("dx*dy"), lp("x*y")) == lp("1")
        assert apply(op("dx^2"), lp("x*y^3")).is_zero

    def test_apply_power_example(self):
        r = apply(op("dx*dy") ** 2, lp("x^2 + y^2") ** 2)
        assert r == lp("8")

    def test_series_precision_drop(self):
        s = TruncSeries(lp("1 + y + y^2 + y^3"), 1, 3)
        r = apply(op("dy^2"), s)
        assert (r.var, r.degree) == (1, 1)
        assert r.body == lp("2 + 6*y")


def random_poly(rng, max_deg=3, n_terms=3):
    terms = {}
    for _ in range(n_terms):
        e = (rng.randrange(max_deg + 1), rng.randrange(max_deg + 1))
        terms[e] = terms.get(e, 0) + Fraction(rng.randrange(-3, 4))
    return LaurentPoly(2, terms)


def random_op(rng):
    sym = random_poly(rng, max_deg=2, n_terms=2)
    return DiffOp(sym)


class TestOperatorAlgebra:
    def test_apply_power_matches_iteration(self):
        rng = random.Random(11)
        for _ in range(50):
            o = random_op(rng)
            p = random_poly(rng)
            m = rng.randrange(1, 4)
            it = p
            for _ in range(m):
                it = apply(o, it)
            assert apply(o ** m, p) == it

    def test_linearity(self):
        rng = random.Random(13)
        for _ in range(50):
            o = random_op(rng)
            p, q = random_poly(rng), random_poly(rng)
            a, b = Fraction(rng.randrange(-3, 4)), Fraction(rng.randrange(-3, 4))
            assert apply(o, a * p + b * q) == a * apply(o, p) + b * apply(o, q)

    def test_commutativity(self):
        rng = random.Random(17)
        for _ in range(50):
            o1, o2 = random_op(rng), random_op(rng)
            p = random_poly(rng)
            assert apply(o1, apply(o2, p)) == apply(o2, apply(o1, p))

    def test_leibniz_single_derivative(self):
        rng = random.Random(19)
        dx = DiffOp(LaurentPoly.monomial((1, 0)))
        dy = DiffOp(LaurentPoly.monomial((0, 1)))
        for _ in range(50):
            p, q = random_poly(rng), random_poly(rng)
            for d in (dx, dy):
                assert apply(d, p * q) == apply(d, p) * q + p * apply(d, q)

    def test_degree_bookkeeping(self):
        # applying d^mu with |mu| = k to a degree-d polynomial leaves degree <= d - k
        rng = random.Random(23)
        for _ in range(50):
            p = random_poly(rng)
            if p.is_zero:
                continue
            mu = (rng.randrange(3), rng.randrange(3))
            r = apply(DiffOp(LaurentPoly.monomial(mu)), p)
            if not r.is_zero:
                assert max(map(sum, r.terms)) <= max(map(sum, p.terms)) - sum(mu)


class TestProfile:
    def test_sum_of_squares(self):
        profile = vanishing_profile(op("dx*dy"), lp("x^2 + y^2"), horizon=4)
        zeros = [e.pp_zero for e in profile.entries]
        assert zeros == [True, False, True, False]
        assert profile.first_pp_failure == 2
        assert profile.entries[1].pp_residual == lp("8")

    def test_clean_profile(self):
        profile = vanishing_profile(op("dx^2"), lp("x*y"), lp("y^3"), horizon=5)
        assert profile.first_pp_failure is None
        assert all(e.ppg_zero for e in profile.entries)
        assert profile.ppg_zero_from == 1

    def test_ppg_zero_from_is_a_tail(self):
        # g = x^2: d_x^m(x^m * x^2) != 0 for m < 3, zero never happens... pick
        # an operator with extra order so the tail starts past 1
        profile = vanishing_profile(op("dx^2"), lp("x"), lp("x^2"), horizon=6)
        assert profile.first_pp_failure is None
        start = profile.ppg_zero_from
        assert start is not None and start > 1
        for e in profile.entries:
            assert e.ppg_zero == (e.m >= start)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            vanishing_profile(op("dx"), LaurentPoly.zero(2))
        with pytest.raises(ValueError):
            vanishing_profile(op("dx"), lp("x"), horizon=0)
        with pytest.raises(ValueError):
            DiffOp(lp("x^-1"))
        with pytest.raises(ValueError):
            DiffOp(LaurentPoly.monomial((0, -1)))
        with pytest.raises(ValueError):
            DiffOp(lp("dx") + lp("x^2*y^-3"))

    def test_power_keeps_the_symbol_power(self):
        # a power of a checked symbol skips the sign scan; it is the same operator
        o = op("dx*dy + 2*dy^3 - 1/2")
        for m in range(4):
            assert (o ** m).symbol == o.symbol ** m
            assert o ** m == DiffOp(o.symbol ** m)
