"""The integer coefficient kernels against the dict-of-Fraction reference oracles."""
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kernel_oracle import (
    fraction_apply,
    fraction_derivative,
    fraction_mul,
    fraction_to_string,
    truncate,
)
from vanishlab import poly
from vanishlab.cases import _exp_series
from vanishlab.diffops import DiffOp, apply
from vanishlab.parsing import parse_operator, parse_poly
from vanishlab.poly import LaurentPoly, TruncSeries, powers

fractions = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))
scalars = st.one_of(st.integers(-5, 5), fractions)


def polys(arity, lo=-3, hi=3, max_size=6):
    expo = st.tuples(*[st.integers(lo, hi)] * arity)
    return st.builds(lambda items: LaurentPoly(arity, dict(items)),
                     st.lists(st.tuples(expo, fractions), max_size=max_size))


def assert_clean(p):
    """What __init__ guarantees: int-tuple keys of the arity, nonzero Fraction values."""
    for e, c in p.terms.items():
        assert type(e) is tuple and len(e) == p.arity and all(type(x) is int for x in e)
        assert type(c) is Fraction and c != 0


def y_series(lo=-3, hi=6):
    """Two-variable polynomials whose exponent of y (index 1) spans [lo, hi]."""
    expo = st.tuples(st.integers(-2, 2), st.integers(lo, hi))
    return st.builds(lambda items: LaurentPoly(2, dict(items)),
                     st.lists(st.tuples(expo, fractions), max_size=6))


class TestProduct:
    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(1, 4))
    def test_matches_oracle_term_for_term(self, data, arity):
        p = data.draw(polys(arity))
        q = data.draw(polys(arity))
        prod = p * q
        assert_clean(prod)
        # same terms in the same order: downstream generator lists depend on it
        assert list(prod.terms.items()) == list(fraction_mul(p.terms, q.terms).items())

    @settings(max_examples=80, deadline=None)
    @given(st.data(), st.integers(1, 4), scalars)
    def test_scalar_operands(self, data, arity, s):
        p = data.draw(polys(arity))
        expected = {e: c * s for e, c in p.terms.items() if c * s}
        for prod in (p * s, s * p):
            assert_clean(prod)
            assert prod.terms == expected

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(1, 3), st.integers(0, 4))
    def test_power_matches_repeated_oracle_product(self, data, arity, m):
        p = data.draw(polys(arity, max_size=4))
        expected = {(0,) * arity: Fraction(1)}
        for _ in range(m):
            expected = fraction_mul(expected, p.terms)
        pw = p ** m
        assert_clean(pw)
        assert pw.terms == expected

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(1, 4))
    def test_sum_and_negation_stay_clean(self, data, arity):
        p = data.draw(polys(arity))
        q = data.draw(polys(arity))
        assert_clean(p + q)
        assert_clean(p - q)
        assert_clean(-p)
        assert (p - p).is_zero
        assert (p + q) - q == p

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(1, 4))
    def test_integer_form_round_trips(self, data, arity):
        p = data.draw(polys(arity))
        assert all(type(n) is int for n in p.nums.values())
        assert all(p.den % c.denominator == 0 for c in p.terms.values())
        q = LaurentPoly(arity, p.terms)
        assert q == p
        assert (q.nums, q.den) == (p.nums, p.den)


def assert_canonical(p):
    """Integer storage in lowest terms."""
    assert type(p.den) is int and p.den > 0
    assert all(type(n) is int and n != 0 for n in p.nums.values())
    assert gcd(p.den, *p.nums.values()) == 1


def assert_agrees_with_view(p, q):
    """Equality and hash of the storage agree with equality of the `Fraction` views."""
    assert (p == q) == (dict(p.terms) == dict(q.terms))
    if p == q:
        assert hash(p) == hash(q)


class TestCanonicalStorage:
    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(1, 3), scalars)
    def test_every_result_is_canonical(self, data, arity, s):
        p = data.draw(polys(arity))
        q = data.draw(polys(arity))
        symbol = data.draw(polys(arity, lo=0, hi=3, max_size=3))
        var = data.draw(st.integers(0, arity - 1))
        degree = data.draw(st.integers(-3, 3))
        natural = data.draw(polys(arity, lo=0, hi=3))
        results = [p, p * q, q * p, p + q, q + p, p - q, -p, p * s, s * p, p + s,
                   apply(DiffOp(symbol), natural),
                   TruncSeries(p, var, degree).body,
                   (TruncSeries(p, var, degree) * q).body,
                   (TruncSeries(p, var, degree) * TruncSeries(q, var, degree)).body]
        for r in results:
            assert_canonical(r)
            # the same value built from its Fraction view has the same storage
            again = LaurentPoly(arity, dict(r.terms))
            assert (again.nums, again.den) == (r.nums, r.den)
            assert hash(again) == hash(r)
        for r in results:
            for other in results:
                assert_agrees_with_view(r, other)

    def test_truncation_drops_the_denominator_it_carried(self):
        x_half = LaurentPoly(2, {(1, 0): Fraction(1, 2)})
        cut = TruncSeries(x_half + LaurentPoly(2, {(0, 5): Fraction(1, 3)}), 1, 1)
        assert (cut.body, cut.var, cut.degree) == (x_half, 1, 1)
        assert (cut.body.integer_items(), cut.body.den) == ([((1, 0), 1)], 2)

    def test_zero_has_denominator_one(self):
        half = LaurentPoly(1, {(1,): Fraction(1, 2)})
        for zero in (half - half, half * 0, LaurentPoly.zero(1),
                     TruncSeries(half, 0, 0).body):
            assert (zero.nums, zero.den) == ({}, 1)
            assert zero == LaurentPoly.zero(1) and hash(zero) == hash(LaurentPoly.zero(1))

    def test_terms_view_is_read_only(self):
        p = LaurentPoly(2, {(1, 0): Fraction(1, 2), (0, 1): 3})
        with pytest.raises(TypeError):
            p.terms[(1, 0)] = Fraction(1)
        assert p.terms == {(1, 0): Fraction(1, 2), (0, 1): Fraction(3)}
        assert (p.integer_items(), p.den) == ([((1, 0), 1), ((0, 1), 6)], 2)


class TestSeriesProduct:
    @settings(max_examples=200, deadline=None)
    @given(y_series(), y_series(), st.integers(-2, 6), st.integers(-2, 6), st.booleans())
    def test_claimed_precision_is_provable(self, a_full, b_full, da, db, exact):
        # a and b are truncations of the full series: whatever lies beyond
        # their precision must not reach the product's claimed precision
        a = TruncSeries(a_full, 1, da)
        b = b_full if exact else TruncSeries(b_full, 1, db)
        for prod in (a * b, b * a):
            assert prod.var == 1
            assert type(prod.degree) is int
            assert_clean(prod.body)
            assert prod.body.terms == truncate(fraction_mul(a_full.terms, b_full.terms),
                                               1, prod.degree)

    @settings(max_examples=100, deadline=None)
    @given(y_series(), y_series(), st.integers(-2, 6), st.integers(-2, 6))
    def test_body_is_truncated_oracle_product(self, a_body, b_body, da, db):
        a = TruncSeries(a_body, 1, da)
        b = TruncSeries(b_body, 1, db)
        prod = a * b
        assert prod.body.terms == truncate(fraction_mul(a.body.terms, b.body.terms),
                                           1, prod.degree)

    @settings(max_examples=100, deadline=None)
    @given(y_series(), y_series(), st.integers(-4, 8))
    def test_cut_kernel_multiplies_only_pairs_inside_the_cut(self, a, b, degree):
        # the kernel itself returns the truncated product, before any TruncSeries cut
        cut = poly._product(a, b, (1, degree))
        assert_canonical(cut)
        assert cut.terms == truncate(fraction_mul(a.terms, b.terms), 1, degree)

    @settings(max_examples=50, deadline=None)
    @given(y_series(), y_series(), st.integers(-2, 6), st.integers(-2, 6), st.booleans())
    def test_product_is_not_cut_again(self, a_body, b_body, da, db, exact):
        # the cut kernel leaves nothing past the degree, so the product is
        # built without the public constructor's cut, and equals its result
        a = TruncSeries(a_body, 1, da)
        b = b_body if exact else TruncSeries(b_body, 1, db)
        init = TruncSeries.__init__
        calls = []

        def counting(self, *args):
            calls.append(args)
            init(self, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(TruncSeries, "__init__", counting)
            prod = a * b
        assert calls == []
        assert prod.body == TruncSeries(prod.body, prod.var, prod.degree).body

    def test_zero_body_lowers_precision_with_negative_partner(self):
        # O(y^4) (precision 3) times y^-2 is O(y^2): trustworthy up to y^1
        big_o = TruncSeries(LaurentPoly.zero(2), 1, 3)
        y_inv2 = LaurentPoly.monomial((0, -2))
        assert (big_o * y_inv2).degree == 1
        assert (y_inv2 * big_o).degree == 1
        assert (big_o * TruncSeries(y_inv2, 1, 10)).degree == 1
        # O(y^4) O(y^3) = O(y^7)
        assert (big_o * TruncSeries(LaurentPoly.zero(2), 1, 2)).degree == 6

    def test_exact_operands_keep_integer_precision(self):
        s = TruncSeries(LaurentPoly.variable(2, 1), 1, 3)
        x = LaurentPoly.variable(2, 0)
        for result in (s + x, x + s, s + -x, s * x, x * s, s + 2, s + Fraction(-1, 2), s * 3):
            assert type(result.degree) is int
            assert (result.var, result.degree) == (1, 3)
            assert repr(result).endswith("  (mod y<=3)')")
        assert repr(s) == "TruncSeries('y  (mod y<=3)')"

    def test_rejects_other_operands(self):
        s = TruncSeries(LaurentPoly.variable(2, 1), 1, 3)
        with pytest.raises(TypeError):
            s + 0.5
        with pytest.raises(TypeError):
            s - "x"
        with pytest.raises(ValueError):
            s * TruncSeries(LaurentPoly.variable(2, 1), 0, 3)

    def test_two_tracked_variables_need_an_exact_partner(self):
        # a cut in x and b cut in y both keep only 1, yet the exact product
        # a*b has the term x^-7*y^-7: no degree of the product is provable
        a = TruncSeries(LaurentPoly(2, {(0, 0): 1, (2, -9): 1}), 0, 1)
        b = TruncSeries(LaurentPoly(2, {(0, 0): 1, (-9, 2): 1}), 1, 1)
        assert a.body == b.body == LaurentPoly.one(2)
        with pytest.raises(ValueError, match="different variables"):
            a * b
        with pytest.raises(ValueError, match="different variables"):
            b * a

    def test_tracked_variable_is_an_index_below_the_arity(self):
        y = LaurentPoly.variable(2, 1)
        for var in (-1, 2, 1.0, None):
            with pytest.raises(ValueError):
                TruncSeries(y, var, 3)


class TestPowers:
    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(1, 3), st.integers(0, 5))
    def test_laurent_matches_pow(self, data, arity, horizon):
        p = data.draw(polys(arity, max_size=4))
        seq = list(powers(p, horizon))
        assert len(seq) == horizon
        for m, p_m in enumerate(seq, start=1):
            assert p_m == p ** m

    @settings(max_examples=80, deadline=None)
    @given(y_series(hi=4), st.integers(-2, 4), st.integers(0, 4))
    def test_series_matches_pow(self, full, d, horizon):
        s = TruncSeries(full, 1, d)
        seq = list(powers(s, horizon))
        assert len(seq) == horizon
        exact = {(0, 0): Fraction(1)}
        for m, s_m in enumerate(seq, start=1):
            exact = fraction_mul(exact, full.terms)
            # every claimed precision is provable against the untruncated power
            assert s_m.body.terms == truncate(exact, 1, s_m.degree)
            # ** m is the last element of powers: same body, same degree
            for other in (s ** m, list(powers(s, m))[-1]):
                assert (other.body, other.var, other.degree) == (s_m.body, s_m.var, s_m.degree)

    def test_one_product_per_power(self, monkeypatch):
        products = []
        mul = LaurentPoly.__mul__
        monkeypatch.setattr(LaurentPoly, "__mul__",
                            lambda a, b: products.append(1) or mul(a, b))
        p = LaurentPoly(2, {(1, 0): 1, (0, 1): 2})
        assert list(powers(p, 0)) == []
        assert not products
        seq = powers(p, 4)
        assert next(seq) is p
        assert not products
        assert len(list(seq)) == 3
        assert len(products) == 3

    def test_pow_makes_m_minus_one_products(self, monkeypatch):
        # count the one product kernel, which both classes call
        products = []
        kernel = poly._product
        monkeypatch.setattr(poly, "_product",
                            lambda *args: products.append(1) or kernel(*args))
        p = LaurentPoly(2, {(1, 0): 1, (0, 1): 2})
        s = TruncSeries(p, 1, 4)
        for m in range(7):
            products.clear()
            p ** m
            assert len(products) == max(m - 1, 0)
            products.clear()
            s ** m
            assert len(products) == max(m - 1, 0)
        assert p ** 0 == LaurentPoly.one(2)
        one = s ** 0
        assert (one.body, one.var, one.degree) == (LaurentPoly.one(2), 1, 4)
        for x in (p, s):
            with pytest.raises(ValueError):
                x ** -1


nonzero_fractions = st.builds(Fraction, st.integers(-20, 20).filter(bool), st.integers(1, 12))


@st.composite
def binomial_operands(draw):
    """``(a, b, horizon)``: a one-term ``a`` with a coefficient other than 1,
    and a polynomial, a series or a scaled ``x^beta y^k e^y`` as ``b``, whose
    terms all have the exponent beta in a variable where ``a`` has another."""
    kind = draw(st.sampled_from(["poly", "series", "exp"]))
    arity = 2 if kind == "exp" else draw(st.integers(1, 3))
    shared = 0 if kind == "exp" else draw(st.integers(0, arity - 1))
    beta = draw(st.integers(-2, 2))
    expo = st.tuples(*[st.integers(-3, 3)] * arity)
    a = LaurentPoly.monomial(draw(expo.filter(lambda e: e[shared] != beta)),
                             draw(nonzero_fractions.filter(lambda c: c != 1)))
    if kind == "exp":
        depth, k = draw(st.integers(0, 6)), draw(st.integers(-2, 2))
        b = _exp_series(depth) * LaurentPoly.monomial((beta, k), draw(nonzero_fractions))
    else:
        on_beta = expo.map(lambda e: e[:shared] + (beta,) + e[shared + 1:])
        b = LaurentPoly(arity, dict(draw(st.lists(st.tuples(on_beta, nonzero_fractions),
                                                  min_size=1, max_size=5))))
        if kind == "series":
            b = TruncSeries(b, draw(st.integers(0, arity - 1)), draw(st.integers(-3, 4)))
        assume(not (b.body if kind == "series" else b).is_zero)
    return a, b, draw(st.integers(0, 5))


def assert_same_power(got, want):
    """Equal in body, denominator, reach, layout and, for a series, degree."""
    assert type(got) is type(want)
    if isinstance(want, TruncSeries):
        assert (got.var, got.degree) == (want.var, want.degree)
        got, want = got.body, want.body
    assert_canonical(got)
    assert (got.nums, got.den, got.reach, got.layout) == (want.nums, want.den, want.reach,
                                                          want.layout)


class TestBinomialPowers:
    """``_binomial_powers(a, b, horizon)`` is ``powers(a + b, horizon)``."""

    @settings(max_examples=300, deadline=None)
    @given(binomial_operands())
    def test_matches_powers_of_the_sum(self, operands):
        a, b, horizon = operands
        seq = list(poly._binomial_powers(a, b, horizon))
        assert len(seq) == horizon
        for got, want in zip(seq, powers(a + b, horizon)):
            assert_same_power(got, want)

    def test_cuts_components_past_the_degree(self):
        # a = 2 x y^2 lies 2 up in y, b = y^-1 + 3 y^2 goes down to y^-1: a^m
        # and the components near it pass the degree of (a + b)^m
        a = LaurentPoly(2, {(1, 2): 2})
        b = TruncSeries(LaurentPoly(2, {(0, -1): 1, (0, 2): 3}), 1, 2)
        cut = 0
        for m, (got, want) in enumerate(zip(poly._binomial_powers(a, b, 5),
                                            powers(a + b, 5)), start=1):
            assert_same_power(got, want)
            cut += max(e[1] for e in ((a + b.body) ** m).exponents()) > got.degree
        assert cut == 4

    @pytest.mark.parametrize("series", [False, True])
    def test_widens_like_powers_of_the_sum(self, series):
        # m * 5000 passes 2^14 at m = 4: the keys move to 30-bit slots
        a = LaurentPoly(2, {(5000, 0): Fraction(-3, 2)})
        b = LaurentPoly(2, {(0, 1): 1, (0, 2): Fraction(1, 3)})
        b = TruncSeries(b, 1, 6) if series else b
        seq = list(poly._binomial_powers(a, b, 5))
        assert [p_m.body.layout.width if series else p_m.layout.width for p_m in seq] == [
            15, 15, 15, 30, 30]
        for got, want in zip(seq, powers(a + b, 5)):
            assert_same_power(got, want)

    @pytest.mark.parametrize("a, b", [
        ("x + y", "y"),                # a has two terms
        ("0", "y"),                    # a has none
        ("x", "0"),                    # b has none
        ("x", "x*y + y^2"),            # no variable where b's terms share an exponent
        ("x*y", "x*y^2 + x*y^3"),      # they share x^1, and so does a
    ])
    def test_components_that_meet_raise(self, a, b):
        a, b = parse_poly(a, ["x", "y"]), parse_poly(b, ["x", "y"])
        for b in (b, TruncSeries(b, 1, 3)):
            with pytest.raises(ValueError, match="meet"):
                list(poly._binomial_powers(a, b, 3))

    def test_arities_must_agree(self):
        with pytest.raises(ValueError, match="arity mismatch"):
            list(poly._binomial_powers(LaurentPoly.variable(1, 0),
                                       LaurentPoly.variable(2, 1), 2))


def monomial_derivative(mu, beta):
    """d^mu z^beta through apply, as (coefficient, exponent) like the oracle."""
    out = apply(DiffOp(LaurentPoly.monomial(mu)), LaurentPoly.monomial(beta))
    assert_clean(out)
    assert len(out.terms) <= 1
    if out.is_zero:
        return 0, tuple(b - m for b, m in zip(beta, mu))
    (expo, coeff), = out.terms.items()
    return coeff, expo


class TestApply:
    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(1, 4))
    def test_monomial_polynomial_mode(self, data, arity):
        mu = data.draw(st.tuples(*[st.integers(0, 5)] * arity))
        beta = data.draw(st.tuples(*[st.integers(0, 6)] * arity))
        coeff, expo = monomial_derivative(mu, beta)
        assert (coeff, expo) == fraction_derivative(mu, beta)
        assert (coeff == 0) == any(b < m for m, b in zip(mu, beta))

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(1, 4))
    def test_apply_matches_oracle(self, data, arity):
        # symbol exponents 0..5 against operand exponents 0..6: derivatives
        # that outrun the exponent come up beside live ones
        symbol = data.draw(polys(arity, lo=0, hi=5, max_size=4))
        operand = data.draw(polys(arity, lo=0, hi=6))
        out = apply(DiffOp(symbol), operand)
        assert_clean(out)
        assert list(out.terms.items()) == list(fraction_apply(symbol.terms, operand.terms).items())

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(1, 3))
    def test_apply_matches_oracle_larger(self, data, arity):
        # up to 6 symbol terms of total degree up to 8, against operands of
        # total degree from below to above the symbol's: most pairs are dead
        # and skipped, the rest must come out as the oracle's, in its order
        expo = st.lists(st.integers(0, arity - 1), max_size=8).map(
            lambda vs: tuple(vs.count(i) for i in range(arity)))
        symbol = data.draw(st.builds(lambda items: LaurentPoly(arity, dict(items)),
                                     st.lists(st.tuples(expo, fractions), max_size=6)))
        operand = data.draw(polys(arity, lo=0, hi=9, max_size=10))
        out = apply(DiffOp(symbol), operand)
        assert_clean(out)
        assert list(out.terms.items()) == list(fraction_apply(symbol.terms, operand.terms).items())

    def test_large_horizon_profile_matches_oracle(self):
        # the three-variable profile of the golden corpus, to m = 12: L^m has
        # 91 terms and P^m 169 there, and only pairs with beta >= mu are live
        names = ["x", "y", "z"]
        op = parse_operator("dx^2*dy + dy^3 + dx*dz^2", names)
        p = parse_poly("x*y + y*z + x*z + x^2", names)
        for m in range(1, 13):
            op_m, p_m = op ** m, p ** m
            out = apply(op_m, p_m)
            assert_clean(out)
            assert list(out.terms.items()) == list(
                fraction_apply(op_m.symbol.terms, p_m.terms).items())

    def test_polynomial_mode_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            apply(DiffOp(LaurentPoly.monomial((0, 1))), LaurentPoly.monomial((0, -1)))
        with pytest.raises(ValueError):
            apply(DiffOp(LaurentPoly.monomial((0, 0))), LaurentPoly.monomial((0, -1)))
        # the zero operator never differentiates anything
        assert apply(DiffOp(LaurentPoly.zero(2)), LaurentPoly.monomial((0, -1))).is_zero


def slot_edges(arity, rungs=2):
    """Exponents at the edges of the first ``rungs`` slot widths of the
    arity: 2**(W-1) - 1 is the largest that fits width W, one more widens."""
    width = poly._width(arity, 0)
    edges = []
    for _ in range(rungs):
        top = 2 ** (width - 1) - 1
        edges += [top, top + 1, -top, -top - 1]
        width *= 2
    return edges


def packed_polys(arity, values, max_size=4):
    """Polynomials whose exponents are drawn from -3..3 and ``values``."""
    expo = st.tuples(*[st.one_of(st.integers(-3, 3), st.sampled_from(values))] * arity)
    return st.builds(lambda items: LaurentPoly(arity, dict(items)),
                     st.lists(st.tuples(expo, fractions), max_size=max_size))


def assert_packed(p):
    """The reach bounds every exponent and the layout is the one of the reach."""
    assert all(abs(x) <= p.reach for e in p.terms for x in e)
    assert p.layout is poly._layout(p.arity, poly._width(p.arity, p.reach))
    assert p.reach < 2 ** (p.layout.width - 1)


class TestPackedKeys:
    """The packed kernel against the reference oracles, in arity 1 to 6 and
    at the edges of the slot widths, where a key that wrapped would alias
    another."""

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(1, 6))
    def test_product_and_terms(self, data, arity):
        values = slot_edges(arity)
        p = data.draw(packed_polys(arity, values))
        q = data.draw(packed_polys(arity, values))
        for r in (p, q, p * q):
            assert_packed(r)
            assert LaurentPoly(arity, r.terms) == r
            assert r.exponents() == tuple(r.terms)
            for expo in r.exponents():
                assert r.coeff(expo) == r.terms[expo]
        assert list((p * q).terms.items()) == list(fraction_mul(p.terms, q.terms).items())
        # carrying 2**W out of one slot into the next packs to the same key
        # at width W: coeff must not read that other exponent's coefficient
        width = p.layout.width
        for expo in p.terms:
            for i in range(arity - 1):
                alias = list(expo)
                alias[i] += 2 ** width
                alias[i + 1] -= 1
                assert p.coeff(alias) == 0

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(1, 6))
    def test_series_product_cuts_every_variable(self, data, arity):
        values = slot_edges(arity)
        p = data.draw(packed_polys(arity, values))
        q = data.draw(packed_polys(arity, values))
        degree = data.draw(st.one_of(st.integers(-4, 4), st.sampled_from(values)))
        exact = fraction_mul(p.terms, q.terms)
        for var in range(arity):
            cut = poly._product(p, q, (var, degree))
            assert_packed(cut)
            assert cut.terms == truncate(exact, var, degree)
            a, b = TruncSeries(p, var, degree), TruncSeries(q, var, degree)
            prod = a * b
            assert prod.body.terms == truncate(fraction_mul(a.body.terms, b.body.terms), var,
                                               prod.degree)

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(1, 6))
    def test_apply_visits_falling_only_where_beta_covers_mu(self, data, arity):
        # operand slots up to one past the first two width edges; the symbol
        # keeps small orders, so the oracle's falling factorials stay short
        values = [v for v in slot_edges(arity) if v > 0]
        symbol = data.draw(polys(arity, lo=0, hi=3, max_size=3))
        expo = st.tuples(*[st.one_of(st.integers(0, 5), st.sampled_from(values))] * arity)
        operand = data.draw(st.builds(lambda items: LaurentPoly(arity, dict(items)),
                                      st.lists(st.tuples(expo, fractions), max_size=5)))
        seen = []
        falling = poly._falling

        def checked(mu, beta):
            assert all(b >= m for m, b in zip(mu, beta))
            seen.append((mu, beta))
            return falling(mu, beta)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(poly, "_falling", checked)
            out = apply(DiffOp(symbol), operand)
        assert_packed(out)
        assert list(out.terms.items()) == list(fraction_apply(symbol.terms, operand.terms).items())
        live = [(mu, beta) for mu in symbol.terms for beta in operand.terms
                if all(b >= m for m, b in zip(mu, beta))]
        assert seen == live

    def test_cut_power_keeps_the_first_width(self):
        # the reach sum of (x + y^600)^28 is 16800, past the 15-bit slots of
        # arity 2: the product widens, though the cut at y^600 keeps every
        # exponent within 600
        base = LaurentPoly(2, {(1, 0): 1, (0, 600): 1})
        power = TruncSeries(base, 1, 600) ** 28
        assert_packed(power.body)
        expected = dict(base.terms)
        for _ in range(27):
            expected = truncate(fraction_mul(expected, base.terms), 1, 600)
        assert power.degree == 600 and power.body.terms == expected
        # y-degrees that sum past the slot, cut back within it
        a = LaurentPoly(2, {(1, 0): 1, (0, 9000): 1})
        b = LaurentPoly(2, {(0, 0): 1, (0, 9000): 2})
        cut = poly._product(a, b, (1, 9000))
        assert_packed(cut)
        assert cut.terms == truncate(fraction_mul(a.terms, b.terms), 1, 9000)
        assert (a * b).layout.width == 30

    @pytest.mark.parametrize("arity", range(1, 7))
    def test_widths_widen(self, arity):
        width = poly._width(arity, 0)
        top = 2 ** (width - 1) - 1
        fits = LaurentPoly.monomial((top,) * arity)
        past = LaurentPoly.monomial((-top - 1,) + (0,) * (arity - 1))
        assert fits.layout.width == width
        assert past.layout.width == 2 * width
        for square, expo in ((fits * fits, 2 * top), (past * past, -2 * top - 2)):
            assert square.layout.width == 2 * width
            assert square.exponents() == ((expo,) + square.exponents()[0][1:],)
        assert (fits * past).exponents() == ((-1,) + (top,) * (arity - 1),)
        # a slot order past the operand's edge is a dead pair, never a wrapped live one
        big = DiffOp(LaurentPoly.monomial((top + 1,) + (0,) * (arity - 1)))
        assert apply(big, fits).is_zero
        # d z^top in every variable at once: top^arity z^(top-1)
        d = DiffOp(LaurentPoly.monomial((1,) * arity))
        assert apply(d, fits) == LaurentPoly.monomial((top - 1,) * arity, top ** arity)


def one_term(arity, values):
    """One-term polynomials whose exponents are drawn from -3..3 and ``values``."""
    expo = st.tuples(*[st.one_of(st.integers(-3, 3), st.sampled_from(values))] * arity)
    return st.builds(LaurentPoly.monomial, expo, fractions.filter(bool))


class TestOneTermOperands:
    """A one-term operand takes the product's and the application's one-pass
    path: the result must still be the oracle's, in the oracle's order."""

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(1, 6), st.booleans())
    def test_product_matches_oracle(self, data, arity, mono_left):
        # exponents at the slot-width edges put the two operands at different
        # widths, so the narrower one is repacked before the pass
        values = slot_edges(arity)
        mono = data.draw(one_term(arity, values))
        many = data.draw(packed_polys(arity, values, max_size=6))
        a, b = (mono, many) if mono_left else (many, mono)
        prod = a * b
        assert_packed(prod)
        assert_canonical(prod)
        assert list(prod.terms.items()) == list(fraction_mul(a.terms, b.terms).items())

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(1, 6), st.booleans())
    def test_cut_product_matches_oracle_in_one_pass(self, data, arity, mono_left):
        values = slot_edges(arity)
        mono = data.draw(one_term(arity, values))
        many = data.draw(packed_polys(arity, values, max_size=6))
        var = data.draw(st.integers(0, arity - 1))
        degree = data.draw(st.one_of(st.integers(-6, 6), st.sampled_from(values)))
        a, b = (mono, many) if mono_left else (many, mono)

        def no_bisection(*args):
            raise AssertionError("the one-term path bisects nothing")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(poly, "bisect_right", no_bisection)
            cut = poly._product(a, b, (var, degree))
            prod = TruncSeries(a, var, degree) * b
        assert_packed(cut)
        assert_canonical(cut)
        exact = fraction_mul(a.terms, b.terms)
        assert list(cut.terms.items()) == list(truncate(exact, var, degree).items())
        assert prod.body.terms == truncate(exact, var, prod.degree)

    def test_repacks_the_narrower_operand(self):
        # x^top fits the first width of arity 2, x^(top+1) needs twice that
        top = 2 ** (poly._width(2, 0) - 1) - 1
        wide = LaurentPoly(2, {(top + 1, 0): 1, (0, -1): Fraction(1, 2)})
        narrow = LaurentPoly.monomial((-1, 2), Fraction(-3))
        assert narrow.layout.width < wide.layout.width
        for a, b in ((narrow, wide), (wide, narrow)):
            prod = a * b
            assert prod.layout is wide.layout
            assert list(prod.terms.items()) == list(fraction_mul(a.terms, b.terms).items())
            # the cut keeps -3/2*x^-1*y and drops -3*x^top*y^2
            cut = poly._product(a, b, (0, top - 1))
            assert cut.terms == {(-1, 1): Fraction(-3, 2)}

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(1, 6))
    def test_one_term_symbol_matches_oracle(self, data, arity):
        # operand slots up to one past the first width's edge, symbol slots of
        # order 0..3 or past every operand slot: either side may be the wider
        # one and be repacked, and a slot past the operand's is a dead pair
        top = 2 ** (poly._width(arity, 0) - 1) - 1
        mu = data.draw(st.tuples(*[st.one_of(st.integers(0, 3), st.just(top + 2))] * arity))
        c = data.draw(fractions.filter(bool))
        expo = st.tuples(*[st.one_of(st.integers(0, 6), st.sampled_from([top, top + 1]))]
                         * arity)
        operand = data.draw(st.builds(lambda items: LaurentPoly(arity, dict(items)),
                                      st.lists(st.tuples(expo, fractions), max_size=6)))
        seen = []
        falling = poly._falling

        def checked(mu_expo, beta):
            assert all(b >= m for m, b in zip(mu_expo, beta))
            seen.append(beta)
            return falling(mu_expo, beta)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(poly, "_falling", checked)
            out = apply(DiffOp(LaurentPoly.monomial(mu, c)), operand)
        assert_packed(out)
        assert_canonical(out)
        live = [beta for beta in operand.terms if all(b >= m for m, b in zip(mu, beta))]
        expected = {}
        for beta in live:
            coeff, e = fraction_derivative(mu, beta)
            expected[e] = c * operand.terms[beta] * coeff
        assert list(out.terms.items()) == list(expected.items())
        assert seen == live

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(1, 4))
    def test_one_term_symbol_on_a_series(self, data, arity):
        mu = data.draw(st.tuples(*[st.integers(0, 3)] * arity))
        c = data.draw(fractions.filter(bool))
        var = data.draw(st.integers(0, arity - 1))
        degree = data.draw(st.integers(-2, 8))
        body = data.draw(polys(arity, lo=0, hi=8))
        series = TruncSeries(body, var, degree)
        out = apply(DiffOp(LaurentPoly.monomial(mu, c)), series)
        assert (out.var, out.degree) == (var, degree - mu[var])
        assert out.body.terms == truncate(fraction_apply({mu: c}, series.body.terms), var,
                                          out.degree)


class TestNumeratorsAlong:
    @pytest.mark.parametrize("var", [0, 1, 2])
    def test_reads_the_powers_of_one_variable(self, var):
        def power(j, coeff):
            return LaurentPoly.monomial(tuple(j if i == var else 0 for i in range(3)), coeff)

        p = power(0, Fraction(1, 2)) + power(2, 3) + power(3, Fraction(-1, 3))
        assert p.den == 6
        assert p.numerators_along(var, 5) == [3, 0, 18, -2, 0, 0]
        assert p.numerators_along(var, 3) == [3, 0, 18, -2]
        # a term past top, or off the variable's axis, is not on the line
        assert p.numerators_along(var, 2) is None
        assert (p + LaurentPoly.monomial((1, 1, 1))).numerators_along(var, 5) is None
        assert (p + power(-1, 1)).numerators_along(var, 5) is None
        assert LaurentPoly.zero(3).numerators_along(var, 2) == [0, 0, 0]
        assert LaurentPoly.zero(3).numerators_along(var, -1) == []

    @pytest.mark.parametrize("arity", range(3, 7))
    def test_past_the_reach_no_key_aliases(self, arity):
        # at width W (at most 10 bits from arity 3 on), 2**W in one slot packs
        # to the key of 1 in the next: reading past the reach must not find it
        width = poly._width(arity, 0)
        assert width <= 10
        p = LaurentPoly.monomial((0, 1) + (0,) * (arity - 2))
        assert p.numerators_along(0, 2 ** width) is None
        q = LaurentPoly.monomial((0,) * arity, 5)
        assert q.numerators_along(0, 2 ** width) == [5] + [0] * 2 ** width


# unit and 1/d magnitudes of both signs, beside general mixed denominators
printed_coeffs = st.one_of(
    fractions,
    st.sampled_from([1, -1]),
    st.builds(lambda d, s: Fraction(s, d), st.integers(1, 12), st.sampled_from([1, -1])),
)
NAMES = ["a", "b1", "u_v", "dx", "T", "x_0"]


class TestPrinting:
    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(1, 5), st.booleans())
    def test_to_string_matches_oracle(self, data, arity, custom):
        # exponents -3..3 give constants and Laurent terms; arity 4 and 5
        # print with the default names z1, z2, ...
        expo = st.tuples(*[st.integers(-3, 3)] * arity)
        p = data.draw(st.builds(lambda items: LaurentPoly(arity, dict(items)),
                                st.lists(st.tuples(expo, printed_coeffs), max_size=7)))
        names = data.draw(st.permutations(NAMES))[:arity] if custom else None
        text = p.to_string(names)
        assert text == fraction_to_string(p.terms, names)
        default = ["x", "y", "z"][:arity] if arity <= 3 else [f"z{i + 1}" for i in range(arity)]
        assert parse_poly(text, names or default) == p

    @pytest.mark.parametrize("terms, text", [
        ({}, "0"),
        ({(0, 0): 1}, "1"),
        ({(0, 0): Fraction(-1, 3)}, "-1/3"),
        ({(1, 0): -1, (0, 0): Fraction(4, 2)}, "-x + 2"),
        ({(2, -1): Fraction(-7, 4), (0, 1): Fraction(1, 6), (-1, 0): -1},
         "-7/4*x^2*y^-1 + 1/6*y - x^-1"),
    ])
    def test_to_string_pinned(self, terms, text):
        p = LaurentPoly(2, terms)
        assert p.to_string() == text == fraction_to_string(p.terms)
