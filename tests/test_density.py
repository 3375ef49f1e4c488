from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_oracle import fraction_mul, fraction_on_ray
from vanishlab.density import (
    _ray,
    CONSISTENT,
    FOUND,
    HYPOTHESIS_FAILS,
    INCONCLUSIVE,
    PREDICTS_NONZERO,
    dk_check,
    homogeneous_density,
    ray_hits_support,
)
from vanishlab.parsing import parse_poly
from vanishlab.poly import LaurentPoly


def lp(src, names=("x", "y")):
    return parse_poly(src, names)


class TestOnRay:
    def test_basic(self):
        assert _ray((Fraction(1, 2), Fraction(1, 2)))((1, 1))
        assert _ray((1, 2))((3, 6))
        assert not _ray((2, 1))((1, 2))
        assert not _ray((1, 1))((-1, -1))  # negative multiple

    def test_zero_direction(self):
        assert _ray((0, 0))((0, 0))
        assert not _ray((0, 0))((1, 0))

    def test_origin_on_every_ray(self):
        assert _ray((5, -3))((0, 0))


    @settings(max_examples=400, deadline=None)
    @given(st.data(), st.integers(1, 4))
    def test_matches_oracle(self, data, arity):
        # directions with zero entries (the zero direction included), points
        # that are nonnegative or negative multiples of them, and points off
        # the ray; coordinates are ints or Fractions
        value = st.one_of(st.integers(-4, 4),
                          st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)))
        direction = data.draw(st.one_of(st.just([0] * arity),
                                        st.lists(value, min_size=arity, max_size=arity)))
        k = data.draw(st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)))
        point = data.draw(st.one_of(
            st.just([k * v for v in direction]),
            st.just([int(v) if v.denominator == 1 else v for v in (k * v for v in direction)]),
            st.lists(value, min_size=arity, max_size=arity),
        ))
        assert _ray(direction)(point) == fraction_on_ray(point, direction)

    @pytest.mark.parametrize("point, direction", [
        ((0.5, 0.5), (1, 1)), ((1, 1), (1, 1.0)), ((0.0, 0), (0, 0)), ((1, 2), (0.0, 0.0)),
    ])
    def test_float_raises_like_oracle(self, point, direction):
        with pytest.raises(TypeError):
            fraction_on_ray(point, direction)
        # the library reads a float only in the direction: the points it
        # tests are exponent vectors
        if any(isinstance(v, float) for v in direction):
            with pytest.raises(TypeError):
                _ray(direction)


class TestRayHits:
    def test_diagonal_of_x_plus_y(self):
        u = (Fraction(1, 2), Fraction(1, 2))
        report = ray_hits_support(lp("x + y"), u, 6)
        assert report.verdict == FOUND
        assert [m for m, _ in report.hits] == [2, 4, 6]
        assert report.first_hit == 2
        # every reported hit really lies on the ray and in the support
        p_m = lp("x + y")
        by_m = {}
        for m, lam in report.hits:
            by_m.setdefault(m, []).append(lam)
        for m in range(1, 7):
            for lam in by_m.get(m, []):
                assert _ray(u)(lam)
                assert p_m.coeff(lam) != 0
            p_m = p_m * lp("x + y")

    def test_one_plus_x(self):
        u = (Fraction(1, 2), Fraction(0))
        # every point of Supp((1 + x)^m) lies on the ray, the origin included
        hits = ray_hits_support(lp("1 + x"), u, 3).hits
        assert hits == tuple((m, (k, 0)) for m in (1, 2, 3) for k in range(m + 1))

    def test_requires_u_in_polytope(self):
        with pytest.raises(ValueError):
            ray_hits_support(lp("x + y"), (2, 2), 4)

    def test_inconclusive(self):
        # u = (1/3, 2/3): m*u is integral only at multiples of 3, and
        # (1, 2) etc. are in the support of (x + y)^m only when m = 3k
        u = (Fraction(1, 3), Fraction(2, 3))
        report = ray_hits_support(lp("x + y"), u, 2)
        assert report.verdict == INCONCLUSIVE
        assert report.first_hit is None


class TestHomogeneousDensity:
    def test_diagonal(self):
        u = (Fraction(1, 2), Fraction(1, 2))
        assert homogeneous_density(lp("x + y"), u, 8) == [2, 4, 6, 8]

    def test_vertex(self):
        assert homogeneous_density(lp("x + y"), (1, 0), 5) == [1, 2, 3, 4, 5]

    def test_sign_changes_do_not_cancel_at_vertex(self):
        u = (Fraction(0), Fraction(2))
        hits = homogeneous_density(lp("x^2 - y^2"), u, 4)
        assert hits == [1, 2, 3, 4]

    def test_rejects_inhomogeneous(self):
        with pytest.raises(ValueError):
            homogeneous_density(lp("1 + x"), (Fraction(1, 2), 0), 4)

    def test_rejects_non_positive_horizon(self):
        with pytest.raises(ValueError):
            homogeneous_density(lp("x + y"), (Fraction(1, 2), Fraction(1, 2)), 0)

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            homogeneous_density(lp("x*y^-1 + 1", ("x", "y")), (0, 0), 4)

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(2, 3), st.integers(-3, 3).filter(bool), st.integers(1, 5))
    def test_hits_match_oracle(self, data, arity, degree, horizon):
        # a homogeneous P of nonzero degree, negative exponents and negative
        # degrees included, and u a support point or the midpoint of two:
        # m is a hit iff m*u is an integer point whose coefficient in P^m,
        # multiplied out in Fractions, is nonzero
        head = st.tuples(*[st.integers(-3, 3)] * (arity - 1))
        expo = head.map(lambda h: h + (degree - sum(h),))
        coeff = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))
        terms = data.draw(st.dictionaries(expo, coeff, min_size=1, max_size=4))
        p = LaurentPoly(arity, terms)
        support = sorted(terms)
        s1, s2 = data.draw(st.sampled_from(support)), data.draw(st.sampled_from(support))
        u = tuple(Fraction(a + b, 2) for a, b in zip(s1, s2))
        expected, p_m = [], {(0,) * arity: Fraction(1)}
        for m in range(1, horizon + 1):
            p_m = fraction_mul(p_m, terms)
            mu = tuple(m * v for v in u)
            if all(v.denominator == 1 for v in mu) and p_m.get(tuple(map(int, mu))):
                expected.append(m)
        assert homogeneous_density(p, u, horizon) == expected


class TestDkCheck:
    def test_hypothesis_fails(self):
        report = dk_check(lp("x^-1 + x", ("x",)), 4)
        assert report.verdict == HYPOTHESIS_FAILS
        assert report.first_nonzero == 2
        assert report.constant_terms[1] == 2  # (x^-1 + x)^2 has middle term 2

    def test_consistent(self):
        report = dk_check(lp("x^-1", ("x",)), 6)
        assert report.verdict == CONSISTENT
        assert all(c == 0 for c in report.constant_terms)
        assert not report.zero_in_polytope

    def test_predicts_nonzero(self):
        # 0 in Poly(f) but no constant term at a small horizon
        f = lp("x^-1*y^-1 + x^2*y + x*y^2")
        report = dk_check(f, 4)
        assert report.zero_in_polytope
        assert report.verdict == PREDICTS_NONZERO

    def test_prediction_confirmed_later(self):
        # same f: the predicted nonzero constant term shows up at m = 5,
        # via 3*(-1,-1) + (2,1) + (1,2) = 0 with multinomial weight 20
        f = lp("x^-1*y^-1 + x^2*y + x*y^2")
        report = dk_check(f, 6)
        assert report.verdict == HYPOTHESIS_FAILS
        assert report.first_nonzero == 5
        assert report.constant_terms[4] == 20

    def test_z_beta_shift_construction(self):
        # ct(z^{-beta} P^N) picks out the coefficient of z^beta in P^N
        p = lp("x + y")
        beta = (2, 1)
        n = 3
        shifted = LaurentPoly.monomial(tuple(-b for b in beta)) * p ** n
        assert shifted.constant_term() == (p ** n).coeff(beta) == 3

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            dk_check(LaurentPoly.zero(2), 4)


class TestNoFloats:
    # Fraction(0.5) is exactly 1/2, so a float point used to slip through
    # as its binary expansion; each entry point now raises as the
    # polytope layer does
    def test_on_ray(self):
        with pytest.raises(TypeError, match="exact rational"):
            _ray((1, 1.0))

    def test_ray_hits_support(self):
        with pytest.raises(TypeError, match="exact rational"):
            ray_hits_support(lp("x^2 + y^2"), (0.5, 1.5), 3)

    def test_homogeneous_density(self):
        with pytest.raises(TypeError, match="exact rational"):
            homogeneous_density(lp("x^2 + y^2"), (0.5, 1.5), 3)
