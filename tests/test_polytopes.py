import random
from fractions import Fraction

import pytest

import vanishlab.polytopes
from fm_oracle import hull_meets_orthant
from vanishlab.parsing import parse_poly
from vanishlab.simplex import UNBOUNDED
from vanishlab.polytopes import (
    RationalPolytope,
    SeparationCertificate,
    Witness,
    contains_point,
    difference_decomposition,
    minkowski_diff,
    moveaway_bound,
    newton_polytope,
    orthant_meet,
    scale_translate,
)


def F(v):
    return Fraction(v)


class TestBasics:
    def test_newton_polytope(self):
        p = parse_poly("x^2 + y^2 + x*y", ["x", "y"])
        sigma = newton_polytope(p)
        assert set(sigma.generators) == {(2, 0), (0, 2), (1, 1)}
        with pytest.raises(ValueError):
            newton_polytope(parse_poly("0", ["x", "y"]))

    def test_contains_point(self):
        tri = RationalPolytope([(0, 0), (2, 0), (0, 2)])
        coeffs = contains_point(tri, (Fraction(1, 2), Fraction(1, 2)))
        assert coeffs is not None
        # the coefficients really reconstruct the point
        pt = tuple(
            sum(c * g[i] for c, g in zip(coeffs, tri.generators)) for i in range(2)
        )
        assert pt == (Fraction(1, 2), Fraction(1, 2))
        assert sum(coeffs) == 1 and all(c >= 0 for c in coeffs)
        assert contains_point(tri, (3, 0)) is None
        assert contains_point(tri, (-1, 0)) is None

    def test_same_set_ignores_redundant_generators(self):
        a = RationalPolytope([(0, 0), (2, 0), (0, 2)])
        b = RationalPolytope([(0, 0), (2, 0), (0, 2), (1, 0), (Fraction(1, 2), Fraction(1, 2))])
        assert a.same_set(b) and b.same_set(a)
        assert not a.same_set(RationalPolytope([(0, 0), (1, 0), (0, 1)]))

    def test_minkowski_diff(self):
        a = RationalPolytope([(1, 0), (0, 1)])
        b = RationalPolytope([(1, 1)])
        d = minkowski_diff(a, b)
        assert set(d.generators) == {(0, -1), (-1, 0)}

    def test_scale_translate(self):
        sigma = RationalPolytope([(-2, 1), (1, -2)])
        moved = scale_translate(sigma, 2, (3, 3))
        assert set(moved.generators) == {(-1, 5), (5, -1)}


class TestOrthantMeet:
    def test_certificate_worked_example(self):
        sigma = RationalPolytope([(-2, 1), (1, -2)])
        meet = orthant_meet(sigma)
        assert isinstance(meet, SeparationCertificate)
        assert meet.delta == Fraction(1, 2)
        assert meet.verify(sigma)

    def test_witness_example(self):
        sigma = RationalPolytope([(-1, 2), (2, -1)])
        meet = orthant_meet(sigma)
        assert isinstance(meet, Witness)
        assert all(v >= 0 for v in meet.point)
        assert contains_point(sigma, meet.point) is not None

    def test_single_negative_generator(self):
        meet = orthant_meet(RationalPolytope([(-1, -1)]))
        assert isinstance(meet, SeparationCertificate)
        assert meet.delta == 1
        assert meet.verify(RationalPolytope([(-1, -1)]))

    def test_origin_is_a_witness(self):
        meet = orthant_meet(RationalPolytope([(0, 0), (-1, -1)]))
        assert isinstance(meet, Witness)

    @pytest.mark.parametrize("gens, kind", [
        ([(-2, 1), (1, -2)], SeparationCertificate),
        ([(-1, 2), (2, -1)], Witness),
        # more generators than rows: they only add columns
        ([(-2, 1), (1, -2), (-1, -1), (0, -3), (-3, 0)], SeparationCertificate),
        ([(-1, 2), (2, -1), (-3, -3), (1, 1), (0, 5)], Witness),
    ])
    def test_one_lp_per_query(self, gens, kind, monkeypatch):
        solve_lp = vanishlab.polytopes.solve_lp
        calls = []

        def counting(*args):
            calls.append(args)
            return solve_lp(*args)

        monkeypatch.setattr(vanishlab.polytopes, "solve_lp", counting)
        assert isinstance(orthant_meet(RationalPolytope(gens)), kind)
        assert len(calls) == 1
        rows, _, _ = calls[0]
        assert len(rows) == len(gens[0]) + 1

    @pytest.mark.parametrize("gens, tamper", [
        # a certificate whose margin is too large
        ([(-2, 1), (1, -2)], lambda s, x, v, r: (s, x, v * 2, r)),
        # witness weights that sum to 2
        ([(-1, 2), (2, -1)], lambda s, x, v, r: (s, [2 * c for c in x], v, r)),
        ([(-1, 2), (2, -1)], lambda s, x, v, r: (UNBOUNDED, None, None, None)),
    ], ids=["certificate", "witness", "status"])
    def test_invalid_answer_raises(self, gens, tamper, monkeypatch):
        solve_lp = vanishlab.polytopes.solve_lp
        monkeypatch.setattr(vanishlab.polytopes, "solve_lp",
                            lambda *args: tamper(*solve_lp(*args)))
        with pytest.raises(RuntimeError):
            orthant_meet(RationalPolytope(gens))

    def test_witness_maximizes_smallest_coordinate(self):
        sigma = RationalPolytope([(-1, -2), (2, 0), (0, 1), (0, 0), (-3, 2)])
        assert orthant_meet(sigma) == Witness(point=(Fraction(2, 3), Fraction(2, 3)))

    def test_tampered_certificate_rejected(self):
        sigma = RationalPolytope([(-2, 1), (1, -2)])
        meet = orthant_meet(sigma)
        bad = SeparationCertificate(c=meet.c, delta=meet.delta * 2)
        assert not bad.verify(sigma)

    def test_agrees_with_fm_oracle_randomized(self):
        rng = random.Random(2024)
        for _ in range(200):
            n = rng.randrange(1, 4)
            k = rng.randrange(1, 6)
            gens = [tuple(rng.randrange(-3, 4) for _ in range(n)) for _ in range(k)]
            sigma = RationalPolytope(gens)
            meet = orthant_meet(sigma)
            expected = hull_meets_orthant(gens)
            if expected:
                assert isinstance(meet, Witness)
                assert all(v >= 0 for v in meet.point)
                assert contains_point(sigma, meet.point) is not None
                # no point of the polytope has a larger smallest coordinate
                t = min(meet.point) + Fraction(1, 1000)
                assert not hull_meets_orthant([tuple(v - t for v in g) for g in gens])
            else:
                assert isinstance(meet, SeparationCertificate)
                assert meet.verify(sigma)
                # no functional has a larger margin: the generators shifted by
                # delta reach the orthant
                assert hull_meets_orthant([tuple(v + meet.delta for v in g) for g in gens])


class TestMoveAway:
    def test_worked_example(self):
        sigma = RationalPolytope([(-2, 1), (1, -2)])
        cert = orthant_meet(sigma)
        assert moveaway_bound((3, 3), sigma, cert) == 7
        assert moveaway_bound((0, 1), sigma, cert) == 2

    def test_bound_is_at_least_one(self):
        sigma = RationalPolytope([(-1, -1)])
        cert = orthant_meet(sigma)
        assert moveaway_bound((0, 0), sigma, cert) == 1

    @pytest.mark.parametrize("beta", [(3,), (3, 3, 100)])
    def test_rejects_beta_of_another_dimension(self, beta):
        sigma = RationalPolytope([(-2, 1), (1, -2)])
        cert = orthant_meet(sigma)
        with pytest.raises(ValueError, match="coordinates"):
            moveaway_bound(beta, sigma, cert)

    def test_bound_is_sound(self):
        # beyond N the translated-scaled polytope must miss the orthant
        sigma = RationalPolytope([(-2, 1), (1, -2)])
        cert = orthant_meet(sigma)
        n = moveaway_bound((3, 3), sigma, cert)
        for m in range(n, n + 4):
            moved = scale_translate(sigma, m, (3, 3))
            assert isinstance(orthant_meet(moved), SeparationCertificate)

    def test_tightness_at_example(self):
        # at m = N - 1 = 6 the intersection is still nonempty
        sigma = RationalPolytope([(-2, 1), (1, -2)])
        moved = scale_translate(sigma, 6, (3, 3))
        assert isinstance(orthant_meet(moved), Witness)

    def test_rejects_invalid_certificate(self):
        sigma = RationalPolytope([(-2, 1), (1, -2)])
        with pytest.raises(ValueError):
            moveaway_bound((3, 3), sigma, SeparationCertificate((F(1), F(0)), F(5)))


class TestDifferenceDecomposition:
    def test_roundtrip(self):
        a = RationalPolytope([(2, 0), (0, 2)])
        b = RationalPolytope([(1, 1)])
        w = (1, -1)
        pair = difference_decomposition(a, b, w)
        assert pair is not None
        u, v = pair
        assert contains_point(a, u) is not None
        assert contains_point(b, v) is not None
        assert tuple(x - y for x, y in zip(u, v)) == (1, -1)

    def test_outside(self):
        a = RationalPolytope([(2, 0), (0, 2)])
        b = RationalPolytope([(1, 1)])
        assert difference_decomposition(a, b, (5, 5)) is None

    def test_randomized_roundtrip(self):
        rng = random.Random(31)
        for _ in range(50):
            ga = [tuple(rng.randrange(-3, 4) for _ in range(2)) for _ in range(3)]
            gb = [tuple(rng.randrange(-3, 4) for _ in range(2)) for _ in range(3)]
            a, b = RationalPolytope(ga), RationalPolytope(gb)
            # pick w as an actual difference of generators, so it must decompose
            w = tuple(x - y for x, y in zip(ga[0], gb[0]))
            pair = difference_decomposition(a, b, w)
            assert pair is not None
            u, v = pair
            assert contains_point(a, u) is not None
            assert contains_point(b, v) is not None
            assert tuple(x - y for x, y in zip(u, v)) == w


class TestNoFloats:
    # every geometry entry point takes exact rationals only; a float used to
    # be stored as its binary expansion, 0.1 as 3602879701896397/2**55
    SIGMA = RationalPolytope([(-2, 1), (1, -2)])

    def test_polytope_generators(self):
        with pytest.raises(TypeError, match="exact rational"):
            RationalPolytope([(0.1, 1), (-1, -1)])
        assert RationalPolytope([(F(1) / 10, 1), (-1, -1)]).generators[0] == (F(1) / 10, 1)

    def test_contains_point(self):
        tri = RationalPolytope([(0, 0), (2, 0), (0, 2)])
        with pytest.raises(TypeError, match="exact rational"):
            contains_point(tri, (0.5, 0.5))

    @pytest.mark.parametrize("m, beta", [(0.3, (0, 0)), (2, (0.5, 1)), (Fraction(3, 10), (1, 0.0))])
    def test_scale_translate(self, m, beta):
        with pytest.raises(TypeError, match="exact rational"):
            scale_translate(self.SIGMA, m, beta)

    def test_moveaway_bound(self):
        cert = orthant_meet(self.SIGMA)
        with pytest.raises(TypeError, match="exact rational"):
            moveaway_bound((3, 3.0), self.SIGMA, cert)
        assert moveaway_bound((3, F(3)), self.SIGMA, cert) == 7

    def test_difference_decomposition(self):
        a = RationalPolytope([(2, 0), (0, 2)])
        b = RationalPolytope([(1, 1)])
        with pytest.raises(TypeError, match="exact rational"):
            difference_decomposition(a, b, (0.0, 0))
