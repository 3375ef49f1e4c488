import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vanishlab.polytopes
from counting import fractions_built
from fm_oracle import hull_meets_orthant
from paper_oracle import fraction_verify, generators, same_set, scale_translate
from simplex_oracle import (
    orthant_lp,
    orthant_start,
    rational_lp,
    rational_result,
    solve_lp as oracle_solve_lp,
    start_tableau,
)
from vanishlab.parsing import parse_poly
from vanishlab.simplex import OPTIMAL, UNBOUNDED
from vanishlab.polytopes import (
    RationalPolytope,
    SeparationCertificate,
    Witness,
    contains_point,
    in_polytope,
    minkowski_diff,
    moveaway_bound,
    newton_polytope,
    orthant_meet,
    witness_pair,
)


def F(v):
    return Fraction(v)


class TestBasics:
    def test_newton_polytope(self):
        p = parse_poly("x^2 + y^2 + x*y", ["x", "y"])
        sigma = newton_polytope(p)
        assert set(generators(sigma)) == {(2, 0), (0, 2), (1, 1)}
        with pytest.raises(ValueError):
            newton_polytope(parse_poly("0", ["x", "y"]))

    def test_contains_point(self):
        tri = RationalPolytope([(0, 0), (2, 0), (0, 2)])
        coeffs = contains_point(tri, (Fraction(1, 2), Fraction(1, 2)))
        assert coeffs is not None
        # the coefficients really reconstruct the point
        pt = tuple(
            sum(c * g[i] for c, g in zip(coeffs, generators(tri))) for i in range(2)
        )
        assert pt == (Fraction(1, 2), Fraction(1, 2))
        assert sum(coeffs) == 1 and all(c >= 0 for c in coeffs)
        assert contains_point(tri, (3, 0)) is None
        assert contains_point(tri, (-1, 0)) is None

    def test_same_set_ignores_redundant_generators(self):
        a = RationalPolytope([(0, 0), (2, 0), (0, 2)])
        b = RationalPolytope([(0, 0), (2, 0), (0, 2), (1, 0), (Fraction(1, 2), Fraction(1, 2))])
        assert same_set(a, b) and same_set(b, a)
        assert not same_set(a, RationalPolytope([(0, 0), (1, 0), (0, 1)]))

    def test_minkowski_diff(self):
        a = RationalPolytope([(1, 0), (0, 1)])
        b = RationalPolytope([(1, 1)])
        d = minkowski_diff(a, b)
        assert set(generators(d)) == {(0, -1), (-1, 0)}

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_minkowski_diff_matches_fraction_rows(self, data):
        # the integer rows over the shared denominator give the polytope the
        # sorted, deduplicated Fraction differences give, in the same storage
        n = data.draw(st.integers(1, 4))
        ga = data.draw(generator_lists(n, max_size=5))
        gb = data.draw(generator_lists(n, max_size=5))
        got = minkowski_diff(RationalPolytope(ga), RationalPolytope(gb))
        want = RationalPolytope(sorted({tuple(F(u) - F(v) for u, v in zip(g, h))
                                        for g in ga for h in gb}))
        assert (got.arity, got.nums, got.den) == (want.arity, want.nums, want.den)
        assert generators(got) == generators(want)

    def test_scale_translate(self):
        sigma = RationalPolytope([(-2, 1), (1, -2)])
        moved = scale_translate(sigma, 2, (3, 3))
        assert set(generators(moved)) == {(-1, 5), (5, -1)}


class TestOrthantMeet:
    def test_certificate_worked_example(self):
        sigma = RationalPolytope([(-2, 1), (1, -2)])
        meet = orthant_meet(sigma)
        assert isinstance(meet, SeparationCertificate)
        assert meet.delta == Fraction(1, 2)
        assert fraction_verify(meet, generators(sigma))

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
        assert fraction_verify(meet, [(-1, -1)])

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
        # one phase 2 from the written-down start tableau, and no solve_lp
        phase_two = vanishlab.polytopes.phase_two
        calls, solves = [], []

        def counting(tableau, basis, d):
            calls.append(([list(row) for row in tableau], list(basis), d))
            return phase_two(tableau, basis, d)

        monkeypatch.setattr(vanishlab.polytopes, "phase_two", counting)
        monkeypatch.setattr(vanishlab.polytopes, "solve_lp", lambda *args: solves.append(args))
        assert isinstance(orthant_meet(RationalPolytope(gens)), kind)
        assert len(calls) == 1 and solves == []
        (tableau, basis, d), = calls
        # n + 1 constraint rows and the objective row, one basic column per
        # constraint row, over k + 2 + n columns and the right-hand side
        n, k = len(gens[0]), len(gens)
        assert len(tableau) == n + 2 and len(basis) == n + 1 and d == 1
        assert all(len(row) == k + 2 + n + 1 for row in tableau)

    @pytest.mark.parametrize("gens, tamper", [
        # a certificate whose margin is too large: the value (num, den) doubled
        ([(-2, 1), (1, -2)], lambda s, x, v, r: (s, x, (v[0] * 2, v[1]), r)),
        # witness weights that sum to 2: x's numerators doubled over the same den
        ([(-1, 2), (2, -1)], lambda s, x, v, r: (s, ([2 * c for c in x[0]], x[1]), v, r)),
        ([(-1, 2), (2, -1)], lambda s, x, v, r: (UNBOUNDED, None, None, None)),
        # weights -1 and 2, which sum to 1 and give the point (2, 2) >= 0
        ([(0, 0), (1, 1)], lambda s, x, v, r: (s, ([-x[1], 2 * x[1], *x[0][2:]], x[1]), v, r)),
        # weights 1 and 0, which give the point (-1, 2)
        ([(-1, 2), (2, -1)], lambda s, x, v, r: (s, ([x[1], 0, *x[0][2:]], x[1]), v, r)),
    ], ids=["certificate", "witness", "status", "negative-weight", "negative-point"])
    def test_invalid_answer_raises(self, gens, tamper, monkeypatch):
        phase_two = vanishlab.polytopes.phase_two
        monkeypatch.setattr(vanishlab.polytopes, "phase_two",
                            lambda *args: tamper(*phase_two(*args)))
        with pytest.raises(RuntimeError):
            orthant_meet(RationalPolytope(gens))

    @pytest.mark.parametrize("gens, kind", [
        ([(1,)], Witness),
        ([(-1, 2), (2, -1)], Witness),
        ([(-1, -2), (2, 0), (0, 1), (0, 0), (-3, 2)], Witness),
        ([(0, 0, 0), (-1, 3, 5)], Witness),
        ([(-1,)], SeparationCertificate),
        ([(-2, 1), (1, -2)], SeparationCertificate),
        ([(-2, 1, 0), (1, -2, -1), (-1, -1, -1)], SeparationCertificate),
        ([(-1, 2, -3, 0), (2, -1, -1, -5)], SeparationCertificate),
    ])
    def test_fractions_only_for_the_answer(self, gens, kind):
        # on an integer polytope the LP and every check run in integers: the
        # only Fractions are the answer's, a witness's n coordinates (its
        # weights stay integers over the LP's denominator), or a
        # certificate's n coordinates of c and its delta
        sigma = RationalPolytope(gens)
        meet, built = fractions_built(lambda: orthant_meet(sigma))
        assert isinstance(meet, kind)
        if kind is Witness:
            assert len(meet.weights[0]) == len(gens)
            assert built == sigma.arity
        else:
            assert built == sigma.arity + 1

    def test_witness_maximizes_smallest_coordinate(self):
        sigma = RationalPolytope([(-1, -2), (2, 0), (0, 1), (0, 0), (-3, 2)])
        assert orthant_meet(sigma) == Witness(point=(Fraction(2, 3), Fraction(2, 3)),
                                              weights=((0, 1, 2, 0, 0), 3))

    def test_tampered_certificate_rejected(self):
        sigma = RationalPolytope([(-2, 1), (1, -2)])
        meet = orthant_meet(sigma)
        bad = SeparationCertificate(c=meet.c, delta=meet.delta * 2)
        assert not fraction_verify(bad, generators(sigma))
        with pytest.raises(ValueError, match="invalid separation certificate"):
            moveaway_bound((0, 0), sigma, bad)

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
                assert fraction_verify(meet, generators(sigma))
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


class TestWitnessPair:
    # Poly(P) and Poly(Lambda) for P = x^3 + x*y^2 and Lambda = d_x + d_x^2;
    # A - B has the generators (-1,2), (0,2), (1,0), (2,0)
    A, B = RationalPolytope([(1, 2), (3, 0)]), RationalPolytope([(1, 0), (2, 0)])

    def test_split_weights(self):
        # the orthant LP puts 1/2 on (0,2) = (1,2) - (1,0) and on (2,0) =
        # (3,0) - (1,0), as 2/4 over its denominator: u = (2,1) and v = (1,0),
        # built as 2n Fractions
        meet = orthant_meet(minkowski_diff(self.A, self.B))
        assert meet == Witness(point=(1, 1), weights=((0, 2, 0, 2), 4))
        assert fractions_built(lambda: witness_pair(self.A, self.B, meet)) == (((2, 1), (1, 0)), 4)

    @pytest.mark.parametrize("point, weights", [
        # u - v is the point, but the weights sum to 2
        ((2, 2), ((0, 1, 0, 1), 1)),
        # -1/2, 1, 1/2 and 0 sum to 1 and give the point
        ((1, 1), ((-1, 2, 1, 0), 2)),
        # convex, but they give (0, 2)
        ((1, 1), ((0, 1, 0, 0), 1)),
        # one weight more than A - B has generators
        ((1, 1), ((0, 1, 0, 1, 0), 2)),
        # the weights 0 over 0: no denominator
        ((0, 0), ((0, 0, 0, 0), 0)),
    ], ids=["sum", "negative-weight", "point", "length", "zero-denominator"])
    def test_weights_that_do_not_give_the_point_raise(self, point, weights):
        with pytest.raises(RuntimeError):
            witness_pair(self.A, self.B, Witness(point=point, weights=weights))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_pair_lies_in_a_and_b(self, data):
        # for any A and B, over mixed denominators, with B moved half the
        # time so that A - B holds 0
        n = data.draw(st.integers(1, 4))
        ga = data.draw(generator_lists(n, max_size=5))
        gb = data.draw(generator_lists(n, max_size=5))
        if data.draw(st.booleans()):
            gb = [tuple(F(v) - w + u for v, w, u in zip(g, gb[0], ga[0])) for g in gb]
        a, b = RationalPolytope(ga), RationalPolytope(gb)
        meet = orthant_meet(minkowski_diff(a, b))
        if isinstance(meet, Witness):
            u, v = witness_pair(a, b, meet)
            assert in_polytope(a, u) and in_polytope(b, v)
            assert tuple(p - q for p, q in zip(u, v)) == meet.point


class TestCheckedWeights:
    # the membership LP's weights are checked in integers before any
    # Fraction is built: a wrong answer from the simplex raises
    @pytest.mark.parametrize("gens, point, tamper", [
        # weights that sum to 2
        ([(0, 0), (2, 0), (0, 2)], (F(1) / 2, F(1) / 2),
         lambda s, x, v, r: (s, ([2 * c for c in x[0]], x[1]), v, r)),
        # all the weight on (0, 0): convex, but another point
        ([(0, 0), (2, 0), (0, 2)], (F(1) / 2, F(1) / 2),
         lambda s, x, v, r: (s, ([x[1], 0, 0], x[1]), v, r)),
        # weights 1, -1 and 1: they sum to 1 and give the point (1, 0)
        ([(0, 0), (1, 0), (2, 0)], (1, 0), lambda s, x, v, r: (s, ([x[1], -x[1], x[1]], x[1]), v, r)),
    ], ids=["sum", "point", "negative-weight"])
    def test_membership_answer_checked(self, gens, point, tamper, monkeypatch):
        sigma = RationalPolytope(gens)
        assert in_polytope(sigma, point)
        solve_lp = vanishlab.polytopes.solve_lp
        monkeypatch.setattr(vanishlab.polytopes, "solve_lp",
                            lambda *args: tamper(*solve_lp(*args)))
        with pytest.raises(RuntimeError):
            contains_point(sigma, point)
        with pytest.raises(RuntimeError):
            in_polytope(sigma, point)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_in_polytope_is_contains_point(self, data):
        gens = data.draw(generator_lists())
        sigma = RationalPolytope(gens)
        if data.draw(st.booleans()):
            point = data.draw(st.sampled_from(gens))
        else:
            point = data.draw(st.tuples(*[COORDS] * sigma.arity))
        assert in_polytope(sigma, point) == (contains_point(sigma, point) is not None)

    def test_in_polytope_builds_no_fraction(self):
        # on integer input the LP and its check run in integers, and no
        # weight is built
        tri = RationalPolytope([(0, 0), (2, 0), (0, 2)])
        assert fractions_built(lambda: in_polytope(tri, (1, 1))) == (True, 0)
        assert fractions_built(lambda: in_polytope(tri, (3, 0))) == (False, 0)
        with pytest.raises(ValueError, match="arity"):
            in_polytope(tri, (1,))


class TestNoFloats:
    # every geometry entry point takes exact rationals only; a float used to
    # be stored as its binary expansion, 0.1 as 3602879701896397/2**55
    SIGMA = RationalPolytope([(-2, 1), (1, -2)])

    def test_polytope_generators(self):
        with pytest.raises(TypeError, match="exact rational"):
            RationalPolytope([(0.1, 1), (-1, -1)])
        assert generators(RationalPolytope([(F(1) / 10, 1), (-1, -1)]))[0] == (F(1) / 10, 1)

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


# ---------------------------------------------------------------------------
# The integer rows the polytope layer sends against the Fraction rows it sent
# before: rationally the same LP, so the oracle gives the same answer

COORDS = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=6))
# few values, so that coordinates and generators tie often
TIE_COORDS = st.sampled_from([-2, -1, 0, 1, Fraction(-1, 2), Fraction(2, 3)])


@st.composite
def generator_lists(draw, n=None, max_size=12):
    n = draw(st.integers(1, 5)) if n is None else n
    return draw(st.lists(st.tuples(*[COORDS] * n), min_size=1, max_size=max_size))


@st.composite
def tied_generator_lists(draw, n=None, max_size=12):
    """Generators drawn with repetition from a pool of at most four points
    whose coordinates often repeat: duplicates and ties on both the best
    generator and its smallest coordinate."""
    n = draw(st.integers(1, 5)) if n is None else n
    pool = draw(st.lists(st.tuples(*[st.one_of(TIE_COORDS, COORDS)] * n),
                         min_size=1, max_size=4))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=max_size))


def fraction_membership_lp(gens, point):
    k = len(gens)
    rows = [[F(g[i]) for g in gens] for i in range(len(point))] + [[F(1)] * k]
    return rows, [F(v) for v in point] + [F(1)], [F(0)] * k


def sent_lps(monkeypatch):
    """Record, as Fraction LPs, every LP the polytope layer hands solve_lp,
    with the result solve_lp returned for it."""
    solve_lp = vanishlab.polytopes.solve_lp
    sent = []

    def recording(rows, rhs, objective, dens=None):
        result = solve_lp(rows, rhs, objective, dens)
        sent.append((rational_lp(rows, rhs, objective, dens), result))
        return result

    monkeypatch.setattr(vanishlab.polytopes, "solve_lp", recording)
    return sent


def assert_sent(sent, expected):
    """The one LP sent is ``expected``, and the oracle returns exactly the
    same answer for it."""
    (lp, result), = sent
    assert lp == expected
    assert rational_result(result) == oracle_solve_lp(*expected)
    sent.clear()
    return result


@st.composite
def start_polytopes(draw):
    """Generators in Q^1..Q^6, with p/q coordinates, duplicates and ties for
    j* and i*, moved so that the start's m = min(u_j*) is negative, zero or
    positive: adding one constant to every coordinate keeps j* and i*."""
    n = draw(st.integers(1, 6))
    gens = draw(st.one_of(generator_lists(n, max_size=8), tied_generator_lists(n, max_size=8)))
    m = max(min(map(F, g)) for g in gens)
    target = draw(st.sampled_from([Fraction(-3, 2), F(-1), F(0), Fraction(2, 3), F(2)]))
    return [tuple(F(v) - m + target for v in g) for g in gens]


class TestIntegerRows:
    @settings(max_examples=300, deadline=None)
    @given(start_polytopes())
    @example([(Fraction(-1, 2),)])
    @example([(0, 0)])
    @example([(3, Fraction(1, 3), 2)])
    @example([(1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6)])
    def test_closed_form_start_tableau(self, gens):
        # the tableau orthant_meet writes down is, entry for entry, d = den^n
        # times the oracle's Gauss-Jordan tableau at the oracle's start,
        # objective row included
        sigma = RationalPolytope(gens)
        tableau, basis, d = vanishlab.polytopes._orthant_tableau(sigma)
        assert d == sigma.den ** sigma.arity
        want, want_basis, objective_row = start_tableau(*orthant_lp(gens), orthant_start(gens))
        assert basis == want_basis
        assert all(type(v) is int for row in tableau for v in row)
        assert [[Fraction(v, d) for v in row] for row in tableau] == want + [objective_row]

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(generator_lists(), tied_generator_lists()))
    def test_orthant_meet(self, gens):
        # phase 2 from the written-down start gives the oracle's answer from
        # the oracle's start, and t the two-phase oracle's: the optimal value
        # is unique even where the optimum is tied
        phase_two = vanishlab.polytopes.phase_two
        results = []

        def recording(*args):
            results.append(phase_two(*args))
            return results[-1]

        with pytest.MonkeyPatch.context() as mp:
            sent = sent_lps(mp)
            mp.setattr(vanishlab.polytopes, "phase_two", recording)
            meet = orthant_meet(RationalPolytope(gens))
        lp = orthant_lp(gens)
        result, = results
        assert sent == []
        assert rational_result(result) == oracle_solve_lp(*lp, start=orthant_start(gens))
        status, _, t, _ = rational_result(result)
        assert status == OPTIMAL
        assert t == oracle_solve_lp(*lp)[2]
        if isinstance(meet, Witness):
            assert t >= 0 and min(meet.point) == t
            # the weights are convex, one per generator, and give the point
            wn, wd = meet.weights
            assert len(wn) == len(gens)
            assert wd > 0 and sum(wn) == wd and min(wn) >= 0
            assert tuple(sum(Fraction(w, wd) * F(g[i]) for w, g in zip(wn, gens))
                         for i in range(len(gens[0]))) == meet.point
        else:
            assert t < 0 and meet.delta == -t

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_contains_point(self, data):
        gens = data.draw(generator_lists())
        n = len(gens[0])
        weights = data.draw(st.lists(st.integers(0, 3), min_size=len(gens), max_size=len(gens)))
        if sum(weights) and data.draw(st.booleans()):
            # a convex combination: inside
            point = tuple(sum(F(w) * g[i] for w, g in zip(weights, gens)) / sum(weights)
                          for i in range(n))
        else:
            point = data.draw(st.tuples(*[COORDS] * n))
        with pytest.MonkeyPatch.context() as mp:
            sent = sent_lps(mp)
            coeffs = contains_point(RationalPolytope(gens), point)
        assert_sent(sent, fraction_membership_lp(gens, point))
        if coeffs is not None:
            assert tuple(sum(c * F(g[i]) for c, g in zip(coeffs, gens))
                         for i in range(n)) == tuple(map(F, point))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_orthant_start_agrees_with_fm_oracle(self, data):
        # Fourier-Motzkin grows doubly exponentially with the generators it
        # eliminates: at most five distinct ones in Q^1..Q^3 keep it in
        # tenths of a second
        n = data.draw(st.integers(1, 3))
        gens = data.draw(st.one_of(generator_lists(n, max_size=5),
                                   tied_generator_lists(n, max_size=8)))
        meet = orthant_meet(RationalPolytope(gens))
        assert isinstance(meet, Witness) == hull_meets_orthant(sorted(set(gens)))

    def test_storage(self):
        sigma = RationalPolytope([(Fraction(1, 2), -1), (Fraction(-5, 4), Fraction(2, 3))])
        assert generators(sigma) == ((Fraction(1, 2), F(-1)), (Fraction(-5, 4), Fraction(2, 3)))
        assert (sigma.nums, sigma.den) == (((6, -12), (-15, 8)), 12)
        assert (RationalPolytope([(2, 0)]).nums, RationalPolytope([(2, 0)]).den) == (((2, 0),), 1)
        # integer generators are kept as they are
        rows = ((2, 0), (-1, 3))
        sigma = RationalPolytope(rows)
        assert (sigma.nums, sigma.den) == (rows, 1)
        assert [type(v) for g in generators(sigma) for v in g] == [Fraction] * 4
        with pytest.raises(AttributeError):
            sigma.nums = ()
        # integral Fractions, bools and lists reach the same storage
        assert RationalPolytope([[F(4) / 2, True]]).nums == ((2, 1),)
        assert repr(sigma) == "RationalPolytope[(2,0); (-1,3)]"
        assert repr(RationalPolytope([(Fraction(1, 2), -1)])) == "RationalPolytope[(1/2,-1)]"

    @pytest.mark.parametrize("gens", [[()], [(), ()], [(F(1),), ()], [(), (1,)]])
    def test_zero_coordinate_generator(self, gens):
        with pytest.raises(ValueError):
            RationalPolytope(gens)

    @settings(max_examples=200, deadline=None)
    @given(generator_lists())
    def test_integer_storage_is_the_fraction_storage(self, gens):
        # the storage the constructor built from Fractions: nums over the lcm
        # of the denominators, in the input's order
        fractions = [tuple(map(F, g)) for g in gens]
        den = lcm(*(v.denominator for g in fractions for v in g))
        expected = tuple(tuple(v.numerator * (den // v.denominator) for v in g) for g in fractions)
        for sigma in (RationalPolytope(gens), RationalPolytope(fractions)):
            assert (sigma.nums, sigma.den) == (expected, den)
            assert generators(sigma) == tuple(fractions)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_minkowski_diff(self, data):
        # against the difference of the Fraction generators, sorted and
        # deduplicated as minkowski_diff did it
        n = data.draw(st.integers(1, 4))
        a = RationalPolytope(data.draw(generator_lists(n, max_size=6)))
        b = RationalPolytope(data.draw(generator_lists(n, max_size=6)))
        expected = RationalPolytope(sorted({tuple(u - v for u, v in zip(ga, gb))
                                            for ga in generators(a) for gb in generators(b)}))
        got = minkowski_diff(a, b)
        assert (got.nums, got.den) == (expected.nums, expected.den)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_moveaway_bound(self, data):
        # against floor((c.beta) / delta) + 1 in Fractions, at least 1
        gens = data.draw(generator_lists())
        sigma = RationalPolytope(gens)
        cert = orthant_meet(sigma)
        if isinstance(cert, Witness):
            return
        beta = data.draw(st.tuples(*[COORDS] * sigma.arity))
        cb = sum(c * F(v) for c, v in zip(cert.c, beta))
        assert moveaway_bound(beta, sigma, cert) == max(1, (cb / cert.delta).__floor__() + 1)


# ---------------------------------------------------------------------------
# The integer certificate check against the Fraction one it replaced

def tampered(cert):
    """Certificates that must all fail: a margin raised by 1/10**6, a
    negative entry with the sum kept at 1, a sum of 2, and wrong lengths."""
    c, delta = list(cert.c), cert.delta
    out = [SeparationCertificate(tuple(c), delta + Fraction(1, 10**6)),
           SeparationCertificate(tuple(2 * v for v in c), delta),
           SeparationCertificate(tuple(c) + (F(0),), delta),
           SeparationCertificate(tuple(c[:-1]), delta)]
    if len(c) > 1:
        out.append(SeparationCertificate((F(-1), c[1] + c[0] + 1, *c[2:]), delta))
    return out


def accepted(cert, sigma):
    """Whether `moveaway_bound` takes the certificate for sigma."""
    try:
        moveaway_bound((0,) * sigma.arity, sigma, cert)
    except ValueError:
        return False
    return True


class TestIntegerVerify:
    # moveaway_bound checks a certificate in integers before it uses it: it
    # takes exactly the certificates that the Fraction check accepts
    @settings(max_examples=200, deadline=None)
    @given(generator_lists())
    def test_lp_certificates_and_tampered_ones(self, gens):
        sigma = RationalPolytope(gens)
        meet = orthant_meet(sigma)
        if isinstance(meet, Witness):
            return
        assert accepted(meet, sigma) and fraction_verify(meet, gens)
        for bad in tampered(meet):
            assert not accepted(bad, sigma)
            assert not fraction_verify(bad, gens)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_certificates(self, data):
        gens = data.draw(generator_lists())
        n = len(gens[0])
        raw = data.draw(st.lists(st.integers(-1, 4), min_size=n, max_size=n))
        c = tuple(Fraction(v, sum(raw)) for v in raw) if sum(raw) else tuple(map(F, raw))
        delta = data.draw(st.one_of(st.integers(-1, 3), st.fractions(-1, 3, max_denominator=6)))
        cert = SeparationCertificate(c, delta)
        assert accepted(cert, RationalPolytope(gens)) == fraction_verify(cert, gens)

    def test_integer_entries(self):
        sigma = RationalPolytope([(-1, Fraction(-1, 2)), (Fraction(-3, 2), 5)])
        assert accepted(SeparationCertificate((1, 0), 1), sigma)
        assert not accepted(SeparationCertificate((1, 0), Fraction(11, 10)), sigma)
        assert not accepted(SeparationCertificate((0, 1), Fraction(1, 2)), sigma)

    def test_rejects_floats(self):
        sigma = RationalPolytope([(-2, 1), (1, -2)])
        with pytest.raises(TypeError, match="exact rational"):
            moveaway_bound((3, 3), sigma, SeparationCertificate((0.5, Fraction(1, 2)),
                                                                Fraction(1, 2)))
        with pytest.raises(TypeError, match="exact rational"):
            moveaway_bound((3, 3), sigma, SeparationCertificate((Fraction(1, 2),
                                                                 Fraction(1, 2)), 0.5))

    @pytest.mark.parametrize("beta, c, delta, error", [
        # the certificate is checked first: its arity, then its numbers, then
        # its margin; beta after it
        ((3, 3), (1,), 0.5, ValueError),
        ((3, 3.0), (1, 0, 0), Fraction(1, 2), ValueError),
        ((3, 3), (0.5, 0.5), 1, TypeError),
        ((3,), (Fraction(1, 2),) * 2, 0.5, TypeError),
        ((3, 3.0), (F(1), F(0)), F(5), ValueError),
        ((3,), (F(1), F(0)), F(5), ValueError),
        ((3,), (Fraction(1, 2),) * 2, Fraction(1, 2), ValueError),
        ((3, 3.0), (Fraction(1, 2),) * 2, Fraction(1, 2), TypeError),
    ])
    def test_moveaway_bound_errors(self, beta, c, delta, error):
        sigma = RationalPolytope([(-2, 1), (1, -2)])
        with pytest.raises(error):
            moveaway_bound(beta, sigma, SeparationCertificate(c, delta))
