"""Acceptance gate: one criterion per test, one printed pass/fail line each.

Everything here is exact; timing limits are wall-clock budgets for the
whole criterion, not statistical estimates.
"""
import random
import time
from fractions import Fraction

from fm_oracle import hull_meets_orthant
from paper_oracle import binomial_gap_check, fraction_verify, scale_translate
from vanishlab.cases import (
    CONFIRMED,
    counterexample_ddv,
    counterexample_dk,
    one_var_check,
    phi_case_check,
)
from vanishlab.density import ray_hits_support
from vanishlab.diffops import DiffOp, apply
from vanishlab.poly import LaurentPoly
from vanishlab.polytopes import (
    RationalPolytope,
    SeparationCertificate,
    Witness,
    contains_point,
    moveaway_bound,
    orthant_meet,
)


def report(number, label, elapsed=None):
    suffix = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"criterion {number}: {label}: PASS{suffix}")


def random_nat_poly(rng, arity=2, max_deg=3, n_terms=3, allow_negative_coeffs=True):
    terms = {}
    lo = -3 if allow_negative_coeffs else 1
    for _ in range(n_terms):
        e = tuple(rng.randrange(max_deg + 1) for _ in range(arity))
        c = rng.randrange(lo, 4)
        if c == 0:
            c = 1
        terms[e] = terms.get(e, 0) + Fraction(c)
    p = LaurentPoly(arity, terms)
    return p if not p.is_zero else LaurentPoly.one(arity)


def test_criterion_1_ddv_counterexample():
    start = time.monotonic()
    report_obj = counterexample_ddv(6, 12)
    elapsed = time.monotonic() - start
    assert report_obj.ok
    assert [m for m, _ in report_obj.rows] == [1, 2, 3, 4, 5, 6]
    assert elapsed < 10
    report(1, "series counterexample with P = x + exp(y), m = 1..6, D = 12", elapsed)


def test_criterion_2_dk_counterexample():
    start = time.monotonic()
    report_obj = counterexample_dk(8, 12)
    elapsed = time.monotonic() - start
    assert report_obj.ok
    assert [m for m, _ in report_obj.rows] == [1, 2, 3, 4, 5, 6, 7, 8]
    assert elapsed < 10
    report(2, "constant-term counterexample f = (1 + exp(y)/x)/y, m = 1..8, D = 12", elapsed)


def test_criterion_3_orthant_meet_vs_elimination_oracle():
    rng = random.Random(1003)
    start = time.monotonic()
    checked = 0
    while checked < 500:
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
        else:
            assert isinstance(meet, SeparationCertificate)
            assert fraction_verify(meet, gens)
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60
    report(3, f"orthant_meet agrees with the elimination oracle on {checked} "
              "random polytopes, outputs re-verified", elapsed)


def test_criterion_4_moveaway_bounds():
    rng = random.Random(1004)
    start = time.monotonic()
    certified = 0
    while certified < 25:
        n = rng.randrange(1, 4)
        k = rng.randrange(1, 5)
        gens = [tuple(rng.randrange(-3, 4) for _ in range(n)) for _ in range(k)]
        sigma = RationalPolytope(gens)
        meet = orthant_meet(sigma)
        if not isinstance(meet, SeparationCertificate):
            continue
        beta = tuple(rng.randrange(5) for _ in range(n))
        bound = moveaway_bound(beta, sigma, meet)
        for m in range(bound, bound + 6):
            moved = scale_translate(sigma, m, beta)
            assert isinstance(orthant_meet(moved), SeparationCertificate)
        certified += 1
    # tightness spot check on the worked instance
    sigma = RationalPolytope([(-2, 1), (1, -2)])
    cert = orthant_meet(sigma)
    assert moveaway_bound((3, 3), sigma, cert) == 7
    assert isinstance(orthant_meet(scale_translate(sigma, 6, (3, 3))), Witness)
    elapsed = time.monotonic() - start
    report(4, "move-away bounds LP-verified on 25 certified instances, "
              "N = 7 tight at beta = (3,3)", elapsed)


def test_criterion_5_two_monomial_support_formula():
    rng = random.Random(1005)
    done = 0
    while done < 20:
        n = rng.randrange(1, 4)
        alpha = tuple(rng.randrange(4) for _ in range(n))
        beta = tuple(rng.randrange(4) for _ in range(n))
        if sum(alpha) == sum(beta):
            continue
        a = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        b = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        sym = LaurentPoly(n, {alpha: a}) + LaurentPoly(n, {beta: b})
        for m in range(1, 6):
            expected = {
                tuple(k * x + (m - k) * y for x, y in zip(alpha, beta))
                for k in range(m + 1)
            }
            assert set((sym ** m).terms) == expected
        done += 1
    report(5, "Supp((a*d^alpha + b*d^beta)^m) formula on 20 random pairs, m <= 5")


def test_criterion_6_one_var_random():
    rng = random.Random(1006)
    for _ in range(50):
        d = rng.randrange(7)
        m1 = d + 1 + rng.randrange(3)
        # symbol xi^m1 * (1 + q(xi)) with q a random zero-constant-term poly
        q = {0: Fraction(1)}
        for _ in range(rng.randrange(3)):
            q[1 + rng.randrange(3)] = Fraction(rng.randrange(-3, 4))
        lam = LaurentPoly(1, {(m1,): 1}) * LaurentPoly(1, {(k,): c for k, c in q.items()})
        p_terms = {(d,): Fraction(rng.choice([1, 2, 3]))}
        for _ in range(rng.randrange(3)):
            p_terms[(rng.randrange(d + 1),)] = Fraction(rng.randrange(-3, 4))
        p = LaurentPoly(1, p_terms)
        dg = rng.randrange(7)
        g = LaurentPoly(1, {(dg,): Fraction(rng.choice([1, 2]))})
        verdict = one_var_check(DiffOp(lam), p, g, horizon=10)
        assert verdict.status == CONFIRMED, (lam, p, g, verdict)
        assert verdict.bound == Fraction(dg, m1 - p.degree_in(0))
    report(6, "one-variable case confirmed on 50 random (symbol, P, g) triples, M = 10")


def test_criterion_7_phi_case_random():
    rng = random.Random(1007)
    done = 0
    while done < 20:
        order = 2 + rng.randrange(3)
        phi_terms = {(order,): Fraction(rng.choice([-2, -1, 1, 2]))}
        for _ in range(rng.randrange(3)):
            phi_terms[(order + rng.randrange(1, 3),)] = Fraction(rng.randrange(-2, 3))
        phi = LaurentPoly(1, phi_terms)
        f_terms = {(0, rng.randrange(order)): Fraction(rng.choice([1, 2]))}
        for _ in range(rng.randrange(2)):
            f_terms[(0, rng.randrange(order))] = Fraction(rng.randrange(-2, 3))
        f = LaurentPoly(2, f_terms)
        if f.is_zero:
            continue
        g = LaurentPoly(2, {
            (rng.randrange(2), rng.randrange(3)): Fraction(rng.choice([1, 2])),
            (rng.randrange(2), rng.randrange(3)): Fraction(rng.randrange(-2, 3)),
        })
        if g.is_zero:
            continue
        verdict = phi_case_check(phi, f, g, horizon=10)
        assert verdict.status == CONFIRMED, (phi, f, g, verdict)
        d = f.degree_in(1)
        expected = Fraction(order * g.degree_in(0) + g.degree_in(1), order - d)
        assert verdict.bound == expected
        done += 1
    report(7, "flow case confirmed on 20 random (Phi, f, g) triples, M = 10, "
              "bounds match the closed form")


def test_criterion_8_binomial_gap():
    start = time.monotonic()
    for d in range(2, 21):
        for r in range(2, d + 1):
            gap_ok, positivity = binomial_gap_check(d, r)
            assert gap_ok and positivity
    elapsed = time.monotonic() - start
    assert elapsed < 1
    report(8, "binomial gap and leading-coefficient positivity for all 2 <= r <= d <= 20",
           elapsed)


def test_criterion_9_density_hits():
    rng = random.Random(1009)
    for _ in range(30):
        p = random_nat_poly(rng, n_terms=rng.randrange(1, 5),
                            allow_negative_coeffs=False)
        support = sorted(p.terms)
        s = rng.choice(support)
        assert ray_hits_support(p, s, 2).first_hit == 1
        if len(support) >= 2:
            s1, s2 = rng.sample(support, 2)
            u = tuple(Fraction(a + b, 2) for a, b in zip(s1, s2))
            assert ray_hits_support(p, u, 2).first_hit in (1, 2)
    report(9, "ray hits found at m <= 2 for vertices and midpoints of 30 "
              "random positive-coefficient supports")


def test_criterion_10_operator_algebra():
    rng = random.Random(1010)

    def rpoly():
        return LaurentPoly(2, {
            (rng.randrange(4), rng.randrange(4)): Fraction(rng.randrange(-3, 4))
            for _ in range(3)
        })

    def rop():
        sym = LaurentPoly(2, {
            (rng.randrange(3), rng.randrange(3)): Fraction(rng.randrange(-2, 3))
            for _ in range(2)
        })
        return DiffOp(sym if not sym.is_zero else LaurentPoly.one(2))

    for _ in range(200):
        o, p = rop(), rpoly()
        m = rng.randrange(1, 4)
        it = p
        for _ in range(m):
            it = apply(o, it)
        assert apply(o ** m, p) == it
    for _ in range(200):
        o, p, q = rop(), rpoly(), rpoly()
        a, b = Fraction(rng.randrange(-3, 4)), Fraction(rng.randrange(-3, 4))
        assert apply(o, a * p + b * q) == a * apply(o, p) + b * apply(o, q)
    for _ in range(200):
        o1, o2, p = rop(), rop(), rpoly()
        assert apply(o1, apply(o2, p)) == apply(o2, apply(o1, p))
    dx, dy = DiffOp(LaurentPoly.monomial((1, 0))), DiffOp(LaurentPoly.monomial((0, 1)))
    for _ in range(200):
        p, q = rpoly(), rpoly()
        d = rng.choice([dx, dy])
        assert apply(d, p * q) == apply(d, p) * q + p * apply(d, q)
    report(10, "power/iteration agreement, linearity, commutativity, Leibniz "
               "(200 randomized instances each)")
