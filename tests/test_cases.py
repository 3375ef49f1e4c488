import re
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import vanishlab.polytopes

from kernel_oracle import fraction_apply, fraction_derivative, fraction_mul, series_exp
from paper_oracle import binomial_gap_check
from vanishlab import cases
from vanishlab.cases import (
    CONFIRMED,
    CaseVerdict,
    counterexample_ddv,
    counterexample_dk,
    monomial_case_check,
    one_var_check,
    phi_case_check,
    phi_flow,
    two_monomial_check,
)
from vanishlab.cli import main
from vanishlab.diffops import DiffOp, ProfileEntry, VanishingProfile, vanishing_profile
from vanishlab.parsing import parse_operator, parse_poly
from vanishlab.poly import LaurentPoly, TruncSeries, powers
from vanishlab.polytopes import in_polytope, minkowski_diff, newton_polytope, orthant_meet


def lp1(src):
    return parse_poly(src, ["x"])


def lp2(src):
    return parse_poly(src, ["x", "y"])


def op1(src):
    return parse_operator(src, ["x"])


def op2(src):
    return parse_operator(src, ["x", "y"])


COEFFS = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])


class TestOneVar:
    def test_confirmed_example(self):
        verdict = one_var_check(op1("dx^2"), lp1("x"), lp1("x^3"))
        assert verdict.status == CONFIRMED
        assert verdict.bound == 3
        assert verdict.verified == (4, 5, 6, 7, 8)

    def test_zero_g(self):
        verdict = one_var_check(op1("dx^2"), lp1("x"), LaurentPoly.zero(1))
        assert verdict.status == CONFIRMED
        assert verdict.bound == 0

    def test_degree_violation(self):
        # deg P = order of the symbol: hypothesis must fail
        verdict = one_var_check(op1("dx"), lp1("x"), lp1("1"), horizon=6)
        assert verdict.status == "hypothesis-fails"

    def test_rich_symbol(self):
        # symbol x^2(1 + x): order at 0 is 2, same bound as x^2 alone
        verdict = one_var_check(op1("dx^2 + dx^3"), lp1("x"), lp1("x^2"), horizon=8)
        assert verdict.status == CONFIRMED
        assert verdict.bound == 2
        assert verdict.verified == (3, 4, 5, 6, 7, 8)

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            one_var_check(op2("dx"), lp2("x"), lp2("1"))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_degree_at_least_the_order_fails_at_m_1(self, data):
        # with m1 the order of the symbol at 0 and d = deg P >= m1, the
        # lowest-order term of L sends P to a polynomial of degree d - m1
        # with a nonzero top coefficient, and every other term lowers the
        # degree further: L(P) != 0, so no anomaly can follow a clean scan
        symbol = data.draw(st.dictionaries(st.tuples(st.integers(0, 4)), COEFFS,
                                           min_size=1, max_size=3))
        m1 = min(symbol)[0]
        d = data.draw(st.integers(m1, m1 + 3))
        terms = data.draw(st.dictionaries(st.tuples(st.integers(0, d - 1)), COEFFS, max_size=3)
                          if d else st.just({}))
        terms[(d,)] = data.draw(COEFFS)
        profile = vanishing_profile(DiffOp(LaurentPoly(1, symbol)), LaurentPoly(1, terms),
                                    lp1("1"), 2)
        assert profile.first_pp_failure == 1


class TestPhiCase:
    def test_flow_linear(self):
        # Phi = xi: P = f(y + x)
        assert phi_flow(lp1("x"), lp2("y^2")) == lp2("y^2 + 2*x*y + x^2")

    def test_flow_order_two(self):
        assert phi_flow(lp1("x^2"), lp2("y^3")) == lp2("y^3 + 6*x*y")

    def test_flow_annihilation(self):
        phi = lp1("x^2 + x^3")
        p = phi_flow(phi, lp2("y^4 - 2*y^2"))
        lam = op2("dx").symbol - LaurentPoly(2, {(0, k): c for (k,), c in phi.terms.items()})
        from vanishlab.diffops import apply
        assert apply(DiffOp(lam), p).is_zero

    def test_flow_identity_failure_raises(self, monkeypatch):
        # the identity check must survive python -O, so it cannot be an assert
        from vanishlab import cases
        apply = cases.apply

        def broken(op, x):
            # wrong only for the d_x of the identity check, so the flow's own sum still ends
            return apply(op, x) + 1 if op.symbol.coeff((1, 0)) else apply(op, x)

        monkeypatch.setattr(cases, "apply", broken)
        with pytest.raises(RuntimeError):
            phi_flow(lp1("x^2"), lp2("y^3"))

    def test_confirmed(self):
        verdict = phi_case_check(lp1("x^2"), lp2("y"), lp2("x^2*y"), horizon=8)
        assert verdict.status == CONFIRMED
        assert verdict.bound == 5

    def test_phi_zero(self):
        # Lambda = d_x, P = f(y): vanishing exactly for m > deg_x g
        verdict = phi_case_check(LaurentPoly.zero(1), lp2("y^3"), lp2("x^2"), horizon=8)
        assert verdict.status == CONFIRMED
        assert verdict.bound == 2
        assert verdict.verified == (3, 4, 5, 6, 7, 8)

    def test_non_positive_horizon_rejected(self):
        # f = 0 gives P = 0, which skips the profile scan that checks the horizon
        for f in (lp2("y"), LaurentPoly.zero(2)):
            with pytest.raises(ValueError):
                phi_case_check(lp1("x^2"), f, lp2("x"), horizon=0)

    def test_linear_term_removed_by_coordinate_change(self):
        verdict = phi_case_check(lp1("x + x^2"), lp2("y"), lp2("x*y"), horizon=8)
        assert verdict.status == CONFIRMED
        assert any("coordinate change" in note for note in verdict.notes)

    def test_coordinate_change_note_in_the_given_names(self):
        # the note names the variables as the request does; x, y by default
        args = lp1("3/2*x + x^3"), lp2("y^2"), lp2("x + y")
        note = "coordinate change {1} -> {1} + 3/2*{0} removes the linear term"
        for names in (("x", "y"), ("y", "x"), ("a", "b")):
            verdict = phi_case_check(*args, horizon=3, names=names)
            assert verdict.notes == (note.format(*names),)
        assert phi_case_check(*args, horizon=3).notes == (note.format("x", "y"),)
        # the coefficient's sign goes in place of the plus, and a unit
        # magnitude is dropped, as to_string prints a term
        for phi, term in (("-3/2*x + x^3", "- 3/2*{0}"), ("-x + x^3", "- {0}"),
                          ("x + x^3", "+ {0}"), ("2*x + x^3", "+ 2*{0}")):
            note = "coordinate change {1} -> {1} " + term + " removes the linear term"
            for names in (("x", "y"), ("y", "x"), ("a", "b")):
                verdict = phi_case_check(lp1(phi), lp2("y^2"), lp2("x + y"), horizon=3,
                                         names=names)
                assert verdict.notes == (note.format(*names),)

    def test_order_not_above_degree(self):
        # order(Phi) = 2 <= deg f = 2: the case hypothesis fails
        verdict = phi_case_check(lp1("x^2"), lp2("y^2"), lp2("1"), horizon=8)
        assert verdict.status in ("hypothesis-fails", "failed")


class TestBinomialGap:
    def test_small_values(self):
        assert binomial_gap_check(2, 2) == (True, True)   # 6 >= 4
        assert binomial_gap_check(3, 2) == (True, True)   # 15 >= 12
        assert binomial_gap_check(5, 1) == (True, None)

    def test_exhaustive_range(self):
        for d in range(2, 21):
            for r in range(2, d + 1):
                gap_ok, positivity = binomial_gap_check(d, r)
                assert gap_ok and positivity

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            binomial_gap_check(2, 3)


class TestMonomialCase:
    def test_p_monomial_confirmed(self):
        verdict = monomial_case_check(op2("dx^2"), lp2("x*y"), lp2("x^3"), horizon=8)
        assert verdict.status == CONFIRMED
        assert verdict.bound == 4
        assert not verdict.anomalies

    def test_p_monomial_hypothesis_fails(self):
        verdict = monomial_case_check(op2("dx*dy"), lp2("x*y"), lp2("1"), horizon=6)
        assert verdict.status == "hypothesis-fails"

    def test_operator_monomial_variant(self):
        verdict = monomial_case_check(op2("dx^3"), lp2("x*y + y^2"), lp2("x"), horizon=8)
        assert any("operator-monomial" in n for n in verdict.notes)
        assert verdict.status == CONFIRMED
        assert not verdict.anomalies

    def test_rejects_two_nonmonomials(self):
        with pytest.raises(ValueError):
            monomial_case_check(op2("dx + dy"), lp2("x + y"), lp2("1"))


@st.composite
def exponents_of_degree(draw, n, degree):
    cuts = sorted(draw(st.lists(st.integers(0, degree), min_size=n - 1, max_size=n - 1)))
    return tuple(b - a for a, b in zip([0, *cuts], [*cuts, degree]))


@st.composite
def two_monomial_requests(draw):
    """(op, P) of either two-monomial path: two monomials of different total
    degree, and a nonzero homogeneous polynomial, in two or three variables."""
    n = draw(st.integers(2, 3))
    d1, d2 = draw(st.lists(st.integers(0, 3), min_size=2, max_size=2, unique=True))
    two = {draw(exponents_of_degree(n, d1)): draw(COEFFS),
           draw(exponents_of_degree(n, d2)): draw(COEFFS)}
    homogeneous = draw(st.dictionaries(exponents_of_degree(n, draw(st.integers(1, 3))), COEFFS,
                                       min_size=1, max_size=3))
    if draw(st.booleans()):
        two, homogeneous = homogeneous, two
    return DiffOp(LaurentPoly(n, two)), LaurentPoly(n, homogeneous)


class TestTwoMonomial:
    def test_confirmed(self):
        verdict = two_monomial_check(op2("dx^2 + dy^3"), lp2("x*y"), lp2("1"), horizon=8)
        assert verdict.status == CONFIRMED
        assert not verdict.anomalies

    def test_equal_total_degree_takes_two_monomial_p(self):
        # a homogeneous two-term symbol is the mirrored case's operator
        verdict = two_monomial_check(op2("dx^2 + dy^2"), lp2("x*y"), lp2("1"))
        assert verdict.case == "two-monomial-P"

    def test_witness_predicts_failure(self):
        # Lambda = d_x + d_y^2, P = x^2 y: the difference polytope meets the orthant
        verdict = two_monomial_check(op2("dx + dy^2"), lp2("x^2*y"), lp2("1"), horizon=6)
        assert verdict.status in ("hypothesis-fails", "inconclusive")

    def test_each_power_built_once(self, monkeypatch):
        # the profile builds each Lambda^m and P^m once, and the checker uses
        # no other power.  At M = 8 the box is B_m = (8, 8), and Lambda^m keeps
        # the terms (2k, 3(m - k)) with k <= 4 and m - k <= 2: Lambda^7 keeps
        # none, so the scan stops there.  Lambda^2..Lambda^7, P^2..P^6 and
        # P^m * g for m <= 6 make 6 + 5 + 6 products
        products = []
        mul = LaurentPoly.__mul__
        monkeypatch.setattr(LaurentPoly, "__mul__",
                            lambda a, b: products.append(1) or mul(a, b))
        verdict = two_monomial_check(op2("dx^2 + dy^3"), lp2("x*y"), lp2("1"), horizon=8)
        assert verdict.status == CONFIRMED
        assert len(products) == 17

    @pytest.mark.parametrize("horizon", [0, -1])
    def test_non_positive_horizon_rejected(self, horizon):
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            two_monomial_check(op2("dx^2 + dy^3"), lp2("x*y"), lp2("1"), horizon=horizon)
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            two_monomial_check(op2("dx*dy"), lp2("x^2*y + y^2"), lp2("1"), horizon=horizon)

    def test_mirror_two_monomial_p(self):
        verdict = two_monomial_check(op2("dx*dy"), lp2("x^2*y + y^2"), lp2("1"), horizon=8)
        assert isinstance(verdict, CaseVerdict)
        assert verdict.case == "two-monomial-P"

    @settings(max_examples=150, deadline=None)
    @given(two_monomial_requests())
    def test_witness_pair_note(self, request):
        # the printed pair: u in Poly(P), v in Poly(Lambda), u - v the
        # orthant LP's witness, and so u >= v
        op, p = request
        verdict = two_monomial_check(op, p, LaurentPoly(p.arity, {(0,) * p.arity: 1}), horizon=2)
        notes = [re.fullmatch(r"witness pair u=\((.*)\) >= v=\((.*)\) predicts a hypothesis "
                              r"failure at some m", note) for note in verdict.notes]
        pairs = [note.groups() for note in notes if note]
        assume(pairs)
        (u, v), = [tuple(tuple(map(Fraction, side.split(","))) for side in pair)
                   for pair in pairs]
        poly_p, poly_lambda = newton_polytope(p), newton_polytope(op.symbol)
        assert in_polytope(poly_p, u) and in_polytope(poly_lambda, v)
        assert tuple(a - b for a, b in zip(u, v)) == orthant_meet(
            minkowski_diff(poly_p, poly_lambda)).point
        assert all(a >= b for a, b in zip(u, v))

    REQUEST = ["case", "two-monomial", "--op=dx + dy^2", "--p=x^2*y", "-M", "6",
               "--format", "structured"]

    def test_witness_request_solves_one_lp(self, monkeypatch, capsys):
        # the orthant LP runs in phase_two; the pair comes from its weights,
        # so no LP reaches solve_lp
        def refuse(*args):
            raise AssertionError("solve_lp was called")

        monkeypatch.setattr(vanishlab.polytopes, "solve_lp", refuse)
        assert main(self.REQUEST) == 1
        assert ("note=witness pair u=(2,1) >= v=(1,0) predicts a hypothesis failure at some m"
                in capsys.readouterr().out.splitlines())

    def test_tampered_weights_raise_before_printing(self, monkeypatch, capsys):
        # Sigma = {(1,1), (2,-1)} and the witness (1,1) has the weights (1, 0):
        # with the numerators reversed, they are convex but give (2,-1)
        def tampered(sigma):
            witness = meet(sigma)
            nums, den = witness.weights
            return witness._replace(weights=(tuple(reversed(nums)), den))

        meet = cases.orthant_meet
        monkeypatch.setattr(cases, "orthant_meet", tampered)
        with pytest.raises(RuntimeError):
            main(self.REQUEST)
        assert capsys.readouterr().out == ""


def small_polys(n, max_terms=3):
    """A nonzero polynomial of one to max_terms terms with exponents in {0..3}^n."""
    expo = st.tuples(*[st.integers(0, 3)] * n)
    return st.dictionaries(expo, COEFFS, min_size=1, max_size=max_terms).map(
        lambda terms: LaurentPoly(n, terms))


@st.composite
def monomial_requests(draw):
    """(op, P) of the monomial case in one to four variables: a monomial P and
    a symbol of one to three terms, or the other way round."""
    n = draw(st.integers(1, 4))
    poly, mono = draw(small_polys(n)), draw(small_polys(n, 1))
    if draw(st.booleans()):
        poly, mono = mono, poly
    return DiffOp(poly), mono


def oracle_power(terms, m):
    """The m-th power of a term map by repeated dict-of-Fraction products."""
    out = {(0,) * len(next(iter(terms))): Fraction(1)}
    for _ in range(m):
        out = fraction_mul(out, terms)
    return out


def oracle_vanishes(op, p, g, m):
    """Whether L^m(P^m g) = 0, recomputed with the dict-of-Fraction kernels."""
    return not fraction_apply(oracle_power(op.symbol.terms, m),
                              fraction_mul(oracle_power(p.terms, m), g.terms))


class TestSigmaCertificate:
    """Both polytope cases decide on Sigma = Poly(P) - Poly(Lambda) with one step."""

    @settings(max_examples=300, deadline=None)
    @given(monomial_requests())
    def test_poly_f_is_sigma(self, request):
        # the polytope the monomial checker certifies, Poly(f) with f as either
        # variant builds it, is Poly(P) - Poly(Lambda): the same generators in
        # the same order over the same denominator
        op, p = request
        asked, meet = [], cases.orthant_meet
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cases, "orthant_meet", lambda sigma: asked.append(sigma) or meet(sigma))
            monomial_case_check(op, p, LaurentPoly.one(p.arity), horizon=1)
        (poly_f,) = asked
        sigma = minkowski_diff(newton_polytope(p), newton_polytope(op.symbol))
        assert (poly_f.nums, poly_f.den) == (sigma.nums, sigma.den)

    HORIZON = 4

    def check_certified(self, verdict, op, p, g):
        if verdict.bound is None:
            return
        assert not verdict.residuals and not verdict.anomalies
        assert verdict.verified == tuple(range(int(verdict.bound), self.HORIZON + 1))
        for m in verdict.verified:
            assert oracle_vanishes(op, p, g, m)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_certified_monomial_verdicts(self, data):
        op, p = data.draw(monomial_requests())
        g = data.draw(small_polys(p.arity))
        self.check_certified(monomial_case_check(op, p, g, self.HORIZON), op, p, g)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_certified_two_monomial_verdicts(self, data):
        op, p = data.draw(two_monomial_requests())
        g = data.draw(small_polys(p.arity))
        verdict = two_monomial_check(op, p, g, self.HORIZON)
        # the hypothesis scan and the certificate, and no other check
        assert [name for name, _ in verdict.checks] == [
            "power-vanishing hypothesis up to horizon",
            "Poly(P) - Poly(Lambda) disjoint from the orthant"]
        self.check_certified(verdict, op, p, g)


class TestVerdictStep:
    """cases._verdict on a hand-made profile whose tail holds a residual."""

    def profile(self, pp_zero=True):
        residual = lp2("2*x*y")
        entries = tuple(ProfileEntry(m, pp_zero, m != 3, ppg_residual=None if m != 3 else residual)
                        for m in range(1, 6))
        return VanishingProfile(5, entries)

    def test_split_past_the_bound(self):
        verdict = cases._verdict("one-var", self.profile(), [("own check", True)], Fraction(3, 2))
        assert verdict.checks == (("power-vanishing hypothesis up to horizon", True),
                                  ("own check", True))
        assert verdict.verified == (2, 4, 5)
        assert verdict.residuals == {3: "2*x*y"}
        assert verdict.status == "failed"

    def test_failures_merge_and_the_profile_wins(self):
        failures = {3: "nonzero on monomial (0, 0)", 4: "nonzero on monomial (1, 0)"}
        verdict = cases._verdict("monomial", self.profile(), [], Fraction(3), Fraction(3),
                                 ["variant: P-monomial"], [], failures)
        assert verdict.verified == (5,)
        assert verdict.residuals == {3: "2*x*y", 4: "nonzero on monomial (1, 0)"}
        assert verdict.notes == ("variant: P-monomial",)

    def test_no_bound_verifies_nothing(self):
        verdict = cases._verdict("phi", self.profile(pp_zero=False), [("order", False)], None,
                                 anomalies=["seen"])
        assert (verdict.verified, dict(verdict.residuals)) == ((), {})
        assert verdict.checks[0] == ("power-vanishing hypothesis up to horizon", False)
        assert verdict.anomalies == ("seen",)
        assert verdict.status == "hypothesis-fails"


def combinations(alpha, beta, m):
    """The exponents k*alpha + (m-k)*beta, k = 0..m."""
    return {tuple(k * a + (m - k) * b for a, b in zip(alpha, beta)) for k in range(m + 1)}


class TestPaperLemmas:
    """The lemmas the case checkers rely on, tested here instead of per request."""

    HORIZON = 5

    @settings(max_examples=150, deadline=None)
    @given(two_monomial_requests())
    def test_two_monomial_support_formula(self, request):
        # Supp((a z^alpha + b z^beta)^m) = {k alpha + (m-k) beta}: the m + 1
        # exponents have distinct total degrees, so no two terms cancel.  The
        # two-term factor is the symbol, or P in the mirrored variant.
        op, p = request
        exponents = op.symbol.exponents()
        two = op.symbol if sum(exponents[0]) != sum(exponents[-1]) else p
        alpha, beta = two.exponents()
        for m, power in enumerate(powers(two, self.HORIZON), start=1):
            assert power.terms == oracle_power(two.terms, m)
            assert set(power.exponents()) == combinations(alpha, beta, m)

    @settings(max_examples=150, deadline=None)
    @given(two_monomial_requests())
    def test_two_monomial_degree_separation(self, request):
        # Lambda = a d^alpha + b d^beta with P homogeneous: each
        # d^{k alpha + (m-k) beta} P^m is the part of Lambda^m P^m of one total
        # degree, so Lambda^m P^m = 0 exactly when every one of them is 0.  A
        # derivative d^mu P^m is 0 when it kills each monomial of P^m, since
        # distinct monomials keep distinct exponents.
        op, p = request
        exponents = op.symbol.exponents()
        assume(len(exponents) == 2 and sum(exponents[0]) != sum(exponents[1]))
        alpha, beta = exponents
        profile = vanishing_profile(op, p, LaurentPoly.one(p.arity), self.HORIZON)
        for entry in profile.entries:
            p_m = oracle_power(p.terms, entry.m)
            assert entry.pp_zero == all(fraction_derivative(mu, gamma)[0] == 0
                                        for mu in combinations(alpha, beta, entry.m)
                                        for gamma in p_m)

    @settings(max_examples=150, deadline=None)
    @given(monomial_requests())
    def test_monomial_reduction(self, request):
        # f = Lambda(z^-1) z^alpha for P = c z^alpha, f = z^-alpha P for
        # Lambda = c d^alpha: hol(f^m) and L^m(P^m) have the same support up to
        # nonzero falling factorials, so hol(f^m) = 0 exactly when L^m(P^m) = 0
        op, p = request
        if p.is_monomial():
            (alpha,) = p.exponents()
            f = {tuple(a - u for a, u in zip(alpha, mu)): c for mu, c in op.symbol.terms.items()}
        else:
            (alpha,) = op.symbol.exponents()
            f = {tuple(b - a for a, b in zip(alpha, beta)): c for beta, c in p.terms.items()}
        one = LaurentPoly.one(p.arity)
        for entry in vanishing_profile(op, p, one, self.HORIZON).entries:
            hol_zero = all(min(e) < 0 for e in oracle_power(f, entry.m))
            assert hol_zero == oracle_vanishes(op, p, one, entry.m) == entry.pp_zero


class TestCounterexamples:
    def test_ddv(self):
        report = counterexample_ddv(6, 12)
        assert report.ok
        assert len(report.rows) == 6
        names = [name for name, _ in report.rows[0][1]]
        assert "L^m(P^m) = 0" in names

    def test_ddv_precision_guard(self):
        with pytest.raises(ValueError):
            counterexample_ddv(12, 12)

    def test_dk(self):
        report = counterexample_dk(8, 12)
        assert report.ok
        assert len(report.rows) == 8

    def test_dk_precision_guard(self):
        with pytest.raises(ValueError):
            counterexample_dk(13, 12)

    @pytest.mark.parametrize("horizon", [0, -1])
    def test_non_positive_horizon_rejected(self, horizon):
        # an empty scan would report every check passing
        with pytest.raises(ValueError):
            counterexample_ddv(horizon, 12)
        with pytest.raises(ValueError):
            counterexample_dk(horizon, 12)


def _mutated_exp(j, delta):
    """An ``_exp_series`` whose numerator of y^j is off by ``delta``."""
    def exp_series(depth):
        top = factorial(depth)
        nums = {(0, k): top // factorial(k) + (delta if k == j else 0)
                for k in range(depth + 1)}
        return TruncSeries._from_cut(LaurentPoly._from_integers(2, nums, top), 1, depth)
    return exp_series


class TestSeriesCounterexampleKernels:
    def test_exp_series_is_the_summed_exponential(self):
        y = LaurentPoly.variable(2, 1)
        for depth in range(41):
            e = cases._exp_series(depth)
            summed = series_exp(TruncSeries(y, 1, depth))
            assert (e.body, e.var) == (summed.body, summed.var)
            assert e.degree == depth

    @pytest.mark.parametrize("scale", [1, 2, 6, 18])
    @pytest.mark.parametrize("depth", [0, 1, 5, 9])
    def test_scaled_exp_check(self, scale, depth):
        # scale * e^y cut after y^depth: the sum of scale * y^j / j!
        exact = {(0, j): Fraction(scale, factorial(j)) for j in range(depth + 1)}
        assert cases._is_scaled_exp(LaurentPoly(2, exact), scale, depth)
        assert not cases._is_scaled_exp(LaurentPoly(2, exact), scale + 1, depth)
        assert not cases._is_scaled_exp(LaurentPoly(2, exact), scale, depth + 1)
        for j in range(depth + 1):
            # one coefficient off; y^j missing; y^j missing and an x term in its place
            off = dict(exact)
            off[(0, j)] += Fraction(1, 7 * factorial(depth))
            missing = {e: c for e, c in exact.items() if e != (0, j)}
            swapped = dict(missing)
            swapped[(1, j)] = exact[(0, j)]
            for wrong in (off, missing, swapped):
                assert not cases._is_scaled_exp(LaurentPoly(2, wrong), scale, depth)
        for extra in ((1, 0), (1, depth), (-1, 0), (0, depth + 1), (0, -1)):
            # every right term and one more, an x term or a y^j out of range
            more = dict(exact)
            more[extra] = Fraction(scale)
            assert not cases._is_scaled_exp(LaurentPoly(2, more), scale, depth)

    @pytest.mark.parametrize("delta", [1, -1])
    @pytest.mark.parametrize("j", range(1, 11))
    def test_a_wrong_exp_numerator_fails(self, monkeypatch, j, delta):
        monkeypatch.setattr(cases, "_exp_series", _mutated_exp(j, delta))
        assert not counterexample_ddv(4, 10).ok
        # dk reads [y^m] e^y only for m <= M; the constant j = 0 drops out of
        # both identities (d_y kills it, and dk never reads [y^0] e^y)
        if j <= 4:
            assert not counterexample_dk(4, 10).ok

    def test_dk_reads_the_constant_term_of_f_m_x(self):
        x = LaurentPoly.variable(2, 0)
        for depth in range(1, 13):
            # f = y^{-1}(1 + x^{-1} e^y), as counterexample_dk builds it
            f = (cases._exp_series(depth) * LaurentPoly.monomial((-1, -1))
                 + LaurentPoly.monomial((0, -1)))
            for m, f_m in enumerate(powers(f, depth), start=1):
                assert f_m.coeff((-1, 0)) == (f_m * x).constant_term()
                assert f_m.coeff((-1, 0)) == Fraction(1, factorial(m - 1))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 20).flatmap(lambda d: st.tuples(st.integers(1, d), st.just(d))))
    def test_every_dk_read_is_within_the_degree(self, horizon_depth):
        horizon, depth = horizon_depth
        reads = []
        coeff = TruncSeries.coeff

        def recording_coeff(series, expo):
            reads.append(expo[series.var] <= series.degree)
            return coeff(series, expo)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(TruncSeries, "coeff", recording_coeff)
            report = counterexample_dk(horizon, depth)
        assert report.ok
        assert len(reads) == 2 * horizon and all(reads)
