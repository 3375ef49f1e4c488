import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_oracle import fraction_apply, fraction_mul
from vanishlab import diffops
from vanishlab.cases import phi_flow
from vanishlab.cli import main
from vanishlab.diffops import DiffOp, apply, vanishing_profile
from vanishlab.parsing import parse_operator, parse_poly
from vanishlab.poly import LaurentPoly, TruncSeries


def lp(src):
    return parse_poly(src, ["x", "y"])


def lp1(src):
    return parse_poly(src, ["x"])


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


def oracle_profile(symbol, p, g, horizon):
    """``(L^m(P^m), L^m(P^m g))`` as term maps for m = 1..horizon, from the
    dict-of-Fraction kernels alone: every power whole, nothing cut."""
    symbol, p, g = dict(symbol.terms), dict(p.terms), dict(g.terms)
    lam_m = p_m = {(0,) * len(next(iter(p))): Fraction(1)}
    out = []
    for _ in range(horizon):
        lam_m, p_m = fraction_mul(lam_m, symbol), fraction_mul(p_m, p)
        out.append((fraction_apply(lam_m, p_m), fraction_apply(lam_m, fraction_mul(p_m, g))))
    return out


def assert_matches_oracle(profile, symbol, p, g):
    expected = oracle_profile(symbol, p, g, profile.horizon)
    assert [e.m for e in profile.entries] == list(range(1, profile.horizon + 1))
    for entry, (pp, ppg) in zip(profile.entries, expected):
        assert entry.pp_zero == (not pp) and entry.ppg_zero == (not ppg)
        assert (entry.pp_residual is None) == entry.pp_zero
        assert (entry.ppg_residual is None) == entry.ppg_zero
        assert entry.pp_zero or dict(entry.pp_residual.terms) == pp
        assert entry.ppg_zero or dict(entry.ppg_residual.terms) == ppg


COEFFS = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])


def term_maps(n, top=3, min_size=1, max_size=3, low=0):
    return st.dictionaries(st.tuples(*[st.integers(low, top)] * n), COEFFS,
                           min_size=min_size, max_size=max_size)


@st.composite
def profile_requests(draw):
    """(symbol, P, g, horizon): a general request in one to three variables,
    the one-variable family xi^m1 (1 + q) with deg P < m1, or d_x - Phi(d_y)
    on two variables with P the flow of some f or a random polynomial."""
    horizon = draw(st.integers(1, 8))
    family = draw(st.sampled_from(["general", "one-var", "flow"]))
    if family == "one-var":
        n = 1
        m1 = draw(st.integers(1, 4))
        q = draw(term_maps(1, min_size=0, low=1))
        symbol = LaurentPoly(1, fraction_mul({(m1,): Fraction(1)}, {(0,): 1, **q}))
        p = LaurentPoly(1, draw(term_maps(1, top=m1 - 1)))
    elif family == "flow":
        n = 2
        phi = LaurentPoly(1, draw(term_maps(1, min_size=0, low=1)))
        symbol = LaurentPoly(2, {(1, 0): 1, **{(0, k): -c for (k,), c in phi.terms.items()}})
        f = LaurentPoly(2, {(0, k): c for (k,), c in draw(term_maps(1)).items()})
        p = phi_flow(phi, f) if draw(st.booleans()) else LaurentPoly(2, draw(term_maps(2)))
    else:
        n = draw(st.integers(1, 3))
        symbol = LaurentPoly(n, draw(term_maps(n, min_size=0)))
        p = LaurentPoly(n, draw(term_maps(n)))
    g = LaurentPoly(n, draw(term_maps(n, min_size=0)))
    return symbol, p, g, horizon


@st.composite
def outside_g_requests(draw):
    """(symbol, P, g, horizon) with g = h z^-kappa outside N^n and P g in N^n:
    h has a term free of one variable v, kappa is at most P's smallest
    exponent in each variable, and kappa_v >= 1."""
    horizon = draw(st.integers(1, 6))
    n = draw(st.integers(1, 3))
    symbol = LaurentPoly(n, draw(term_maps(n, min_size=0)))
    p = LaurentPoly(n, draw(term_maps(n, low=1)))
    v = draw(st.integers(0, n - 1))
    h = draw(term_maps(n))
    first = next(iter(h))
    h[first[:v] + (0,) + first[v + 1:]] = h.pop(first)
    kappa = [draw(st.integers(1 if i == v else 0, p.min_exponent(i))) for i in range(n)]
    g = LaurentPoly(n, {tuple(e - k for e, k in zip(expo, kappa)): c for expo, c in h.items()})
    return symbol, p, g, horizon


def count_products(monkeypatch):
    products = []
    mul = LaurentPoly.__mul__
    monkeypatch.setattr(LaurentPoly, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    return products


class TestBoxedProfile:
    """The profile builds only the part of Lambda^m inside the box B_m, and
    stops once that part is empty; every entry still equals the oracle's."""

    @settings(max_examples=250, deadline=None)
    @given(profile_requests())
    def test_entries_match_the_oracle(self, request):
        symbol, p, g, horizon = request
        profile = vanishing_profile(DiffOp(symbol), p, g, horizon)
        assert_matches_oracle(profile, symbol, p, g)

    def test_high_order_stops_after_two_products(self, monkeypatch):
        # B_m = m + 2 for dx^3, P = x, g = x^2: Lambda^2 = xi^6 misses B_2 = 4,
        # so the scan makes Lambda^2 and P g, and no other product
        products = count_products(monkeypatch)
        profile = vanishing_profile(op("dx^3"), lp("x"), lp("x^2"), horizon=8)
        assert len(products) == 2
        monkeypatch.undo()
        assert_matches_oracle(profile, op("dx^3").symbol, lp("x"), lp("x^2"))

    def test_term_outside_the_first_step_acts_later(self):
        # 1 + dx^3 on P = x^2: d^3 cannot act on P, yet the 2 d^3 of Lambda^2
        # acts on P^2 = x^4: the box keeps it, B_1 = t + (H - 1) (t - ell) = 4
        profile = vanishing_profile(op("1 + dx^3"), lp("x^2"), horizon=2)
        assert profile.entries[1].pp_residual == lp("x^4 + 48*x")
        assert_matches_oracle(profile, op("1 + dx^3").symbol, lp("x^2"), lp("1"))

    def test_empty_at_m_1(self, monkeypatch):
        # dx^5 misses B_1 = 1 for P = x, g = 1: no product and no application
        products = count_products(monkeypatch)
        applied = []
        monkeypatch.setattr(diffops, "apply", lambda *args: applied.append(args))
        profile = vanishing_profile(op("dx^5"), lp("x"), horizon=6)
        assert products == applied == []
        assert all(e.pp_zero and e.ppg_zero for e in profile.entries)
        assert len(profile.entries) == 6

    @pytest.mark.parametrize("symbol, p, horizon", [("dx^2*dy^2 + dx^3", "x*y + x + y", 30),
                                                     ("dx*dy", "x^2 + y^2", 6)])
    def test_zero_g_makes_as_many_products_as_g_1(self, monkeypatch, symbol, p, horizon):
        # with g = 0 every P^m g is 0, and the box with gamma = 0 covers P^m
        counts = []
        for g in ("0", "1"):
            products = count_products(monkeypatch)
            vanishing_profile(op(symbol), lp(p), lp(g), horizon)
            monkeypatch.undo()
            counts.append(len(products))
        assert counts[0] == counts[1]

    def test_no_g_applies_once_per_m(self, monkeypatch):
        # without g, L^m(P^m g) is L^m(P^m): no product P^m * 1 and no
        # second application, and the same profile as g = 1, which takes
        # the same path; a g other than 1 applies twice per m
        counts, profiles = [], []
        for g in (None, lp("1"), lp("2")):
            products = count_products(monkeypatch)
            applied = []
            monkeypatch.setattr(diffops, "apply", lambda *args: applied.append(1) or apply(*args))
            profiles.append(vanishing_profile(op("dx*dy"), lp("x^2 + y^2"), g, 6))
            monkeypatch.undo()
            counts.append((len(applied), len(products)))
        assert counts == [(6, 10), (6, 10), (12, 16)]
        assert profiles[0] == profiles[1]

    @pytest.mark.parametrize("argv, counts", [
        (["case", "one-var", "--vars=x", "--op=dx + dx^2", "--p=x^2", "-M", "6"], (6, 10)),
        (["case", "monomial", "--op=dx*dy", "--p=x^2 + y^2", "-M", "6"], (6, 11)),
    ])
    def test_case_without_g_applies_once_per_m(self, monkeypatch, capsys, argv, counts):
        # the case checkers receive a parsed 1 when --g is absent, and the
        # profile treats it as no g: one application per m and no P^m * 1
        outputs = []
        for extra in ([], ["--g=1"], ["--g=x^0"]):
            products = count_products(monkeypatch)
            applied = []
            monkeypatch.setattr(diffops, "apply", lambda *args: applied.append(1) or apply(*args))
            code = main(argv + extra + ["--format", "structured"])
            monkeypatch.undo()
            assert (len(applied), len(products)) == counts
            outputs.append((code, capsys.readouterr().out))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_negative_g_takes_the_box(self):
        # P g = x^(m-1) lies in N^n although g does not; the box takes gamma = 0
        profile = vanishing_profile(op("dx"), lp("x"), lp("x^-1"), horizon=5)
        assert_matches_oracle(profile, op("dx").symbol, lp("x"), lp("x^-1"))
        assert [e.pp_zero for e in profile.entries] == [False] * 5
        assert [e.ppg_zero for e in profile.entries] == [True] * 5

    def test_negative_operand_raises_as_before(self):
        with pytest.raises(ValueError, match=r"operand exponents must be in N\^n"):
            vanishing_profile(op("dx"), lp("y"), lp("x^-1"), horizon=5)

    @settings(max_examples=150, deadline=None)
    @given(outside_g_requests())
    def test_g_outside_n_n_with_p_g_inside(self, request):
        symbol, p, g, horizon = request
        assert not g.is_holomorphic() and (p * g).is_holomorphic()
        profile = vanishing_profile(DiffOp(symbol), p, g, horizon)
        assert_matches_oracle(profile, symbol, p, g)

    @pytest.mark.parametrize("symbol, p, g, message", [
        # one fault each: operator/P arity, P outside N^n, P/g arity, and P g
        # outside N^n where dx^5 misses B_1 = (1, 0), so no box keeps a term
        ("dx", lp1("x"), None, "arity mismatch between operator and operand"),
        ("dx", lp("x^-1 + y"), lp("y"), "operand exponents must be in N^n"),
        ("dx", lp("x + y"), lp1("x"), "arity mismatch: 2 vs 1"),
        ("dx^5", lp("x"), lp("y^-1"), "operand exponents must be in N^n"),
        # two faults each: the first of the four raises
        ("dx", lp1("x^-1"), None, "arity mismatch between operator and operand"),
        ("dx", lp1("x"), lp("x"), "arity mismatch between operator and operand"),
        ("dx", lp("x^-1"), lp1("x"), "operand exponents must be in N^n"),
        ("dx", lp("x*y"), lp1("x^-2"), "arity mismatch: 2 vs 1"),
    ])
    def test_errors_in_order(self, symbol, p, g, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            vanishing_profile(op(symbol), p, g, horizon=3)

    def test_zero_symbol(self, monkeypatch):
        zero = LaurentPoly.zero(2)
        products = count_products(monkeypatch)
        profile = vanishing_profile(DiffOp(zero), lp("x + y"), lp("x"), horizon=4)
        assert products == []
        monkeypatch.undo()
        assert_matches_oracle(profile, zero, lp("x + y"), lp("x"))
        # with no power to apply, the operator/operand arity check still runs
        with pytest.raises(ValueError, match="arity mismatch between operator and operand"):
            vanishing_profile(DiffOp(zero), parse_poly("x", ["x"]), horizon=4)
        # no power acts, so P and P g outside N^n raise nothing
        profile = vanishing_profile(DiffOp(zero), lp("x^-1 + y"), lp("y^-2"), horizon=3)
        assert profile.entries == tuple(diffops.ProfileEntry(m, True, True) for m in (1, 2, 3))

    def test_zero_g(self):
        zero = LaurentPoly.zero(2)
        profile = vanishing_profile(op("dx*dy"), lp("x^2 + y^2"), zero, horizon=4)
        assert_matches_oracle(profile, op("dx*dy").symbol, lp("x^2 + y^2"), zero)
        assert [e.pp_zero for e in profile.entries] == [True, False, True, False]
