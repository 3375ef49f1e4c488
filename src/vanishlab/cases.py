"""Checkers for the proved vanishing cases and the two series counterexamples.

Each case checker has the same shape: validation of its inputs, its own
proof step (the one-variable degree bound, the flow case's `_phi_bound`, or
a Sigma certificate from `_sigma_certificate`), then `_verdict`.  The
shared step reads the power-vanishing hypothesis off the vanishing profile,
checks the vanishing past the bound symbolically up to the horizon, and
builds the structured verdict.  Verdicts are horizon-bounded by construction.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import pairwise
from math import factorial, floor
from types import MappingProxyType
from typing import NamedTuple

from .diffops import DiffOp, apply, check_horizon, vanishing_profile
from .poly import LaurentPoly, TruncSeries, powers
from .polytopes import (
    Witness,
    _point_str,
    minkowski_diff,
    moveaway_bound,
    newton_polytope,
    orthant_meet,
    witness_pair,
)

CONFIRMED = "confirmed"
HYPOTHESIS_FAILS = "hypothesis-fails"
FAILED = "failed"
INCONCLUSIVE = "inconclusive"


# ---------------------------------------------------------------------------
# Verdict record

class CaseVerdict(NamedTuple):
    case: str
    checks: tuple = ()                      # (name, bool) pairs
    bound: Fraction | None = None
    verified: tuple = ()                    # m values that vanished past the bound
    residuals: dict = MappingProxyType({})  # m -> residual text; read-only default
    anomalies: tuple = ()
    notes: tuple = ()

    @property
    def status(self):
        if any(not ok for _, ok in self.checks):
            return HYPOTHESIS_FAILS
        if self.residuals or self.anomalies:
            return FAILED
        if not self.verified:
            return INCONCLUSIVE
        return CONFIRMED


def _verdict(case, profile, checks, bound, start=None, notes=(), anomalies=(),
             failures=MappingProxyType({})):
    """The verdict of a case whose proof step gave ``checks`` and ``bound``.

    The power-vanishing hypothesis, read off ``profile``, is the first check.
    With a bound, the profile entries with m >= start (by default the first
    m past the bound) split into verified m's and residuals.  ``failures``
    maps m to the residual text of the case's own check past the bound: the
    profile's entry wins, and a failed m is not verified.
    """
    checks = (("power-vanishing hypothesis up to horizon", profile.first_pp_failure is None),
              *checks)
    verified, residuals = (), {}
    if bound is not None:
        start = floor(bound) + 1 if start is None else start
        tail = [entry for entry in profile.entries if entry.m >= start]
        residuals = dict(failures) | {entry.m: entry.ppg_residual.to_string()
                                      for entry in tail if not entry.ppg_zero}
        verified = tuple(entry.m for entry in tail if entry.m not in residuals)
    return CaseVerdict(case=case, checks=checks, bound=bound, verified=verified,
                       residuals=residuals, anomalies=tuple(anomalies), notes=tuple(notes))


def _sigma_certificate(sigma, g):
    """The polytope cases' proof step, on Sigma = Poly(P) - Poly(Lambda).

    Asks `orthant_meet` once.  Returns ``(meet, bound)``: for a certificate,
    the largest move-away bound over Supp g (1 when g has no terms); for a
    witness, None.
    """
    meet = orthant_meet(sigma)
    if isinstance(meet, Witness):
        return meet, None
    return meet, Fraction(max((moveaway_bound(gamma, sigma, meet) for gamma in g.exponents()),
                              default=1))


# ---------------------------------------------------------------------------
# One-variable case (exponential expansions)

def one_var_check(op, p, g, horizon=8):
    """n = 1: bound deg(g)/(m1 - deg P) with m1 the order of the symbol at 0."""
    if op.arity != 1 or p.arity != 1 or g.arity != 1:
        raise ValueError("one_var_check requires one-variable inputs")
    if op.symbol.is_zero:
        raise ValueError("operator symbol must be nonzero")
    if p.is_zero:
        raise ValueError("P must be nonzero")
    m1 = op.symbol.min_exponent(0)
    d = p.degree_in(0)
    profile = vanishing_profile(op, p, g, horizon)
    deg_ok = d <= m1 - 1
    # g.degree_in(0) is None for g = 0
    bound = Fraction(g.degree_in(0) or 0, m1 - d) if deg_ok else None
    return _verdict("one-var", profile, [("deg P <= order(symbol at 0) - 1", deg_ok)], bound)


# ---------------------------------------------------------------------------
# The operator d/dx - Phi(d/dy) on two variables

def _phi_operator(phi):
    """Lift a one-variable symbol Phi(xi) to Phi(d_y) on two variables."""
    nums = {(0, k): n for (k,), n in phi.integer_items()}
    return DiffOp(LaurentPoly._from_integers(2, nums, phi.den))


def _flow_operator(phi):
    """Lambda = d_x - Phi(d_y) on two variables, from the one-variable symbol Phi(xi)."""
    nums = {(1, 0): phi.den, **{(0, k): -n for (k,), n in phi.integer_items()}}
    return DiffOp(LaurentPoly._from_integers(2, nums, phi.den))


def phi_flow(phi, f):
    """The unique solution of (d_x - Phi(d_y)) P = 0 with P(0, y) = f(y).

    Computed as the finite sum over x^k Phi(d_y)^k f / k!; Phi(d_y) is
    nilpotent on polynomials because its order is at least one.  The
    defining identity d_x P = Phi(d_y) P is checked on every call;
    RuntimeError if it fails.
    """
    if f.arity != 2:
        raise ValueError("f must live in two variables")
    if f.degree_in(0) not in (None, 0):
        raise ValueError("f must not involve the first variable")
    if not phi.is_zero and phi.min_exponent(0) < 1:
        raise ValueError("Phi must have order >= 1")
    if phi.is_zero or f.is_zero:
        return f
    phi_op = _phi_operator(phi)
    total = f
    cur = f
    k = 0
    while True:
        k += 1
        cur = apply(phi_op, cur)
        if cur.is_zero:
            break
        total = total + LaurentPoly.variable(2, 0, k) * cur * Fraction(1, factorial(k))
    if apply(DiffOp(LaurentPoly.variable(2, 0)), total) != apply(phi_op, total):
        raise RuntimeError("the flow does not solve (d_x - Phi(d_y)) P = 0")
    return total


def _phi_bound(phi, f, g, checks, notes, names):
    """Recursive bound computation; returns a Fraction or None if no bound applies.

    ``names`` are the two variables' names, in which a note is written."""
    if g.is_zero:
        return Fraction(0)
    if phi.is_zero:
        # Lambda^m = d_x^m; a power beyond deg_x g wipes out f^m g
        return Fraction(g.degree_in(0))
    order = phi.min_exponent(0)
    if order == 1:
        q1 = phi.coeff((1,))
        repl = LaurentPoly.variable(2, 1) - q1 * LaurentPoly.variable(2, 0)
        # signed as to_string signs a term: y -> y - 3/2*x, y -> y + x
        sign = "-" if q1 < 0 else "+"
        term = LaurentPoly.monomial((1, 0), abs(q1)).to_string(names)
        notes.append(f"coordinate change {names[1]} -> {names[1]} {sign} {term} "
                     "removes the linear term")
        return _phi_bound(phi - q1 * LaurentPoly.variable(1, 0), f, g.substitute(1, repl),
                          checks, notes, names)
    d = f.degree_in(1) if not f.is_zero else -1
    checks.append(("order(Phi) > deg f", order > d))
    if order <= d:
        return None
    return Fraction(order * g.degree_in(0) + g.degree_in(1), order - d)


def phi_case_check(phi, f, g, horizon=8, names=("x", "y")):
    """Case Lambda = d_x - Phi(d_y) with P the flow of f under Phi; its notes
    name the two variables ``names``."""
    check_horizon(horizon)
    if phi.arity != 1:
        raise ValueError("Phi must be a one-variable symbol")
    if g.arity != 2:
        raise ValueError("g must live in two variables")
    p = phi_flow(phi, f)
    if p.is_zero:
        return CaseVerdict(case="phi", bound=Fraction(0), verified=tuple(range(1, horizon + 1)),
                           notes=("P = 0; everything vanishes identically",))
    profile = vanishing_profile(_flow_operator(phi), p, g, horizon)
    checks, notes, anomalies = [], [], []
    bound = _phi_bound(phi, f, g, checks, notes, names)
    if bound is None and profile.first_pp_failure is None:
        anomalies.append("order(Phi) <= deg f predicts a hypothesis failure, "
                         "none observed up to horizon")
    return _verdict("phi", profile, checks, bound, notes=notes, anomalies=anomalies)


# ---------------------------------------------------------------------------
# Monomial cases via Laurent polynomials with no holomorphic part

def monomial_case_check(op, p, g, horizon=8):
    """Case where P is a monomial z^alpha, or mirrored, Lambda = d^alpha.

    Reduces the vanishing statement to the holomorphic part of powers of the
    Laurent polynomial f = Lambda(1/z) P, certifies disjointness of Poly(f)
    from the orthant, and converts the certificate into a move-away bound.
    Past that bound, each monomial of g is cross-checked on both routes, the
    operator's and the holomorphic part's.  Poly(f) is Poly(P) - Poly(Lambda),
    and in both variants one side is a single monomial, whose coefficient
    only scales f.  The reduction itself, hol(f^m) = 0 exactly when
    L^m(P^m) = 0, is the paper's and is not re-checked per m.
    """
    if op.arity != p.arity or p.arity != g.arity:
        raise ValueError("arity mismatch")
    if p.is_zero or op.symbol.is_zero:
        raise ValueError("P and the operator must be nonzero")
    if p.is_monomial():
        if not p.is_holomorphic():
            raise ValueError("the monomial exponent must be in N^n")
        variant = "P-monomial"
    elif op.symbol.is_monomial():
        variant = "operator-monomial"
    else:
        raise ValueError("either P or the operator symbol must be a monomial")
    nums = {tuple(-a for a in mu): c for mu, c in op.symbol.integer_items()}
    f = LaurentPoly._from_integers(p.arity, nums, op.symbol.den) * p

    profile = vanishing_profile(op, p, g, horizon)
    meet, bound = _sigma_certificate(newton_polytope(f), g)
    notes, anomalies, failures = [f"variant: {variant}"], [], {}
    if bound is None:
        notes.append("witness " + _point_str(meet.point)
                     + " predicts a hypothesis failure at some m")
    else:
        # verify both routes on the tail, per monomial of g and for g as a whole
        for m, f_m in enumerate(powers(f, horizon), start=1):
            if m < bound:
                continue
            op_m, p_m = op ** m, p ** m
            for gamma in g.exponents():
                mono = LaurentPoly.monomial(gamma)
                direct = apply(op_m, p_m * mono).is_zero
                holo = (mono * f_m).holomorphic_part().is_zero
                if direct != holo:
                    anomalies.append(f"route disagreement at m={m}, gamma={gamma}")
                elif not direct:
                    failures.setdefault(m, f"nonzero on monomial {gamma}")
    return _verdict("monomial", profile,
                    [("Poly(f) disjoint from the nonnegative orthant", bound is not None)],
                    bound, bound, notes, anomalies, failures)


# ---------------------------------------------------------------------------
# Two-monomial operators (and the mirrored two-monomial P)

def two_monomial_check(op, p, g, horizon=8):
    """Case Lambda = a*d^alpha + b*d^beta with |alpha| != |beta|, P homogeneous.

    Any other symbol takes the mirrored case, P = a z^alpha + b z^beta with
    |alpha| != |beta| and a homogeneous symbol.
    """
    exponents = op.symbol.exponents()
    mirrored = len(exponents) != 2 or sum(exponents[0]) == sum(exponents[1])
    if mirrored:
        if not op.symbol.is_homogeneous() or op.symbol.is_zero:
            raise ValueError("operator symbol must be nonzero and homogeneous")
        if p.is_zero:
            raise ValueError("P must be nonzero")
        if len(p.exponents()) > 2:
            raise ValueError("P must be a sum of at most two monomials")
    elif p.is_zero or not p.is_homogeneous():
        raise ValueError("P must be nonzero and homogeneous")
    if not p.is_holomorphic():
        raise ValueError("P must have support in N^n")
    if mirrored:
        if p.is_monomial():
            verdict = monomial_case_check(op, p, g, horizon)
            note = "single monomial routed to the monomial case"
            return verdict._replace(case="two-monomial-P", notes=verdict.notes + (note,))
        exponents = p.exponents()
        if sum(exponents[0]) == sum(exponents[1]):
            raise ValueError("|alpha| must differ from |beta|")
    profile = vanishing_profile(op, p, g, horizon)
    poly_p, poly_lambda = newton_polytope(p), newton_polytope(op.symbol)
    meet, bound = _sigma_certificate(minkowski_diff(poly_p, poly_lambda), g)
    notes = []
    if bound is None:
        u, v = witness_pair(poly_p, poly_lambda, meet)
        notes.append(f"witness pair u={_point_str(u)} >= v={_point_str(v)} "
                     "predicts a hypothesis failure at some m")
        if profile.first_pp_failure is None:
            notes.append("no failure observed up to horizon; it must occur beyond it")
    return _verdict("two-monomial-P" if mirrored else "two-monomial", profile,
                    [("Poly(P) - Poly(Lambda) disjoint from the orthant", bound is not None)],
                    bound, bound, notes)


# ---------------------------------------------------------------------------
# Counterexamples at truncated-series scale

class CounterexampleReport(NamedTuple):
    name: str
    horizon: int
    precision: int
    rows: tuple = ()  # (m, ((check name, bool), ...))

    @property
    def ok(self):
        return all(ok for _, checks in self.rows for _, ok in checks)


def _is_scaled_exp(body, scale, depth):
    """Whether ``body`` is exactly ``scale * e^y`` cut after y^depth: one term
    at each (0, j), j = 0..depth, and nothing else, with ``n_j * j! == scale *
    den`` for its numerator n_j over ``den``.  ``scale`` is positive, so a
    missing term, read as numerator 0, fails."""
    nums = body.numerators_along(1, depth)
    if nums is None:
        return False
    target = scale * body.den
    j_factorial = 1
    for j, n in enumerate(nums):
        if n * j_factorial != target:
            return False
        j_factorial *= j + 1
    return True


def _exp_series(depth):
    """e^y as a series truncated in y at ``depth``, built in closed form: the
    integers depth!/j! over depth!, in canonical storage."""
    top = factorial(depth)
    nums = {(0, j): top // factorial(j) for j in range(depth + 1)}
    return TruncSeries._from_cut(LaurentPoly._from_integers(2, nums, top), 1, depth)


def counterexample_ddv(horizon, precision=12):
    """P = x + e^y against Lambda = d_y d_x, at finite series precision.

    Verifies, exactly per truncation: the powers hypothesis holds, yet
    L^m(P^{m+1}) = (m+1)! e^y and L^m(P^m x) = m*m! e^y for every m.
    """
    check_horizon(horizon)
    if precision < horizon + 2:
        raise ValueError("precision must be at least horizon + 2")
    e = _exp_series(precision)
    p = LaurentPoly.variable(2, 0) + e
    symbol = LaurentPoly(2, {(1, 1): Fraction(1)})
    x = LaurentPoly.variable(2, 0)
    rows = []
    for m, (p_m, p_next) in enumerate(pairwise(powers(p, horizon + 1)), start=1):
        op_m = DiffOp(symbol ** m)
        depth = precision - m
        r1 = apply(op_m, p_m)
        r2 = apply(op_m, p_next)
        r3 = apply(op_m, p_m * x)
        checks = (
            ("L^m(P^m) = 0", r1.body.is_zero),
            ("L^m(P^{m+1}) = (m+1)! e^y", _is_scaled_exp(r2.body, factorial(m + 1), depth)),
            ("L^m(P^m x) = m*m! e^y", _is_scaled_exp(r3.body, m * factorial(m), depth)),
            ("result free of x", r2.body.degree_in(0) == 0 and r3.body.degree_in(0) == 0),
        )
        rows.append((m, checks))
    return CounterexampleReport("ddv", horizon, precision, tuple(rows))


def counterexample_dk(horizon, precision=12):
    """f = y^{-1}(1 + x^{-1} e^y): zero constant terms, yet f^m x has 1/(m-1)!.

    The constant term of f^m x is read as the coefficient of f^m at
    x^{-1} y^0, which f^m knows because its degree is precision - m >= 0.
    """
    check_horizon(horizon)
    if precision < horizon:
        raise ValueError("precision must be at least the horizon")
    e = _exp_series(precision)
    f = e * LaurentPoly.monomial((-1, -1)) + LaurentPoly.monomial((0, -1))
    rows = []
    for m, f_m in enumerate(powers(f, horizon), start=1):
        body = f_m.body
        checks = (
            ("constant term of f^m is 0", f_m.constant_term() == 0),
            ("constant term of f^m x is 1/(m-1)!",
             f_m.coeff((-1, 0)) == Fraction(1, factorial(m - 1))),
            ("x-exponents of f^m within {-m..0}",
             body.is_zero or -m <= body.min_exponent(0) and body.degree_in(0) <= 0),
        )
        rows.append((m, checks))
    return CounterexampleReport("dk", horizon, precision, tuple(rows))
