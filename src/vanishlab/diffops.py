"""Constant-coefficient differential operators and vanishing profiles."""
from __future__ import annotations

from operator import add
from typing import NamedTuple

from .poly import LaurentPoly, _apply, _within, powers


class DiffOp:
    """The operator L(d) attached to a polynomial symbol L(xi).

    The symbol must have all exponents in N^n; its support and polytope are
    by definition those of the operator.
    """

    __slots__ = ("symbol",)

    def __init__(self, symbol):
        if not symbol.is_holomorphic():
            raise ValueError("operator symbol must have nonnegative exponents")
        object.__setattr__(self, "symbol", symbol)

    @classmethod
    def _from_symbol(cls, symbol):
        """The operator of ``symbol``, trusted as given.

        ``symbol`` must have nonnegative exponents, as a power of a checked
        symbol does; this is not checked.
        """
        op = object.__new__(cls)
        object.__setattr__(op, "symbol", symbol)
        return op

    def __setattr__(self, name, value):
        raise AttributeError("DiffOp is immutable")

    @property
    def arity(self):
        return self.symbol.arity

    def __pow__(self, m):
        return DiffOp._from_symbol(self.symbol ** m)

    def __eq__(self, other):
        return isinstance(other, DiffOp) and self.symbol == other.symbol

    def __hash__(self):
        return hash(("DiffOp", self.symbol))

    def __repr__(self):
        return f"DiffOp({self.symbol.to_string()!r})"


def apply(op, operand):
    """Apply an operator to a LaurentPoly or TruncSeries, exactly.

    Operand exponents must lie in N^n: a nonzero operator raises ValueError
    on a negative one.  On a series, the output degree drops by the largest
    derivative order the symbol takes in the truncated variable.
    """
    if op.arity != operand.arity:
        raise ValueError("arity mismatch between operator and operand")
    return _apply(op.symbol, operand)


class ProfileEntry(NamedTuple):
    m: int
    pp_zero: bool
    ppg_zero: bool
    pp_residual: LaurentPoly | None = None
    ppg_residual: LaurentPoly | None = None


class VanishingProfile(NamedTuple):
    """Per-m record of whether L^m(P^m) and L^m(P^m g) vanish, up to a horizon.

    A clean profile is only ever "verified up to M"; no finite horizon can
    prove the eventual-vanishing statement itself.
    """

    horizon: int
    entries: tuple[ProfileEntry, ...] = ()

    @property
    def first_pp_failure(self):
        return next((e.m for e in self.entries if not e.pp_zero), None)

    @property
    def ppg_zero_from(self):
        """Smallest t with L^m(P^m g) = 0 for all t <= m <= horizon, or None."""
        start = None
        for e in self.entries:
            if e.ppg_zero:
                if start is None:
                    start = e.m
            else:
                start = None
        return start


def check_horizon(horizon):
    """Refuse a horizon below 1: a scan over no m at all would report
    "all checks pass" vacuously."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")


def _kept_powers(symbol, p, g, horizon):
    """Yield the part of each power Lambda^m, m = 1..horizon, that lies in
    the box B_m, and stop at the first empty one (see `vanishing_profile`)."""
    if symbol.is_zero:
        return
    arity = symbol.arity
    t = [p.degree_in(i) for i in range(arity)]
    gamma = [g.degree_in(i) or 0 for i in range(arity)]
    ell = [symbol.min_exponent(i) for i in range(arity)]
    # B_1 = t + gamma + (H - 1) max(0, t - ell), and B_{m+1} = B_m + min(t, ell)
    box = [ti + gi + (horizon - 1) * max(0, ti - li) for ti, gi, li in zip(t, gamma, ell)]
    step = list(map(min, t, ell))
    kept = symbol
    for m in range(horizon):
        if m:
            kept *= symbol
            box = list(map(add, box, step))
        kept = _within(kept, box)
        if kept.is_zero:
            return
        yield kept


def vanishing_profile(op, p, g=None, horizon=8):
    """Scan m = 1..horizon and record both vanishing sequences.

    P^m is built once per m, one product each.  Without g, L^m(P^m g) is
    L^m(P^m): no product with g and one application per m.  When P and g
    have support in N^n (no g counts as g = 1), the scan builds only the
    part of Lambda^m that can still act on P^m g.  Per variable, let t =
    deg P, gamma = deg g (0 for g = 0), ell the smallest exponent in Supp
    Lambda and H the horizon, and let B_m = m t + gamma + (H - m) max(0,
    t - ell).  The scan keeps the terms mu <= B_m of Lambda^m, builds the
    next power as (kept Lambda^m) * Lambda, cut to B_{m+1}, and stops once
    the kept power is 0: every later entry is then zero, with no product or
    application.  No entry changes:

    1. Every exponent of P^m is at most m t, every one of P^m g at most
       m t + gamma <= B_m (g = 0 has none), and d^mu z^beta = 0 unless
       mu <= beta.  So at step m only the terms mu <= m t + gamma of
       Lambda^m act, on P^m g and on P^m alike.
    2. A term of Lambda^m' with m' >= m is mu + kappa, mu in Supp Lambda^m
       and kappa >= (m' - m) ell.  So a term that acts at a later step
       m' has mu <= B_m' - (m' - m) ell <= B_m, by step 3: each one comes
       from a kept term, and once none is kept none acts again.
    3. B_{m+1} - B_m = min(t, ell) <= ell.  The coefficient of Lambda^{m+1}
       at nu <= B_{m+1} sums Lambda^m at nu - lambda, lambda in Supp Lambda,
       and nu - lambda <= B_{m+1} - ell <= B_m.  So every kept coefficient
       is exact, by induction on m.

    Any other input (a P or g with a negative exponent, or arities that
    differ) runs the same scan over the whole of each Lambda^m, so it
    raises the same ValueError at the same m.
    """
    check_horizon(horizon)
    if p.is_zero:
        raise ValueError("P must be nonzero")
    times_g = g is not None
    if not times_g:
        g = LaurentPoly.one(p.arity)
    symbol = op.symbol
    if op.arity == p.arity == g.arity and p.is_holomorphic() and g.is_holomorphic():
        symbol_powers = _kept_powers(symbol, p, g, horizon)
    else:
        symbol_powers = powers(symbol, horizon)
    # zip asks for the symbol's power first: once those stop, no further P^m is built
    entries = []
    for m, (sym_m, p_m) in enumerate(zip(symbol_powers, powers(p, horizon)), start=1):
        op_m = DiffOp._from_symbol(sym_m)
        pp = apply(op_m, p_m)
        ppg = apply(op_m, p_m * g) if times_g else pp
        entries.append(ProfileEntry(
            m=m,
            pp_zero=pp.is_zero,
            ppg_zero=ppg.is_zero,
            pp_residual=None if pp.is_zero else pp,
            ppg_residual=None if ppg.is_zero else ppg,
        ))
    entries += [ProfileEntry(m, True, True) for m in range(len(entries) + 1, horizon + 1)]
    return VanishingProfile(horizon=horizon, entries=tuple(entries))
