"""Statements of the paper that the tests check and no library path uses.

A polytope's generators as `Fraction` points, the `Fraction` check of a
separation certificate, scaling and translating a polytope (the set
beta + m*Sigma of the move-away argument), semantic equality of two
generator lists, and the two binomial inequalities behind the order/degree
contradiction.
"""
from fractions import Fraction
from math import comb, factorial

from vanishlab.polytopes import RationalPolytope, contains_point
from vanishlab.simplex import exact


def generators(polytope):
    """The polytope's generators as `Fraction` points, read from its integer
    storage ``nums`` over ``den``."""
    return tuple(tuple(Fraction(v, polytope.den) for v in g) for g in polytope.nums)


def fraction_verify(cert, gens):
    """Whether ``cert`` separates the hull of ``gens`` from the orthant,
    checked in `Fraction`s: c >= 0, sum(c) = 1, delta > 0 and c.u <= -delta
    on every generator u."""
    c, delta = [Fraction(v) for v in cert.c], Fraction(cert.delta)
    if len(c) != len(gens[0]):
        return False
    if any(v < 0 for v in c) or sum(c) != 1 or delta <= 0:
        return False
    return all(sum(a * Fraction(b) for a, b in zip(c, g)) <= -delta for g in gens)


def scale_translate(polytope, m=1, beta=None):
    beta = (0,) * polytope.arity if beta is None else beta
    m, beta = Fraction(exact(m)), [Fraction(exact(v)) for v in beta]
    gens = [tuple(bb + m * v for bb, v in zip(beta, g)) for g in generators(polytope)]
    return RationalPolytope(gens)


def same_set(a, b):
    """Semantic equality: every generator of each side lies in the other."""
    if a.arity != b.arity:
        return False
    return (
        all(contains_point(b, g) is not None for g in generators(a))
        and all(contains_point(a, g) is not None for g in generators(b))
    )


def binomial_gap_check(d, r):
    """The two exact inequalities behind the order/degree contradiction.

    Returns ``(gap_ok, positivity)`` where positivity is None for r < 2.
    """
    if not 0 <= r <= d:
        raise ValueError("need d >= r >= 0")
    gap_ok = comb(2 * d, r) >= 2 ** r * comb(d, r)
    positivity = None
    if r >= 2:
        v = 0 if d < 2 * r else Fraction(factorial(d - r), factorial(d - 2 * r))
        a = Fraction(factorial(d), factorial(d - r))
        expr = (2 * v * a + 2 * a * a
                - Fraction(4 * factorial(d) * factorial(2 * d - r),
                           factorial(d - r) * factorial(2 * d - 2 * r))
                + Fraction(factorial(2 * d), factorial(2 * d - 2 * r)))
        positivity = expr > 0
    return gap_ok, positivity
