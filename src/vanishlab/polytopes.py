"""Exact rational polyhedral geometry in V-representation.

Every query here (membership, orthant disjointness, move-away bounds) is
expressed as a small rational LP over the generator list; no convex hull
or H-representation is ever computed.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .simplex import OPTIMAL, exact, solve_lp


class RationalPolytope:
    """Convex hull of a finite generator set in Q^n.

    The generator list may contain redundant (non-vertex) points; equality
    is semantic, via mutual membership of generators.
    """

    __slots__ = ("arity", "generators")

    def __init__(self, generators):
        gens = tuple(tuple(Fraction(exact(v)) for v in g) for g in generators)
        if not gens:
            raise ValueError("a polytope needs at least one generator")
        arity = len(gens[0])
        if any(len(g) != arity for g in gens):
            raise ValueError("generators must share one arity")
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "generators", gens)

    def __setattr__(self, name, value):
        raise AttributeError("RationalPolytope is immutable")

    def __repr__(self):
        pts = "; ".join("(" + ",".join(str(v) for v in g) + ")" for g in self.generators)
        return f"RationalPolytope[{pts}]"

    def same_set(self, other):
        """Semantic equality: every generator of each side lies in the other."""
        if self.arity != other.arity:
            return False
        return (
            all(contains_point(other, g) is not None for g in self.generators)
            and all(contains_point(self, g) is not None for g in other.generators)
        )


@dataclass(frozen=True)
class Witness:
    """A rational point of the polytope inside the nonnegative orthant."""

    point: tuple


@dataclass(frozen=True)
class SeparationCertificate:
    """A normalized nonnegative functional with c.u <= -delta on every generator.

    Existence is equivalent to the polytope missing the nonnegative orthant.
    """

    c: tuple
    delta: Fraction

    def verify(self, polytope):
        if len(self.c) != polytope.arity:
            return False
        if any(v < 0 for v in self.c) or sum(self.c) != 1 or self.delta <= 0:
            return False
        return all(
            sum(a * b for a, b in zip(self.c, g)) <= -self.delta
            for g in polytope.generators
        )


def newton_polytope(poly):
    """Polytope generated by the support of a nonzero Laurent polynomial."""
    if poly.is_zero:
        raise ValueError("the zero polynomial has no Newton polytope")
    return RationalPolytope(sorted(poly.terms))


def minkowski_diff(a, b):
    """All pairwise generator differences: the Minkowski difference hull."""
    if a.arity != b.arity:
        raise ValueError("arity mismatch")
    gens = sorted({tuple(u - v for u, v in zip(ga, gb))
                   for ga in a.generators for gb in b.generators})
    return RationalPolytope(gens)


def scale_translate(polytope, m=1, beta=None):
    beta = (0,) * polytope.arity if beta is None else beta
    m, beta = Fraction(exact(m)), [Fraction(exact(v)) for v in beta]
    gens = [tuple(bb + m * v for bb, v in zip(beta, g)) for g in polytope.generators]
    return RationalPolytope(gens)


def contains_point(polytope, point):
    """Exact membership test; returns convex coefficients or None.

    The coefficients come from the first basic feasible solution under
    Bland ordering, so they are deterministic but not canonical.
    """
    point = tuple(Fraction(exact(v)) for v in point)
    if len(point) != polytope.arity:
        raise ValueError("arity mismatch")
    gens = polytope.generators
    k = len(gens)
    rows = [[g[i] for g in gens] for i in range(polytope.arity)]
    rows.append([Fraction(1)] * k)
    rhs = list(point) + [Fraction(1)]
    status, x, _, _ = solve_lp(rows, rhs, [Fraction(0)] * k)
    if status != OPTIMAL:
        return None
    return tuple(x)


def orthant_meet(polytope):
    """Decide with one LP whether the polytope meets R>=0^n, constructively.

    The LP finds the point sum(lambda_j u_j) of the polytope whose smallest
    coordinate t is largest; it has n + 1 rows however many generators
    there are.  If t >= 0 that point is returned as a Witness, with the
    primal lambda as its convex weights.  Otherwise the reduced costs of
    the surplus columns give the SeparationCertificate c, and delta = -t
    is its largest margin.  Either answer is checked first.
    """
    gens = polytope.generators
    n = polytope.arity
    k = len(gens)
    # maximize t over {lambda >= 0, sum lambda = 1, sum lambda_j u_j - t*1 - s = 0, s >= 0}
    # columns: lambda_1..lambda_k, t+, t-, s_1..s_n
    rows = [[g[i] for g in gens] + [Fraction(-1), Fraction(1)]
            + [Fraction(-int(r == i)) for r in range(n)] for i in range(n)]
    rows.append([Fraction(1)] * k + [Fraction(0)] * (2 + n))
    rhs = [Fraction(0)] * n + [Fraction(1)]
    objective = [Fraction(0)] * k + [Fraction(1), Fraction(-1)] + [Fraction(0)] * n
    status, x, t, reduced = solve_lp(rows, rhs, objective)
    if status == OPTIMAL and t < 0:
        # s_i's reduced cost is coordinate row i's optimal dual y_i <= 0, and c = -y
        meet = SeparationCertificate(c=tuple(-r for r in reduced[k + 2:]), delta=-t)
        if meet.verify(polytope):
            return meet
    elif status == OPTIMAL:
        lam = x[:k]
        meet = Witness(point=tuple(sum(l * g[i] for l, g in zip(lam, gens)) for i in range(n)))
        if sum(lam) == 1 and all(v >= 0 for v in (*lam, *meet.point)):
            return meet
    raise RuntimeError(f"the separation LP gave no valid answer for {polytope}")


def moveaway_bound(beta, polytope, certificate):
    """The N this certificate gives, with (beta + m*polytope) disjoint from R>=0^n for m >= N.

    If x were in the intersection then 0 <= c.x <= c.beta - m*delta, which
    forces m <= (c.beta)/delta; everything beyond is excluded.  N is not the
    smallest over all certificates: when the orthant LP has tied optima,
    another c with the same delta may give a smaller N.
    """
    if not certificate.verify(polytope):
        raise ValueError("invalid separation certificate for this polytope")
    if len(beta) != polytope.arity:
        raise ValueError(f"beta has {len(beta)} coordinates, the polytope lives in "
                         f"dimension {polytope.arity}")
    beta = tuple(Fraction(exact(v)) for v in beta)
    cb = sum(a * b for a, b in zip(certificate.c, beta))
    return max(1, (cb / certificate.delta).__floor__() + 1)


def difference_decomposition(a, b, w):
    """Split a rational w in A - B as u - v with u in A, v in B, both rational.

    The pair is whatever basic solution Bland's rule reaches first; the
    decomposition is not canonical.  Returns None when w is not in A - B.
    """
    if a.arity != b.arity:
        raise ValueError("arity mismatch")
    w = tuple(Fraction(exact(v)) for v in w)
    n = a.arity
    ka, kb = len(a.generators), len(b.generators)
    rows = []
    rhs = []
    for i in range(n):
        rows.append([g[i] for g in a.generators] + [-g[i] for g in b.generators])
        rhs.append(w[i])
    rows.append([Fraction(1)] * ka + [Fraction(0)] * kb)
    rhs.append(Fraction(1))
    rows.append([Fraction(0)] * ka + [Fraction(1)] * kb)
    rhs.append(Fraction(1))
    status, x, _, _ = solve_lp(rows, rhs, [Fraction(0)] * (ka + kb))
    if status != OPTIMAL:
        return None
    u = tuple(sum(l * g[i] for l, g in zip(x[:ka], a.generators)) for i in range(n))
    v = tuple(sum(l * g[i] for l, g in zip(x[ka:], b.generators)) for i in range(n))
    return u, v
