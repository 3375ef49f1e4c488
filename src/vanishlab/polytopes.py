"""Exact rational polyhedral geometry in V-representation.

Every query here (membership, orthant disjointness, move-away bounds) is
expressed as a small rational LP over the generator list; no convex hull
or H-representation is ever computed.

A polytope stores its generators once, as integer numerators over one
positive common denominator; integer generators are kept as they are.
The LPs are built from those integers and reach the simplex as integer
rows over their own denominators, and the simplex answers in integers
too.  Every check of an answer (weights, a witness point, a separation
certificate) cross-multiplies integers, and a `Fraction` is built only for
a coordinate of the answer that is returned: the weights, the points, and
c and delta.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .simplex import OPTIMAL, exact, over_lcm, solve_lp


class RationalPolytope:
    """Convex hull of a finite generator set in Q^n.

    The generator list may contain redundant (non-vertex) points.  ``nums``
    holds them as integer numerators over the one positive denominator
    ``den``, the lcm of their denominators: integer generators are stored
    as they are, over 1.
    """

    __slots__ = ("arity", "nums", "den")

    def __init__(self, generators):
        nums = tuple(map(tuple, generators))
        if all(type(v) is int for g in nums for v in g):
            den = 1
        else:
            gens = tuple(tuple(v if type(v) is int or type(v) is Fraction else Fraction(exact(v))
                               for v in g) for g in nums)
            den = lcm(*(v.denominator for g in gens for v in g))
            nums = tuple(tuple(v.numerator * (den // v.denominator) for v in g) for g in gens)
        if not nums:
            raise ValueError("a polytope needs at least one generator")
        arity = len(nums[0])
        if not arity:
            raise ValueError("a generator needs at least one coordinate")
        if any(len(g) != arity for g in nums):
            raise ValueError("generators must share one arity")
        self._store(arity, nums, den)

    @classmethod
    def _from_integers(cls, arity, nums, den):
        """The polytope of the integer rows nums over den, taken as they are:
        nonempty tuples of arity ints, den > 0 and in lowest terms with them."""
        self = object.__new__(cls)
        self._store(arity, nums, den)
        return self

    def _store(self, arity, nums, den):
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    @property
    def generators(self):
        """The generators as `Fraction`s, read-only, built on each read."""
        den = self.den
        return tuple(tuple(Fraction(v, den) for v in g) for g in self.nums)

    def __setattr__(self, name, value):
        raise AttributeError("RationalPolytope is immutable")

    def __repr__(self):
        den = self.den
        pts = "; ".join("(" + ",".join(str(Fraction(v, den)) for v in g) + ")"
                        for g in self.nums)
        return f"RationalPolytope[{pts}]"


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
        """Check the certificate on the polytope's generators, in integers.

        With c = cn / l over the lcm l of its denominators, delta = p / q
        and the generators nums / den, c.u <= -delta is
        q * (cn . nums) <= -p * l * den.
        """
        return _checked(self, polytope) is not None


def _checked(certificate, polytope):
    """(cn, l, p, q), with c = cn / l over the lcm l of its denominators and
    delta = p / q, if the certificate is valid for the polytope; else None."""
    if len(certificate.c) != polytope.arity:
        return None
    cn, l = over_lcm(certificate.c)
    delta = exact(certificate.delta)
    p, q = delta.numerator, delta.denominator
    return (cn, l, p, q) if _separates(polytope, cn, l, p, q) else None


def _separates(polytope, cn, l, p, q):
    """Whether c = cn / l and delta = p / q, for l, q > 0, certify that the
    polytope misses the orthant: c >= 0, sum(c) = 1, delta > 0 and
    q * (cn . u) <= -p * l * den for every generator u = nums / den."""
    if any(v < 0 for v in cn) or sum(cn) != l or p <= 0:
        return False
    bound = -p * l * polytope.den
    return all(q * sum(map(mul, cn, g)) <= bound for g in polytope.nums)


def newton_polytope(poly):
    """Polytope generated by the support of a nonzero Laurent polynomial."""
    if poly.is_zero:
        raise ValueError("the zero polynomial has no Newton polytope")
    return RationalPolytope(sorted(poly.exponents()))


def minkowski_diff(a, b):
    """All pairwise generator differences: the Minkowski difference hull."""
    if a.arity != b.arity:
        raise ValueError("arity mismatch")
    # integer differences over den; sorting and deduplicating them is the
    # same as for the rational differences, since den > 0
    den = lcm(a.den, b.den)
    sa, sb = den // a.den, den // b.den
    rows = sorted({tuple(sa * u - sb * v for u, v in zip(ga, gb))
                   for ga in a.nums for gb in b.nums})
    # den over the common factor of every difference is the lcm of their
    # denominators, the den the rational differences would be stored over
    g = gcd(den, *(v for row in rows for v in row)) if den > 1 else 1
    if g > 1:
        rows, den = [tuple(v // g for v in row) for row in rows], den // g
    return RationalPolytope._from_integers(a.arity, tuple(rows), den)


def _combination(weights, polytope):
    """The numerators of the point sum(w_j u_j) for integer weights w_j over a
    positive denominator d: the point is these over d * polytope.den."""
    terms = [(w, g) for w, g in zip(weights, polytope.nums) if w]
    return [sum(w * g[i] for w, g in terms) for i in range(polytope.arity)]


def _fractions(nums, den):
    return tuple(Fraction(v, den) for v in nums)


def contains_point(polytope, point):
    """Exact membership test; returns convex coefficients or None.

    The coefficients come from the first basic feasible solution under
    Bland ordering, so they are deterministic but not canonical.
    """
    point = [exact(v) for v in point]
    if len(point) != polytope.arity:
        raise ValueError("arity mismatch")
    nums, den = polytope.nums, polytope.den
    k = len(nums)
    # coordinate row i is (nums[.][i] / den) . lambda = point[i], over den * point[i]'s denominator
    rows, rhs, dens = [], [], []
    for i, v in enumerate(point):
        d = v.denominator
        rows.append([g[i] * d for g in nums])
        rhs.append(v.numerator * den)
        dens.append(den * d)
    rows.append([1] * k)
    rhs.append(1)
    dens.append(1)
    status, x, _, _ = solve_lp(rows, rhs, [0] * k, dens)
    if status != OPTIMAL:
        return None
    return _fractions(*x)


def orthant_meet(polytope):
    """Decide with one LP whether the polytope meets R>=0^n, constructively.

    The LP finds the point sum(lambda_j u_j) of the polytope whose smallest
    coordinate t is largest; it has n + 1 rows however many generators
    there are.  If t >= 0 that point is returned as a Witness, with the
    primal lambda as its convex weights.  Otherwise the reduced costs of
    the surplus columns give the SeparationCertificate c, and delta = -t
    is its largest margin.  Either answer is checked in integers, and only
    the answer returned is built as `Fraction`s.

    The simplex starts at the best single generator u_j*, the one whose
    smallest coordinate u_j*,i* is largest: lambda_j* = 1, t = u_j*,i* and
    s_i = u_j*,i - t >= 0 is a feasible basis, so there is no phase 1.
    """
    nums, den = polytope.nums, polytope.den
    n = polytope.arity
    k = len(nums)
    # maximize t over {lambda >= 0, sum lambda = 1, sum lambda_j u_j - t*1 - s = 0, s >= 0}
    # columns: lambda_1..lambda_k, t+, t-, s_1..s_n; coordinate rows are over den
    rows = [[g[i] for g in nums] + [-den, den] + [-den if r == i else 0 for r in range(n)]
            for i in range(n)]
    rows.append([1] * k + [0] * (2 + n))
    objective = [0] * k + [1, -1] + [0] * n
    # the lowest-index maximizer j* of min(u_j) and the lowest-index minimizer i* of u_j*
    mins = [min(g) for g in nums]
    best = max(range(k), key=mins.__getitem__)
    low = nums[best].index(mins[best])
    start = [k + 2 + i for i in range(n)] + [best]
    start[low] = k if mins[best] >= 0 else k + 1
    status, x, t, reduced = solve_lp(rows, [0] * n + [1], objective, [den] * n + [1],
                                     start=start)
    if status == OPTIMAL:
        (xn, xden), (tn, tden) = x, t
        if tn < 0:
            # s_i's reduced cost is coordinate row i's optimal dual y_i <= 0, c = -y,
            # and delta = -t
            costs, cden = reduced
            cn = [-v for v in costs[k + 2:]]
            if _separates(polytope, cn, cden, -tn, tden):
                return SeparationCertificate(c=_fractions(cn, cden), delta=Fraction(-tn, tden))
        else:
            # lambda = xn / xden and the point sum(lambda_j u_j) = point / (xden * den)
            lam = xn[:k]
            point = _combination(lam, polytope)
            if sum(lam) == xden and all(v >= 0 for v in (*lam, *point)):
                return Witness(point=_fractions(point, xden * den))
    raise RuntimeError(f"the separation LP gave no valid answer for {polytope}")


def moveaway_bound(beta, polytope, certificate):
    """The N this certificate gives, with (beta + m*polytope) disjoint from R>=0^n for m >= N.

    If x were in the intersection then 0 <= c.x <= c.beta - m*delta, which
    forces m <= (c.beta)/delta; everything beyond is excluded.  N is not the
    smallest over all certificates: when the orthant LP has tied optima,
    another c with the same delta may give a smaller N.
    """
    checked = _checked(certificate, polytope)
    if checked is None:
        raise ValueError("invalid separation certificate for this polytope")
    if len(beta) != polytope.arity:
        raise ValueError(f"beta has {len(beta)} coordinates, the polytope lives in "
                         f"dimension {polytope.arity}")
    # with c = cn / l, beta = bn / lb and delta = p / q:
    # (c.beta) / delta = q * (cn . bn) / (l * lb * p)
    cn, l, p, q = checked
    bn, lb = over_lcm(beta)
    return max(1, q * sum(map(mul, cn, bn)) // (l * lb * p) + 1)


def difference_decomposition(a, b, w):
    """Split a rational w in A - B as u - v with u in A, v in B, both rational.

    The pair is whatever basic solution Bland's rule reaches first; the
    decomposition is not canonical.  Returns None when w is not in A - B.
    """
    if a.arity != b.arity:
        raise ValueError("arity mismatch")
    w = [exact(v) for v in w]
    ka, kb = len(a.nums), len(b.nums)
    den = lcm(a.den, b.den)
    sa, sb = den // a.den, den // b.den
    # coordinate row i is (a.nums, -b.nums)[.][i] / den = w[i], over den * w[i]'s denominator
    rows, rhs, dens = [], [], []
    for i, v in enumerate(w):
        fa, fb = sa * v.denominator, -sb * v.denominator
        rows.append([g[i] * fa for g in a.nums] + [g[i] * fb for g in b.nums])
        rhs.append(v.numerator * den)
        dens.append(den * v.denominator)
    rows.append([1] * ka + [0] * kb)
    rows.append([0] * ka + [1] * kb)
    rhs += [1, 1]
    dens += [1, 1]
    status, x, _, _ = solve_lp(rows, rhs, [0] * (ka + kb), dens)
    if status != OPTIMAL:
        return None
    xn, xden = x
    return (_fractions(_combination(xn[:ka], a), xden * a.den),
            _fractions(_combination(xn[ka:], b), xden * b.den))
