"""Exact rational polyhedral geometry in V-representation.

Every query here (membership, orthant disjointness, move-away bounds) is
expressed as a small rational LP over the generator list; no convex hull
or H-representation is ever computed.

A polytope stores its generators once, as integer numerators over one
positive common denominator; integer generators are kept as they are.
The membership LP is built from those integers and reaches the simplex
as integer rows over their own denominators; the orthant LP's start
tableau is written down from them in closed form and goes straight to
phase 2.  The simplex answers in integers too.  Every check of an answer
(weights, a witness point, a witness pair, a separation certificate)
cross-multiplies integers, and a `Fraction` is built only for a
coordinate of the answer that is returned: the points, and c and delta.
A witness's weights stay integer numerators over the LP's denominator.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from .simplex import OPTIMAL, exact, over_lcm, phase_two, solve_lp


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

    def __setattr__(self, name, value):
        raise AttributeError("RationalPolytope is immutable")

    def __repr__(self):
        den = self.den
        pts = "; ".join("(" + ",".join(str(Fraction(v, den)) for v in g) + ")"
                        for g in self.nums)
        return f"RationalPolytope[{pts}]"


class Witness(NamedTuple):
    """A rational point of the polytope inside the nonnegative orthant, and
    the convex weights on the polytope's generators that give it, as
    ``(nums, den)``: a tuple of integer numerators, one per generator, over
    one positive denominator, not necessarily in lowest terms."""

    point: tuple
    weights: tuple


class SeparationCertificate(NamedTuple):
    """A normalized nonnegative functional with c.u <= -delta on every generator.

    Existence is equivalent to the polytope missing the nonnegative orthant.
    `moveaway_bound` checks a certificate before it uses it.
    """

    c: tuple
    delta: Fraction


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


def _differences(a, b):
    """sa, sb and the differences sa * u - sb * v of A's and B's integer rows,
    over lcm(a.den, b.den) = sa * a.den, each mapped to the indices (i, j) of
    the first pair (u, v) that gives it."""
    if a.arity != b.arity:
        raise ValueError("arity mismatch")
    den = lcm(a.den, b.den)
    sa, sb = den // a.den, den // b.den
    first = {}
    for i, ga in enumerate(a.nums):
        for j, gb in enumerate(b.nums):
            first.setdefault(tuple(sa * u - sb * v for u, v in zip(ga, gb)), (i, j))
    return sa, sb, first


def minkowski_diff(a, b):
    """All pairwise generator differences: the Minkowski difference hull."""
    sa, sb, first = _differences(a, b)
    # integer differences over den > 0 sort as the rational differences do
    den = sa * a.den
    rows = sorted(first)
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


def _is_convex(weights, den):
    """Whether integer weights over den are >= 0 and sum to 1, with den > 0."""
    return den > 0 and sum(weights) == den and all(v >= 0 for v in weights)


def _weights(polytope, point):
    """Convex weights of the generators that give the point, as integer
    numerators over one positive denominator, checked; None if the point is
    outside."""
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
    # sum(lambda_j u_j) = point / (xden * den) = point, cross-multiplied
    lam, xden = x
    if _is_convex(lam, xden) and all(
            c * v.denominator == v.numerator * xden * den
            for c, v in zip(_combination(lam, polytope), point)):
        return lam, xden
    raise RuntimeError(f"the membership LP gave no valid answer for {point} in {polytope}")


def contains_point(polytope, point):
    """Exact membership test; returns convex coefficients or None.

    The coefficients come from the first basic feasible solution under
    Bland ordering, so they are deterministic but not canonical.  They are
    checked in integers (nonnegative, summing to 1, combining to the point)
    before they are built as `Fraction`s.
    """
    weights = _weights(polytope, point)
    return None if weights is None else _fractions(*weights)


def in_polytope(polytope, point):
    """Whether the point lies in the polytope: `contains_point`'s LP and its
    check, with no coefficient built."""
    return _weights(polytope, point) is not None


def _orthant_tableau(polytope):
    """The tableau of the orthant LP at its start basis, written down in
    closed form, as `phase_two` takes it: ``(tableau, basis, d)``.

    The columns are lambda_1..lambda_k, t+, t-, s_1..s_n; the rows are the
    coordinate rows ``sum_j lambda_j g_j[i] - den*t - den*s_i = 0`` over the
    generators' numerators g_j, then ``sum lambda = 1``.  The start basis is
    the best generator: j* maximizes min(g_j) and i* is where g_j* takes
    it, lowest indices first, m = g_j*[i*].  Row i* holds t+ (t- if m < 0,
    sign -1), every other coordinate row i its surplus s_i, and the sum row
    lambda_j*.  The basis has |det| = den^n, so with d = den^n and
    f = den^(n - 1) the tableau (d times its true entries) is, with
    every entry not named 0:

    - row i != i*: lambda_j f((g_j*[i] - m) - (g_j[i] - g_j[i*])),
      s_i d, s_i* -d, right-hand side f(g_j*[i] - m);
    - row i*: lambda_j sign*f(m - g_j[i*]), t+ sign*d, t- -sign*d,
      s_i* sign*d, right-hand side sign*f*m;
    - the sum row: d on every lambda, right-hand side d;
    - the objective row (maximize t+ - t-): lambda_j f(g_j[i*] - m),
      s_i* -d, and last -f*m, minus d times the start value m / den.
    """
    nums, den = polytope.nums, polytope.den
    n, k = polytope.arity, len(nums)
    mins = [min(g) for g in nums]
    best = max(range(k), key=mins.__getitem__)
    top, m = nums[best], mins[best]
    low = top.index(m)
    f = den ** (n - 1)
    d = f * den
    sign = 1 if m >= 0 else -1
    at_low = [g[low] for g in nums]
    zeros = [0] * (2 + n)
    tableau = []
    for i in range(n):
        if i == low:
            sf, sd = sign * f, sign * d
            row = [sf * (m - v) for v in at_low] + zeros + [sf * m]
            row[k], row[k + 1], row[k + 2 + i] = sd, -sd, sd
        else:
            gap = top[i] - m
            row = [f * (gap - g[i] + v) for g, v in zip(nums, at_low)] + zeros + [f * gap]
            row[k + 2 + i], row[k + 2 + low] = d, -d
        tableau.append(row)
    tableau.append([d] * k + zeros + [d])
    objective = [f * (v - m) for v in at_low] + zeros + [-f * m]
    objective[k + 2 + low] = -d
    tableau.append(objective)
    basis = [k + 2 + i for i in range(n)] + [best]
    basis[low] = k if sign > 0 else k + 1
    return tableau, basis, d


def orthant_meet(polytope):
    """Decide with one LP whether the polytope meets R>=0^n, constructively.

    The LP finds the point sum(lambda_j u_j) of the polytope whose smallest
    coordinate t is largest; it has n + 1 rows however many generators
    there are.  If t >= 0 that point is returned as a Witness, with the
    primal lambda as its convex weights, integer numerators over the LP's
    denominator.  Otherwise the reduced costs of the surplus columns give
    the SeparationCertificate c, and delta = -t is its largest margin.
    Either answer is checked in integers, and only its point, or c and
    delta, are built as `Fraction`s.

    The simplex starts at the best single generator u_j*, the one whose
    smallest coordinate u_j*,i* is largest: lambda_j* = 1, t = u_j*,i* and
    s_i = u_j*,i - t >= 0 is a feasible basis, so there is no phase 1.  Its
    tableau is written down (`_orthant_tableau`), and `phase_two` runs
    from it.
    """
    k = len(polytope.nums)
    status, x, t, reduced = phase_two(*_orthant_tableau(polytope))
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
            lam = tuple(xn[:k])
            point = _combination(lam, polytope)
            if _is_convex(lam, xden) and all(v >= 0 for v in point):
                return Witness(point=_fractions(point, xden * polytope.den), weights=(lam, xden))
    raise RuntimeError(f"the separation LP gave no valid answer for {polytope}")


def moveaway_bound(beta, polytope, certificate):
    """The N this certificate gives, with (beta + m*polytope) disjoint from R>=0^n for m >= N.

    If x were in the intersection then 0 <= c.x <= c.beta - m*delta, which
    forces m <= (c.beta)/delta; everything beyond is excluded.  N is not the
    smallest over all certificates: when the orthant LP has tied optima,
    another c with the same delta may give a smaller N.

    The certificate is checked first, in integers: ValueError if it does not
    separate the polytope from the orthant, TypeError for a float in it.
    """
    if len(certificate.c) != polytope.arity:
        raise ValueError("invalid separation certificate for this polytope")
    # with c = cn / l over the lcm l of its denominators, delta = p / q and
    # beta = bn / lb: (c.beta) / delta = q * (cn . bn) / (l * lb * p)
    cn, l = over_lcm(certificate.c)
    delta = exact(certificate.delta)
    p, q = delta.numerator, delta.denominator
    if not _separates(polytope, cn, l, p, q):
        raise ValueError("invalid separation certificate for this polytope")
    if len(beta) != polytope.arity:
        raise ValueError(f"beta has {len(beta)} coordinates, the polytope lives in "
                         f"dimension {polytope.arity}")
    bn, lb = over_lcm(beta)
    return max(1, q * sum(map(mul, cn, bn)) // (l * lb * p) + 1)


def witness_pair(a, b, witness):
    """A pair u in A, v in B whose difference is the point of a Witness of
    minkowski_diff(a, b): each generator of A - B puts its weight on the
    first (A-generator, B-generator) pair whose difference it is.  The pair
    is checked in integers (convex weights, one per generator, u - v the
    point) before it is built as `Fraction`s; RuntimeError if it fails."""
    sa, sb, first = _differences(a, b)
    pairs = [first[row] for row in sorted(first)]
    wn, l = witness.weights
    on_a, on_b = [0] * len(a.nums), [0] * len(b.nums)
    for (i, j), w in zip(pairs, wn):
        on_a[i] += w
        on_b[j] += w
    u, v = _combination(on_a, a), _combination(on_b, b)
    # u - v = (sa * u - sb * v) / (l * sa * a.den) is the point, cross-multiplied
    if len(wn) == len(pairs) and _is_convex(wn, l) and all(
            (sa * p - sb * q) * c.denominator == c.numerator * l * sa * a.den
            for p, q, c in zip(u, v, witness.point)):
        return _fractions(u, l * a.den), _fractions(v, l * b.den)
    raise RuntimeError(f"the weights of {witness} give no pair in {a} - {b}")


def _point_str(point):
    return "(" + ",".join(str(v) for v in point) + ")"
