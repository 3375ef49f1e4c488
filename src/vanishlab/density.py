"""Finite-horizon searches along rays through supports of polynomial powers.

All verdicts here are horizon-bounded: the underlying density statement
gives existence of a hit with no effective bound on m, so a clean scan can
only ever report "inconclusive at horizon", never failure.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .diffops import check_horizon
from .poly import powers
from .polytopes import in_polytope, newton_polytope
from .simplex import exact, over_lcm

FOUND = "found"
INCONCLUSIVE = "inconclusive"
HYPOTHESIS_FAILS = "hypothesis-fails"
CONSISTENT = "consistent"
PREDICTS_NONZERO = "predicts-nonzero"


def _ray(direction):
    """The test "lam = k*direction for a rational k >= 0" on integer vectors lam.

    The direction is scaled once to integers v.  With j the first index
    where v_j != 0, lam is on the ray iff lam_i*v_j == lam_j*v_i for every i
    and lam_j*v_j >= 0; for v = 0 the ray is the origin.
    """
    v = over_lcm(direction)[0]
    j = next((i for i, x in enumerate(v) if x), None)
    if j is None:
        return lambda lam: not any(lam)
    vj = v[j]

    def test(lam):
        lj = lam[j]
        return lj * vj >= 0 and all(a * vj == lj * b for a, b in zip(lam, v))

    return test


class RaySearchReport(NamedTuple):
    u: tuple
    horizon: int
    hits: tuple = ()  # (m, exponent vector) pairs
    verdict: str = INCONCLUSIVE

    @property
    def first_hit(self):
        return self.hits[0][0] if self.hits else None


def ray_hits_support(p, u, horizon):
    """Scan Supp(P^m) for lattice points on the ray through u, m = 1..horizon."""
    check_horizon(horizon)
    u = tuple(Fraction(exact(v)) for v in u)
    if not in_polytope(newton_polytope(p), u):
        raise ValueError("u must lie in the Newton polytope of P")
    hit = _ray(u)
    hits = []
    for m, p_m in enumerate(powers(p, horizon), start=1):
        for lam in sorted(p_m.exponents()):
            if hit(lam):
                hits.append((m, lam))
    verdict = FOUND if hits else INCONCLUSIVE
    return RaySearchReport(u=u, horizon=horizon, hits=tuple(hits), verdict=verdict)


def homogeneous_density(p, u, horizon):
    """Hits for homogeneous P: exactly the m with m*u in Supp(P^m).

    Homogeneity (generalized degree d != 0) pins the ray's intersection
    with the degree-md hyperplane, which holds Supp(P^m), to the single
    point m*u: these are the m of the ray search's hits.
    """
    check_horizon(horizon)
    degrees = {sum(e) for e in p.exponents()}
    if len(degrees) != 1:
        raise ValueError("P must be homogeneous")
    if degrees == {0}:
        raise ValueError("degree must be nonzero")
    return [m for m, _ in ray_hits_support(p, u, horizon).hits]


class ConstantTermReport(NamedTuple):
    horizon: int
    constant_terms: tuple       # Fraction per m = 1..horizon
    first_nonzero: int | None
    zero_in_polytope: bool
    verdict: str


def dk_check(f, horizon):
    """Constant-term scan of f^m against membership of 0 in Poly(f).

    Classification: a nonzero constant term kills the hypothesis; otherwise
    0 outside the polytope is consistent, while 0 inside means a nonzero
    constant term is predicted beyond the horizon.
    """
    if f.is_zero:
        raise ValueError("f must be nonzero")
    check_horizon(horizon)
    terms = [f_m.constant_term() for f_m in powers(f, horizon)]
    first_nonzero = next((m for m, c in enumerate(terms, start=1) if c), None)
    origin = (0,) * f.arity
    zero_in = in_polytope(newton_polytope(f), origin)
    if first_nonzero is not None:
        verdict = HYPOTHESIS_FAILS
    elif zero_in:
        verdict = PREDICTS_NONZERO
    else:
        verdict = CONSISTENT
    return ConstantTermReport(
        horizon=horizon,
        constant_terms=tuple(terms),
        first_nonzero=first_nonzero,
        zero_in_polytope=zero_in,
        verdict=verdict,
    )
