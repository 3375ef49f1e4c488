"""Seeded request lists for the benchmark workloads.

A request is one ``vanishlab`` argv list (always with ``--format
structured``) plus a ``spec`` dict holding the exact inputs it was built
from, so the oracle can recompute the answer without parsing the argv or
touching vanishlab.  This module imports nothing from vanishlab.

Every list is stratified: the number of requests of each kind and size
class is fixed, and the seed draws the contents inside each class.  That
keeps the cost of one pass over the list nearly the same from seed to
seed, which the run-to-run bounds depend on.
"""
from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("series", "orthant", "cli-mix")


def _request(kind, argv, **spec):
    return {"kind": kind, "argv": list(argv) + ["--format", "structured"], "spec": spec}


def poly_str(terms, names):
    """Print an exponent -> coefficient dict in vanishlab's input grammar."""
    parts = []
    for expo, c in sorted(terms.items(), reverse=True):
        c = Fraction(c)
        if not c:
            continue
        mono = "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, expo) if e)
        mag = abs(c)
        body = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
        parts.append(("-" if c < 0 else "+", body))
    if not parts:
        return "0"
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return text + "".join(f" {sign} {body}" for sign, body in parts[1:])


def point_str(point):
    return "(" + ",".join(str(Fraction(v)) for v in point) + ")"


def _clean(terms):
    return {e: Fraction(c) for e, c in terms.items() if c}


def _nonzero(rng, lo, hi):
    return rng.choice([v for v in range(lo, hi + 1) if v])


# ---------------------------------------------------------------------------
# series: counterexample ddv|dk at seeded (M, D)

# (kind, M) -> requests per pass.  D comes in antithetic pairs
# (M+2+r, 2M-r) with the offsets r of a stratum spread evenly over
# 0..M-2 from one seeded start, so the sizes in a stratum, and with them
# the cost of a pass and its quantiles, vary little from seed to seed.
# ddv stops at M=5 and dk at M=10 so that a pass stays short enough to be
# repeated; the anchors carry ddv to M=6 and M=10.
_SERIES_STRATA = {
    ("ddv", 3): 16, ("ddv", 4): 14, ("ddv", 5): 8,
    ("dk", 3): 16, ("dk", 4): 14, ("dk", 5): 10, ("dk", 6): 8,
    ("dk", 7): 6, ("dk", 8): 4, ("dk", 9): 2, ("dk", 10): 2,
}
# ROADMAP reference points, present on every seed.
_SERIES_ANCHORS = (("ddv", 6, 12), ("ddv", 10, 20))
_SERIES_TINY = {("ddv", 3): 2, ("dk", 3): 2, ("dk", 4): 2}


def series(rng, tiny=False):
    sizes = [] if tiny else list(_SERIES_ANCHORS)
    for (kind, m), count in (_SERIES_TINY if tiny else _SERIES_STRATA).items():
        pairs = count // 2
        start = rng.random()
        for j in range(pairs):
            r = int((j + start) * (m - 1) / pairs)
            sizes += [(kind, m, m + 2 + r), (kind, m, 2 * m - r)]
    rng.shuffle(sizes)
    return [_request("series", ["counterexample", kind, "-M", str(m), "-D", str(d)],
                     which=kind, horizon=m, precision=d)
            for kind, m, d in sizes]


# ---------------------------------------------------------------------------
# orthant: polytope queries on Sigma = Poly(P) - Poly(Lambda)

# (n, |Supp P|, |Supp Lambda|, requests per pass).  The strata are sized so
# that the median falls inside the n=3 block and the 90th percentile inside
# the n=4 block, where many similar queries make both quantiles steady.
_ORTHANT_STRATA = ((2, 3, 2, 60), (3, 3, 3, 96), (4, 4, 3, 36), (5, 4, 4, 6))
_ORTHANT_TINY = ((2, 2, 2, 3), (3, 2, 2, 3))
# ROADMAP-sized 60-generator queries in Q^6.  Their LP cost swings by a
# factor of two between random instances, so they come from fixed seeds
# (one certificate, one witness, about 3 s each) and are the same on every
# workload seed, like the series reference points.
_ORTHANT_ANCHOR_SEEDS = ("anchor-16", "anchor-18")


def _draw(rng, n, lo, hi, keep=lambda v: True):
    while True:
        v = tuple(rng.randrange(lo, hi) for _ in range(n))
        if keep(v):
            return v


def _sigma(rng, n, a, b, meets=None, exact=None):
    """Generators of Poly(P) - Poly(Lambda) for random supports of P in
    [0,3]^n and Lambda in [1,3]^n.  meets=True plants a point of P above a
    point of Lambda, so Sigma meets the orthant (a witness); meets=False
    keeps |p| <= n < |lambda|, so every generator has a negative coordinate
    sum (a certificate).  Fixing the outcome per slot keeps the one-LP and
    two-LP queries in the same proportion on every seed."""
    while True:
        if meets is False:
            p = {_draw(rng, n, 0, 4, lambda v: sum(v) <= n) for _ in range(a)}
            lam = {_draw(rng, n, 1, 4, lambda v: sum(v) > n) for _ in range(b)}
        else:
            p = {_draw(rng, n, 0, 4) for _ in range(a - bool(meets))}
            lam = {_draw(rng, n, 1, 4) for _ in range(b)}
            if meets:
                base = rng.choice(sorted(lam))
                p.add(tuple(v + rng.randrange(2) for v in base))
        gens = sorted({tuple(u - v for u, v in zip(s, t)) for s in p for t in lam})
        if exact is None or len(gens) == exact:
            return gens


def _polytope_request(rng, gens, with_point):
    n = len(gens[0])
    beta = tuple(rng.randrange(4) for _ in range(n))
    argv = ["polytope", "--sigma=" + ";".join(point_str(g) for g in gens),
            "--beta=" + point_str(beta)]
    point = None
    if with_point:
        g1, g2 = rng.sample(gens, 2) if len(gens) > 1 else (gens[0], gens[0])
        shift = Fraction(rng.choice([0, 0, 1, 3]), 2)
        point = tuple(Fraction(u + v, 2) + shift for u, v in zip(g1, g2))
        argv += ["--point=" + point_str(point)]
    return _request("polytope", argv, generators=gens, beta=beta, point=point)


def orthant(rng, tiny=False):
    reqs = []
    for n, a, b, count in (_ORTHANT_TINY if tiny else _ORTHANT_STRATA):
        for i in range(count):
            gens = _sigma(rng, n, a, b, meets=i % 2 == 0)
            reqs.append(_polytope_request(rng, gens, i % 3 == 0))
    if not tiny:
        for name in _ORTHANT_ANCHOR_SEEDS:
            fixed = random.Random(name)
            reqs.append(_polytope_request(fixed, _sigma(fixed, 6, 10, 6, exact=60), False))
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# cli-mix: small requests across every subcommand

# Each generator takes its slot i (0, 1, ... within its kind) and derives
# the shape that sets a request's cost (variables, term counts, degrees,
# horizon) from i, so every seed gets the same mix of shapes; the seed
# draws exponents and coefficients within the shape.

def _vanish(rng, i):
    """2-3-term operator in 2-3 variables; half the instances satisfy the
    power hypothesis by construction (P free of the variables the operator
    differentiates in every term)."""
    n = (2, 3)[i % 2]
    structured = i // 2 % 2 == 1
    names = ["x", "y", "z"][:n]
    op = {}
    while len(op) < (2, 3)[i // 4 % 2]:
        mu = [rng.randrange(3) for _ in range(n)]
        if structured:
            mu[rng.randrange(1, n)] += 1
        if sum(mu):
            op[tuple(mu)] = _nonzero(rng, -2, 2)
    p = {}
    while len(p) < (2, 3)[i // 8 % 2]:
        e = [rng.randrange(3) for _ in range(n)]
        if structured:
            e[1:] = [0] * (n - 1)
        p[tuple(e)] = _nonzero(rng, -3, 3)
    g = {}
    while len(g) < (1, 2)[i // 20 % 2]:
        g[tuple(rng.randrange(3) for _ in range(n))] = _nonzero(rng, -2, 2)
    horizon = (3, 4)[i // 16 % 2]
    argv = ["vanish", "--vars", ",".join(names), "--op=" + poly_str(op, ["d" + v for v in names]),
            "--p=" + poly_str(p, names), "--g=" + poly_str(g, names), "-M", str(horizon)]
    return _request("vanish", argv, names=names, op=_clean(op), p=_clean(p), g=_clean(g),
                    horizon=horizon)


def _one_var(rng, i):
    """The criterion-6 family of tests/test_acceptance.py: symbol
    xi^m1 (1 + q(xi)), deg P = d < m1, g a monomial."""
    d = i % 7
    m1 = d + 1 + i // 3 % 3
    q = {0: Fraction(1)}
    for k in rng.sample(range(1, 4), i // 7 % 3):
        q[k] = Fraction(_nonzero(rng, -3, 3))
    lam = {(m1 + k,): c for k, c in q.items()}
    p = {(d,): Fraction(rng.choice([1, 2, 3]))}
    for e in rng.sample(range(d), min(d, i // 5 % 3)):
        p[(e,)] = Fraction(_nonzero(rng, -3, 3))
    dg = 3 * i % 7
    g = {(dg,): Fraction(rng.choice([1, 2]))}
    argv = ["case", "one-var", "--vars", "x", "--op=" + poly_str(lam, ["dx"]),
            "--p=" + poly_str(p, ["x"]), "--g=" + poly_str(g, ["x"]), "-M", "8"]
    return _request("case", argv, which="one-var", horizon=8, bound=Fraction(dg, m1 - d))


def _phi(rng, i):
    """The criterion-7 family of tests/test_acceptance.py: Phi of order
    2..4, f in y of degree below the order, g of two terms."""
    order = 2 + i % 3
    phi = {(order,): Fraction(rng.choice([-2, -1, 1, 2]))}
    for k in rng.sample(range(order + 1, order + 3), i // 3 % 3):
        phi[(k,)] = Fraction(_nonzero(rng, -2, 2))
    ys = rng.sample(range(order), min(order, 1 + i // 9 % 2))
    f = {(0, ys[0]): Fraction(rng.choice([1, 2]))}
    for y in ys[1:]:
        f[(0, y)] = Fraction(_nonzero(rng, -2, 2))
    g = {}
    while len(g) < 2:
        g[(rng.randrange(2), rng.randrange(3))] = Fraction(_nonzero(rng, -2, 2))
    d = max(e[1] for e in f)
    bound = Fraction(order * max(e[0] for e in g) + max(e[1] for e in g), order - d)
    argv = ["case", "phi", "--vars", "x,y", "--phi=" + poly_str(phi, ["dy"]),
            "--f=" + poly_str(f, ["x", "y"]), "--g=" + poly_str(g, ["x", "y"]), "-M", "8"]
    return _request("case", argv, which="phi", horizon=8, bound=bound)


def _monomial(rng, i):
    """P a monomial, operator of 1-2 terms, g of 1-2 monomials (two variables)."""
    p = {(rng.randrange(4), rng.randrange(4)): Fraction(_nonzero(rng, -2, 3))}
    op = {}
    while len(op) < (1, 2)[i % 2]:
        mu = (rng.randrange(4), rng.randrange(4))
        if any(mu):
            op[mu] = Fraction(_nonzero(rng, -2, 2))
    g = {}
    while len(g) < (1, 2)[i // 2 % 2]:
        g[(rng.randrange(3), rng.randrange(3))] = Fraction(_nonzero(rng, -2, 2))
    return _case_request("monomial", op, p, g, 5)


def _two_monomial(rng, i):
    """a*d^alpha + b*d^beta with |alpha| != |beta| and P homogeneous in N^2."""
    while True:
        alpha = (rng.randrange(4), rng.randrange(4))
        beta = (rng.randrange(4), rng.randrange(4))
        if sum(alpha) != sum(beta):
            break
    op = {alpha: Fraction(_nonzero(rng, -3, 3)), beta: Fraction(_nonzero(rng, -3, 3))}
    deg = 1 + i % 3
    p = {(j, deg - j): Fraction(_nonzero(rng, -2, 2))
         for j in rng.sample(range(deg + 1), (1, 2)[i // 3 % 2])}
    g = {(rng.randrange(3), rng.randrange(3)): Fraction(1)}
    return _case_request("two-monomial", op, p, g, 5)


def _case_request(which, op, p, g, horizon):
    names = ["x", "y"]
    argv = ["case", which, "--vars", "x,y", "--op=" + poly_str(op, ["dx", "dy"]),
            "--p=" + poly_str(p, names), "--g=" + poly_str(g, names), "-M", str(horizon)]
    return _request("case", argv, which=which, names=names, op=op, p=p, g=g, horizon=horizon)


def _density(rng, i):
    """Ray search through Supp(P^m) for u a support point or a midpoint."""
    p = {}
    while len(p) < (2, 3)[i % 2]:
        p[(rng.randrange(4), rng.randrange(4))] = Fraction(rng.randrange(1, 4))
    support = sorted(p)
    if i // 2 % 2:
        s1, s2 = rng.sample(support, 2)
        u = tuple(Fraction(a + b, 2) for a, b in zip(s1, s2))
    else:
        u = tuple(Fraction(v) for v in rng.choice(support))
    horizon = (4, 5)[i // 4 % 2]
    argv = ["density", "--vars", "x,y", "--p=" + poly_str(p, ["x", "y"]),
            "--u=" + point_str(u), "-M", str(horizon)]
    return _request("density", argv, p=p, u=u, horizon=horizon)


def _dk(rng, i):
    """Constant-term scan of a Laurent f in one or two variables."""
    n = (1, 2)[i % 2]
    names = ["x", "y"][:n]
    f = {}
    while len(f) < (2, 3)[i // 2 % 2]:
        f[tuple(rng.randrange(-2, 3) for _ in range(n))] = Fraction(_nonzero(rng, -2, 2))
    argv = ["dk", "--vars", ",".join(names), "--f=" + poly_str(f, names), "-M", "6"]
    return _request("dk", argv, f=f, horizon=6)


def _small_polytope(rng, i):
    n = (2, 3)[i % 2]
    gens = set()
    while len(gens) < 2 + i // 4 % 5:
        gens.add(tuple(rng.randrange(-3, 4) for _ in range(n)))
    return _polytope_request(rng, sorted(gens), i // 2 % 2 == 1)


_CLI_MIX = ((_vanish, 80), (_one_var, 40), (_phi, 40), (_monomial, 30),
            (_two_monomial, 30), (_density, 60), (_dk, 60), (_small_polytope, 60))


def cli_mix(rng, tiny=False):
    reqs = [make(rng, i) for make, count in _CLI_MIX for i in range(2 if tiny else count)]
    rng.shuffle(reqs)
    return reqs


def build(workload, seed, tiny=False):
    """The request list of one workload; the same seed gives the same list."""
    make = {"series": series, "orthant": orthant, "cli-mix": cli_mix}[workload]
    reqs = make(random.Random(f"{workload}:{seed}"), tiny)
    for i, req in enumerate(reqs):
        req["id"] = i
    return reqs
