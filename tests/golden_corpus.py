"""The golden corpus: CLI requests whose output is a behaviour contract.

``tests/golden_corpus.json`` stores, for every request, the argv list, the
exit code and the exact stdout.  Every request runs with ``--format
structured``, and some run again with ``--format text``, the default: one
per case checker and one per verdict of every other subcommand.  ``test_golden.py`` replays it byte for byte.  The
requests are the README examples, the two
series counterexamples at M = 1..8, and one seeded instance of each
acceptance-test family that the CLI can express (the binomial gap of
criterion 8 has no CLI form), one request for each checker path that
prints an orthant witness, a few polytope queries with several optimal
answers, which pin the one the orthant LP prints, polytope queries whose
generators have mixed denominators, requests that pin the printing and
parsing of coefficients and the operator kernel at a larger horizon, and
the series counterexamples at their precision edges and at M=10/D=20 and
M=30/D=60,
polytope queries on the edges of the orthant LP's start basis, and the
homogeneous density search, the operator-monomial, two-monomial-P and
fractional-symbol case paths, and the spellings of points that reach the
polytope layer as integers or as fractions, the flow case with P = 0,
Phi = 0 and g = 0, a profile whose products widen the packed keys, the
case verdicts that no entry above reaches (inconclusive, a bound past the
horizon, the flow case's anomaly), the exit paths of vanish, dk and
density that no entry above pins, and requests that give --vars to the
flow case, the monomial case and the density search, and the flow case's
coordinate-change note for a negative and a unit coefficient, profiles
with g = 0, and the output paths no other entry reaches (a profile of a
g with a negative exponent, a two-monomial failure past the
horizon, a certificate verified from its bound, a mirrored two-monomial case
and a profile that stops early), and two profiles with P or g outside
N^n that raise no error.  Only valid inputs are recorded.

Regenerate (only when an output change is intended, and say so):

    PYTHONPATH=src python tests/golden_corpus.py
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

CORPUS = Path(__file__).with_name("golden_corpus.json")

README = [
    ["vanish", "--op=dx*dy", "--p=x^2 + y^2", "-M", "6"],
    ["polytope", "--sigma=(-2,1);(1,-2)", "--beta=(3,3)"],
    ["density", "--p=x + y", "--u=(1/2,1/2)", "-M", "8"],
    ["dk", "--vars=x", "--f=x^-1 + x"],
    ["case", "one-var", "--vars=x", "--op=dx^2", "--p=x", "--g=x^3"],
    ["case", "phi", "--phi=dy^2", "--f=y", "--g=x^2*y"],
    ["case", "monomial", "--op=dx^2", "--p=x*y", "--g=x^3"],
    ["case", "two-monomial", "--op=dx^2 + dy^3", "--p=x*y"],
    ["counterexample", "ddv", "-M", "6", "-D", "12"],
]

# the monomial and two-monomial checkers' witness notes; the last one's
# orthant weights are split over two generators of Sigma, so its witness
# pair is built from two (A, B) generator pairs
WITNESS = [
    ["case", "two-monomial", "--op=dx + dy^2", "--p=x^2*y", "-M", "6"],
    ["case", "monomial", "--op=dx^2 + dy^2", "--p=x*y", "-M", "4"],
    ["case", "two-monomial", "--op=dx + dx^2", "--p=x^3 + x*y^2", "-M", "4"],
]

# polytope queries whose orthant LP has tied optima: a witness, and a
# certificate c with its move-away bound
TIES = [
    ["polytope", "--sigma=(-1,0);(-1,1);(0,0);(0,1)", "--beta=(3,3)"],
    ["polytope", "--sigma=(-1,1,0);(0,0,-1);(0,0,1);(1,1,0);(2,0,-1);(2,0,1)",
     "--beta=(0,1,1)"],
    ["polytope", "--sigma=(-3,0,-1);(-3,0,1);(-2,-1,-1);(-2,0,-3);(-2,0,-1);(-1,-1,-3);"
     "(-1,-1,-1);(0,-2,-3)", "--beta=(3,0,1)"],
    ["polytope", "--sigma=(-1,-2,-2);(0,-2,-3);(1,-2,-3)", "--beta=(0,0,2)"],
]

# polytope queries with generators over mixed denominators (1/2, 2/3, -5/4):
# a tied witness with a point inside, a certificate that every c in the
# simplex ties on, a point outside with a move-away bound, and a point
# inside with one
FRACTIONAL = [
    ["polytope", "--sigma=(1,2/3);(2,2/3);(-5/4,0)", "--point=(3/2,2/3)", "--beta=(1,1)"],
    ["polytope", "--sigma=(-1/2,-1/2);(-5/4,-2/3)", "--beta=(2/3,5/4)"],
    ["polytope", "--sigma=(-1/2,2/3,-5/4);(1/2,-5/4,-2/3);(-5/4,-1/2,2/3)", "--point=(1,1,1)",
     "--beta=(1/2,2/3,5/4)"],
    ["polytope", "--sigma=(1/2,-5/4);(-5/4,2/3);(-2/3,-1/2)", "--point=(-1/2,-1/3)",
     "--beta=(5/4,1/2)"],
]

# residuals with fractional, negative and leading-minus coefficients; a P
# whose monomials repeat and cancel; a three-variable profile at M=10; a ray
# through a fractional point that the support meets at m=2 and m=4
PRINTING = [
    ["vanish", "--op=1/2*dx^2 - 3/4*dy", "--p=2/3*x^3 - x*y^2 + 5/2*y", "-M", "3"],
    ["vanish", "--op=dx^2 + dy", "--p=x*y + 2*x*y - 3*x*y + y^2 + x", "-M", "3"],
    ["vanish", "--vars=x,y,z", "--op=dx^2*dy + dy^3 + dx*dz^2", "--p=x*y + y*z + x*z + x^2",
     "-M", "10"],
    ["density", "--p=x^2 + 3*x*y^2 + y", "--u=(3/2,1)", "-M", "5"],
]

# polytope queries on the edges of the orthant LP's start basis (the
# generator whose smallest coordinate is largest): one generator in one
# dimension, a tie on the smallest coordinate, a degenerate start with
# t = 0, a tie on the best generator with a duplicate, and a start vertex
# that phase 2 must leave
START_EDGES = [
    ["polytope", "--sigma=(-2)", "--beta=(3)"],
    ["polytope", "--sigma=(1,1,1)"],
    ["polytope", "--sigma=(0,2);(-1,-1)", "--beta=(1,1)"],
    ["polytope", "--sigma=(-1,-2);(-2,-1);(-1,-2);(-3,0)", "--beta=(2,2)"],
    ["polytope", "--sigma=(2,-1);(-1,2)", "--point=(1/2,1/2)"],
]

# the series counterexamples at the precision edges, where the depth
# D - m of the last m is smallest, at the benchmark's M=10/D=20 size, and
# at M=30/D=60 with its precision edges M=20/D=22 (ddv) and M=20/D=20 (dk)
SERIES_EDGES = [
    ["counterexample", "ddv", "-M", "8", "-D", "10"],
    ["counterexample", "dk", "-M", "8", "-D", "8"],
    ["counterexample", "dk", "-M", "12", "-D", "12"],
    ["counterexample", "ddv", "-M", "10", "-D", "20"],
    ["counterexample", "dk", "-M", "10", "-D", "20"],
    ["counterexample", "ddv", "-M", "30", "-D", "60"],
    ["counterexample", "dk", "-M", "30", "-D", "60"],
    ["counterexample", "ddv", "-M", "20", "-D", "22"],
    ["counterexample", "dk", "-M", "20", "-D", "20"],
]

# the homogeneous density search (a hit, no hit, a negative degree), the
# operator-monomial variant of the monomial case (a certificate, a
# witness) and a fractional symbol, the two-monomial-P path of a
# homogeneous operator (a certificate, a witness pair, the single-monomial
# route), and fractional Phi (one with an order-1 coordinate change)
CASE_PATHS = [
    ["density", "--p=x^2 + y^2", "--u=(1/2,3/2)", "--homogeneous", "-M", "6"],
    ["density", "--p=x^2 + y^2", "--u=(1/2,3/2)", "--homogeneous", "-M", "3"],
    ["density", "--p=x^-1 + y^-1", "--u=(-1/2,-1/2)", "--homogeneous", "-M", "4"],
    ["case", "monomial", "--op=dx^3", "--p=x*y + y^2", "--g=x", "-M", "6"],
    ["case", "monomial", "--op=dx", "--p=x*y + y^2", "--g=x", "-M", "4"],
    ["case", "monomial", "--op=1/2*dx^2 - 3/4*dy^2", "--p=x^2*y^2", "--g=x*y", "-M", "5"],
    ["case", "two-monomial", "--op=dx^2", "--p=x*y + y", "-M", "4"],
    ["case", "two-monomial", "--op=dx*dy", "--p=x^2*y + y^2", "-M", "5"],
    ["case", "two-monomial", "--op=dx^2 + dx*dy", "--p=x*y", "-M", "4"],
    ["case", "phi", "--phi=1/2*dy^2 - 2/3*dy^3", "--f=y", "--g=x*y", "-M", "6"],
    ["case", "phi", "--phi=3/2*dy + dy^3", "--f=y^2", "--g=x + y", "-M", "6"],
]

# point spellings on the polytope request path: leading zeros, -0, blanks
# around coordinates and parentheses, a trailing ';', integral p/q, integer
# generators with fractional --point and --beta, one fractional coordinate
# among integers; and fractional symbols whose move-away bounds come from
# integer exponents, through Poly(f) and through Poly(P) - Poly(Lambda)
SPELLINGS = [
    ["polytope", "--sigma=(007,-2);(-0,-1);(-3,010)", "--point=(-0,-1)", "--beta=(007,-0)"],
    ["polytope", "--sigma= ( 1 , -2 ) ; (-3, 1) ;", "--point=( 1 , -2 )", "--beta=( 2 , 3 )"],
    ["polytope", "--sigma=(4/2,-3);(-1,6/3);(-12/4,-1)", "--beta=(2,1)"],
    ["polytope", "--sigma=(-2,1);(1,-2);(-1,-1)", "--point=(-1/2,-1/2)", "--beta=(3/2,5/4)"],
    ["polytope", "--sigma=(2,-1,0);(-1,2,-1);(0,0,3)", "--point=(1/3,1/3,1/3)"],
    ["polytope", "--sigma=(-2,1,0);(1,-2,-1/3);(-1,-1,-1)", "--beta=(1,2,0)"],
    ["case", "monomial", "--op=-3/2*dx^2*dy", "--p=x*y + x^3", "--g=x^2", "-M", "5"],
    ["case", "two-monomial", "--op=1/2*dx^2 - 2/3*dy^3", "--p=x*y", "--g=x + y", "-M", "5"],
]

# the flow case's early exits (P = 0, Phi = 0, g = 0), and a profile whose
# summed reaches widen the packed-key layout
EDGES = [
    ["case", "phi", "--phi=dy^2", "--f=0", "-M", "3"],
    ["case", "phi", "--phi=0", "--f=y", "--g=x^2*y", "-M", "4"],
    ["case", "phi", "--phi=dy^2", "--f=y", "--g=0", "-M", "3"],
    ["vanish", "--vars", "x,y", "--op=dx", "--p=x+y^9000", "-M", "2"],
]

# case verdicts no entry above reaches: a one-var bound past the horizon
# (inconclusive), a Sigma certificate whose bound lies past the horizon,
# and the flow case's anomaly line (order(Phi) <= deg f, no failure seen)
VERDICTS = [
    ["case", "one-var", "--vars", "x", "--op=dx^2", "--p=x", "--g=x^5", "-M", "4"],
    ["case", "monomial", "--op=dx^3*dy", "--p=x^2+x*y+y^2", "--g=x^5*y", "-M", "3"],
    ["case", "phi", "--phi=dy^2", "--f=y^2", "-M", "1"],
]

# exit paths of the other subcommands: an inconclusive profile, a
# consistent and a predicts-nonzero constant-term scan, a ray with no hit,
# and a ray through the origin
EXITS = [
    ["vanish", "--vars", "x", "--op=dx^2", "--p=x", "--g=x^5", "-M", "2"],
    ["dk", "--vars=x", "--f=x+x^2", "-M", "3"],
    ["dk", "--vars=x", "--f=x^-3+x^2", "-M", "4"],
    ["density", "--p=x+y", "--u=(1/3,2/3)", "-M", "2"],
    ["density", "--p=1+x", "--u=(0,0)", "-M", "2"],
]

# requests in other variable names than the defaults: the flow case with a
# coordinate-change note in swapped and in new names, a monomial
# certificate and a ray search
RENAMED = [
    ["case", "phi", "--vars=y,x", "--phi=3/2*dx + dx^3", "--f=x^2", "--g=y + x", "-M", "3"],
    ["case", "phi", "--vars=a,b", "--phi=3/2*db + db^3", "--f=b^2", "--g=a + b", "-M", "3"],
    ["case", "monomial", "--vars=u,v", "--op=du^3*dv", "--p=u^2+u*v+v^2", "--g=u^5*v", "-M", "8"],
    ["density", "--vars=s,t", "--p=s^2 + 3*s*t^2 + t", "--u=(3/2,1)", "-M", "5"],
]

# the flow case's coordinate-change note for a negative and for a unit
# linear coefficient of Phi
SIGNS = [
    ["case", "phi", "--phi=-3/2*dy + dy^3", "--f=y^2", "--g=x + y", "-M", "3"],
    ["case", "phi", "--phi=dy + dy^3", "--f=y^2", "--g=x + y", "-M", "3"],
]

# profiles with g = 0, where every L^m(P^m g) is 0: a three-term operator
# at M=30, and the README profile
ZERO_G = [
    ["vanish", "--vars", "x,y", "--op=dx^2*dy^2+dx^3", "--p=x*y+x+y", "--g=0", "-M", "30"],
    ["vanish", "--op=dx*dy", "--p=x^2 + y^2", "--g=0", "-M", "6"],
]

# output paths no entry above reaches: a profile of a g with a negative
# exponent whose P g lies in N^n, and a two-monomial witness whose failure
# lies past the horizon; then a monomial certificate verified from its
# bound, a mirrored two-monomial case and a one-var profile that stops
# after m = 1
UNREACHED = [
    ["vanish", "--vars", "x,y", "--op=dx*dy", "--p=x*y", "--g=x^-1 + y", "-M", "3"],
    ["case", "two-monomial", "--op=dx*dy^2 + dx^2*dy^2", "--p=x^3 + y^3", "-M", "2"],
    ["case", "monomial", "--op=dx^3*dy", "--p=x^2+x*y+y^2", "--g=x^5*y", "-M", "8"],
    ["case", "two-monomial", "--op=dx^2+dy^2", "--p=1 + x"],
    ["case", "one-var", "--vars", "x", "--op=dx^3", "--p=x", "--g=x^2", "-M", "8"],
]

# profiles with P or g outside N^n that raise no error: a g whose box
# (8, 5) drops xi_x^9 and xi_y^6 from Lambda^3, and a zero symbol on P and
# g outside N^n, where every entry is zero
OUTSIDE = [
    ["vanish", "--vars", "x,y", "--op=dy^2 + dx^3", "--p=x*y + x^2", "--g=x^-1*y", "-M", "4"],
    ["vanish", "--vars", "x,y", "--op=0", "--p=x^-1 + y", "--g=y^-2", "-M", "3"],
]

# requests above run again in the default text format: one per case
# checker (a verified range, a coordinate-change note, a certificate with
# its variant note, a witness pair), each verdict of vanish and dk, a
# polytope certificate with a point outside and a move-away bound, a
# witness with a point inside and no bound, the ray search found and
# inconclusive, the homogeneous search, and both series counterexamples
TEXT = [
    ["case", "one-var", "--vars=x", "--op=dx^2", "--p=x", "--g=x^3"],
    ["case", "phi", "--phi=3/2*dy + dy^3", "--f=y^2", "--g=x + y", "-M", "6"],
    ["case", "monomial", "--op=dx^3", "--p=x*y + y^2", "--g=x", "-M", "6"],
    ["case", "two-monomial", "--op=dx + dy^2", "--p=x^2*y", "-M", "6"],
    ["vanish", "--op=dx*dy", "--p=x^2 + y^2", "-M", "6"],
    ["vanish", "--vars=x,y,z", "--op=dx^2*dy + dy^3 + dx*dz^2", "--p=x*y + y*z + x*z + x^2",
     "-M", "10"],
    ["vanish", "--vars", "x", "--op=dx^2", "--p=x", "--g=x^5", "-M", "2"],
    ["polytope", "--sigma=(-1/2,2/3,-5/4);(1/2,-5/4,-2/3);(-5/4,-1/2,2/3)", "--point=(1,1,1)",
     "--beta=(1/2,2/3,5/4)"],
    ["polytope", "--sigma=(1,2/3);(2,2/3);(-5/4,0)", "--point=(3/2,2/3)", "--beta=(1,1)"],
    ["density", "--p=x + y", "--u=(1/2,1/2)", "-M", "8"],
    ["density", "--p=x^2 + y^2", "--u=(1/2,3/2)", "--homogeneous", "-M", "6"],
    ["density", "--p=x+y", "--u=(1/3,2/3)", "-M", "2"],
    ["dk", "--vars=x", "--f=x^-1 + x"],
    ["dk", "--vars=x", "--f=x+x^2", "-M", "3"],
    ["dk", "--vars=x", "--f=x^-3+x^2", "-M", "4"],
    ["counterexample", "ddv", "-M", "6", "-D", "12"],
    ["counterexample", "dk", "-M", "4"],
]

NAMES = ("x", "y", "z")


def _poly(p, names):
    return p.to_string(list(names))


def _op(p, names):
    return p.to_string(["d" + v for v in names])


def _point(point):
    return "(" + ",".join(str(v) for v in point) + ")"


def _acceptance_families():
    """One seeded instance per family, drawn as tests/test_acceptance.py draws them."""
    from vanishlab.poly import LaurentPoly
    from vanishlab.polytopes import RationalPolytope, SeparationCertificate, orthant_meet

    out = []
    # criterion 3: orthant meet of a random polytope
    rng = random.Random(1003)
    n, k = rng.randrange(1, 4), rng.randrange(1, 6)
    gens = [tuple(rng.randrange(-3, 4) for _ in range(n)) for _ in range(k)]
    out.append(["polytope", "--sigma=" + ";".join(_point(g) for g in gens)])

    # criterion 4: move-away bound on the first certified polytope
    rng = random.Random(1004)
    while True:
        n, k = rng.randrange(1, 4), rng.randrange(1, 5)
        gens = [tuple(rng.randrange(-3, 4) for _ in range(n)) for _ in range(k)]
        if isinstance(orthant_meet(RationalPolytope(gens)), SeparationCertificate):
            beta = tuple(rng.randrange(5) for _ in range(n))
            break
    out.append(["polytope", "--sigma=" + ";".join(_point(g) for g in gens),
                "--beta=" + _point(beta)])

    # criterion 5: a two-monomial operator a*d^alpha + b*d^beta on a homogeneous P
    rng = random.Random(1005)
    while True:
        n = rng.randrange(1, 4)
        alpha = tuple(rng.randrange(4) for _ in range(n))
        beta = tuple(rng.randrange(4) for _ in range(n))
        if sum(alpha) != sum(beta):
            break
    a = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
    b = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
    names = NAMES[:n]
    sym = LaurentPoly(n, {alpha: a}) + LaurentPoly(n, {beta: b})
    out.append(["case", "two-monomial", "--vars=" + ",".join(names),
                "--op=" + _op(sym, names), "--p=" + "*".join(names), "-M", "6"])

    # criterion 6: one-variable case
    rng = random.Random(1006)
    d = rng.randrange(7)
    m1 = d + 1 + rng.randrange(3)
    q = {0: Fraction(1)}
    for _ in range(rng.randrange(3)):
        q[1 + rng.randrange(3)] = Fraction(rng.randrange(-3, 4))
    lam = LaurentPoly(1, {(m1,): 1}) * LaurentPoly(1, {(e,): c for e, c in q.items()})
    p_terms = {(d,): Fraction(rng.choice([1, 2, 3]))}
    for _ in range(rng.randrange(3)):
        p_terms[(rng.randrange(d + 1),)] = Fraction(rng.randrange(-3, 4))
    p = LaurentPoly(1, p_terms)
    g = LaurentPoly(1, {(rng.randrange(7),): Fraction(rng.choice([1, 2]))})
    out.append(["case", "one-var", "--vars=x", "--op=" + _op(lam, "x"),
                "--p=" + _poly(p, "x"), "--g=" + _poly(g, "x"), "-M", "10"])

    # criterion 7: the flow case d_x - Phi(d_y)
    rng = random.Random(1007)
    while True:
        order = 2 + rng.randrange(3)
        phi_terms = {(order,): Fraction(rng.choice([-2, -1, 1, 2]))}
        for _ in range(rng.randrange(3)):
            phi_terms[(order + rng.randrange(1, 3),)] = Fraction(rng.randrange(-2, 3))
        phi = LaurentPoly(1, phi_terms)
        f_terms = {(0, rng.randrange(order)): Fraction(rng.choice([1, 2]))}
        for _ in range(rng.randrange(2)):
            f_terms[(0, rng.randrange(order))] = Fraction(rng.randrange(-2, 3))
        f = LaurentPoly(2, f_terms)
        if f.is_zero:
            continue
        g = LaurentPoly(2, {
            (rng.randrange(2), rng.randrange(3)): Fraction(rng.choice([1, 2])),
            (rng.randrange(2), rng.randrange(3)): Fraction(rng.randrange(-2, 3)),
        })
        if not g.is_zero:
            break
    out.append(["case", "phi", "--phi=" + _op(phi, "y"), "--f=" + _poly(f, "xy"),
                "--g=" + _poly(g, "xy"), "-M", "10"])

    # criterion 9: ray hits through a vertex and through an edge midpoint
    rng = random.Random(1009)
    terms = {}
    for _ in range(rng.randrange(1, 5)):
        e = tuple(rng.randrange(4) for _ in range(2))
        terms[e] = terms.get(e, 0) + Fraction(rng.randrange(1, 4))
    p = LaurentPoly(2, terms)
    support = sorted(p.terms)
    s = rng.choice(support)
    out.append(["density", "--p=" + _poly(p, "xy"), "--u=" + _point(s), "-M", "2"])
    if len(support) >= 2:
        s1, s2 = rng.sample(support, 2)
        u = tuple(Fraction(a + b, 2) for a, b in zip(s1, s2))
        out.append(["density", "--p=" + _poly(p, "xy"), "--u=" + _point(u), "-M", "2"])

    # criterion 10: operator algebra, as a vanishing profile
    rng = random.Random(1010)
    p = LaurentPoly(2, {(rng.randrange(4), rng.randrange(4)): Fraction(rng.randrange(-3, 4))
                        for _ in range(3)})
    sym = LaurentPoly(2, {(rng.randrange(3), rng.randrange(3)): Fraction(rng.randrange(-2, 3))
                          for _ in range(2)})
    out.append(["vanish", "--op=" + _op(sym if not sym.is_zero else LaurentPoly.one(2), "xy"),
                "--p=" + _poly(p if not p.is_zero else LaurentPoly.one(2), "xy"), "-M", "4"])
    return out


def requests():
    series = [["counterexample", which, "-M", str(m)]
              for which in ("ddv", "dk") for m in range(1, 9)]
    return ([argv + ["--format", "structured"]
             for argv in README + series + _acceptance_families() + WITNESS + TIES
            + FRACTIONAL + PRINTING + SERIES_EDGES + START_EDGES + CASE_PATHS + SPELLINGS
            + EDGES + VERDICTS + EXITS + RENAMED + SIGNS + ZERO_G + UNREACHED + OUTSIDE]
            + [argv + ["--format", "text"] for argv in TEXT])


def run(argv):
    """(exit code, stdout) of one CLI request."""
    from vanishlab.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def record():
    entries = []
    for argv in requests():
        code, stdout = run(argv)
        if code not in (0, 1, 2):
            raise SystemExit(f"invalid request in the corpus: {argv} exited {code}")
        entries.append({"argv": argv, "exit": code, "stdout": stdout})
    CORPUS.write_text(json.dumps(entries, indent=1) + "\n")
    return entries


if __name__ == "__main__":
    print(f"recorded {len(record())} requests in {CORPUS}")
