"""Renaming the variables must not change a verdict.

A `case` request is run twice, once with ``--vars=x,y`` and once with
``--vars=y,x``: the same text read with the variables in the other order,
so every exponent and coordinate has its two slots swapped.  A `polytope`
request is run on its generators and query points with two coordinates
swapped.  The vanishing statement, the hypothesis checks and the orthant
question are invariant under that swap, so the exit code, the `status`
(or the polytope's `kind` and `contains`) and every `check.` line agree.

The printed bound, the verified range and `moveaway_N` come from whichever
optimal certificate the orthant LP lands on, so they may differ under a
swap.  They are compared only on the two known pairs that differ, as strict
expected failures: a change that makes them agree turns the marker into a
failure.
"""
import contextlib
import io
import random
from fractions import Fraction

import pytest

from vanishlab.cli import main
from vanishlab.poly import LaurentPoly

COEFFS = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]


def structured(argv):
    """(exit code, {key: value}) of one request in structured format."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv) + ["--format", "structured"])
    return code, dict(line.split("=", 1) for line in buf.getvalue().splitlines())


def verdict_lines(fields, keys):
    return {k: v for k, v in fields.items() if k.startswith("check.") or k in keys}


def _poly(rng, exponents):
    terms = {}
    for expo in exponents:
        terms[expo] = terms.get(expo, 0) + Fraction(rng.choice(COEFFS))
    p = LaurentPoly(2, terms)
    return p if not p.is_zero else LaurentPoly(2, {exponents[0]: Fraction(1)})


def _expo(rng, top=3):
    return rng.randrange(top + 1), rng.randrange(top + 1)


def _homogeneous(rng, degree, count):
    return [(a, degree - a) for a in (rng.randrange(degree + 1) for _ in range(count))]


def monomial_request(rng):
    """A `case monomial` request: a monomial P in N^2, or a monomial operator."""
    one = [_expo(rng)]
    many = [_expo(rng) for _ in range(rng.randrange(1, 4))]
    if rng.random() < 0.5:
        return _poly(rng, many), _poly(rng, one)
    return _poly(rng, one), _poly(rng, many)


def two_monomial_request(rng):
    """A `case two-monomial` request: two monomials of different degrees on one
    side, a homogeneous polynomial on the other."""
    while True:
        alpha, beta = _expo(rng), _expo(rng)
        if sum(alpha) != sum(beta):
            break
    two = _poly(rng, [alpha, beta])
    homogeneous = _poly(rng, _homogeneous(rng, rng.randrange(1, 4), rng.randrange(1, 3)))
    return (two, homogeneous) if rng.random() < 0.5 else (homogeneous, two)


def case_argv(which, op, p, g, horizon):
    argv = ["case", which, "--op=" + op.to_string(["dx", "dy"]),
            "--p=" + p.to_string(["x", "y"])]
    if g is not None:
        argv.append("--g=" + g.to_string(["x", "y"]))
    return argv + ["-M", str(horizon)]


def swapped_cases(which, make, seed):
    rng = random.Random(seed)
    op, p = make(rng)
    g = None
    if rng.random() < 0.7:
        g = _poly(rng, [_expo(rng) for _ in range(rng.randrange(1, 3))])
    argv = case_argv(which, op, p, g, rng.randrange(2, 7))
    return argv + ["--vars=x,y"], argv + ["--vars=y,x"]


def _point(point):
    return "(" + ",".join(str(v) for v in point) + ")"


def swapped_polytopes(seed):
    """A `polytope` request with --point and --beta, and its image with two
    coordinates swapped; half of the points are means of generators."""
    rng = random.Random(seed)
    n = rng.randrange(2, 4)
    gens = [tuple(rng.randrange(-3, 3) for _ in range(n)) for _ in range(rng.randrange(1, 5))]
    if rng.random() < 0.5:
        # the mean of some generators lies inside
        some = rng.sample(gens, rng.randrange(1, len(gens) + 1))
        point = tuple(Fraction(sum(c), len(some)) for c in zip(*some))
    else:
        point = tuple(Fraction(rng.randrange(-4, 5), rng.randrange(1, 3)) for _ in range(n))
    beta = tuple(rng.randrange(4) for _ in range(n))
    i, j = rng.sample(range(n), 2)

    def swap(v):
        v = list(v)
        v[i], v[j] = v[j], v[i]
        return v

    def argv(image):
        return ["polytope", "--sigma=" + ";".join(_point(image(g)) for g in gens),
                "--point=" + _point(image(point)), "--beta=" + _point(image(beta))]

    return argv(tuple), argv(swap)


@pytest.mark.parametrize("which, make", [("monomial", monomial_request),
                                         ("two-monomial", two_monomial_request)])
@pytest.mark.parametrize("seed", range(25))
def test_case_verdict_survives_swapping_the_variables(which, make, seed):
    first, second = (structured(argv) for argv in swapped_cases(which, make, seed))
    assert first[0] == second[0]
    assert verdict_lines(first[1], {"status"}) == verdict_lines(second[1], {"status"})


@pytest.mark.parametrize("seed", range(25))
def test_polytope_answer_survives_swapping_coordinates(seed):
    first, second = (structured(argv) for argv in swapped_polytopes(seed))
    assert first[0] == second[0]
    keys = {"kind", "contains"}
    assert verdict_lines(first[1], keys) == verdict_lines(second[1], keys)


# the printed bounds depend on which optimal certificate the orthant LP
# returns: bound 4 against 1 here, moveaway_N 1 against 2 below.  Every
# entry of the monomial request vanishes from m = 1
PINNED = [
    (["case", "monomial", "--op=dx*dy^3", "--p=-1/2*y^2", "--g=3/2*x^3", "-M", "6",
      "--vars=x,y"],
     ["case", "monomial", "--op=dx*dy^3", "--p=-1/2*y^2", "--g=3/2*x^3", "-M", "6",
      "--vars=y,x"]),
    (["polytope", "--sigma=(-1,-2,-2);(0,-2,-3);(1,-2,-3)", "--beta=(0,0,2)"],
     ["polytope", "--sigma=(-1,-2,-2);(0,-3,-2);(1,-3,-2)", "--beta=(0,2,0)"]),
]


@pytest.mark.parametrize("pair", PINNED, ids=["case monomial", "polytope"])
def test_pinned_pairs_agree_on_everything_but_the_bound(pair):
    first, second = (structured(argv) for argv in pair)
    assert first[0] == second[0]
    keys = {"status", "kind"}
    assert verdict_lines(first[1], keys) == verdict_lines(second[1], keys)


@pytest.mark.xfail(strict=True, reason="the move-away bound depends on the optimal "
                   "certificate the orthant LP returns, which ties leave to the variable order")
@pytest.mark.parametrize("pair", PINNED, ids=["case monomial", "polytope"])
def test_pinned_pairs_print_the_same_bound(pair):
    first, second = (structured(argv) for argv in pair)
    keys = {"bound", "verified", "moveaway_N"}
    assert verdict_lines(first[1], keys) == verdict_lines(second[1], keys)
