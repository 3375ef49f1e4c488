"""Renaming or rescaling the variables must not change a verdict.

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

A `vanish`, `case`, `dk` or `density` request is also run on its image
under the diagonal change z_i -> s_i*z_i, with s_i in Q* and sign flips
s_i = -1 among them: Lambda's coefficient at mu is multiplied by s^(-mu),
P's at beta by s^beta and g's (or f's) at gamma by s^gamma.  Then
Lambda_s^m(P_s^m g_s)(z) = Lambda^m(P^m g)(s*z), and no exponent set
changes, so no LP answer can either: every printed line but the residuals
is the same, and each residual is the image of the original one.

The operator kernel runs at sizes the `Fraction` oracles cannot reach:
`vanish` requests in 3-5 variables with a degree cap of their own per
variable, at horizons 10-20, are run beside the same text read under a
random permutation of ``--vars``.  Every line but the residuals agrees,
and each residual, read back in the request's names, is the same
polynomial.  This checks that the packed-key layout treats every slot
alike.

A two-variable `dk` request agrees line for line with the same text read
with ``--vars=y,x``.  A `density` request agrees with that swap and u's
coordinates swapped in exit code and verdict, and in each m's hit point
once its coordinates are swapped back.  A `case phi` request agrees line
for line with the same text in the names a, b, once x and y are renamed;
swapping ``--vars`` is not a symmetry of the flow case.
"""
import contextlib
import io
import random
import re
from fractions import Fraction
from math import prod

import pytest

from vanishlab.cli import main
from vanishlab.parsing import parse_poly
from vanishlab.poly import LaurentPoly

COEFFS = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]


def run_lines(argv):
    """(exit code, [key, value] per stdout line) of one request in structured format."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv) + ["--format", "structured"])
    return code, [line.split("=", 1) for line in buf.getvalue().splitlines()]


def structured(argv):
    """(exit code, {key: value}) of one request in structured format."""
    code, lines = run_lines(argv)
    return code, dict(lines)


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


# ---------------------------------------------------------------------------
# Rescaling and sign flips

SCALES = [-1, -1, 1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]
NAMES = ["x", "y", "z"]


def scaled(poly, scales, sign=1):
    """The polynomial whose coefficient at e is poly's times s^(sign*e)."""
    return LaurentPoly(poly.arity, {e: c * prod(v ** (sign * k) for v, k in zip(scales, e))
                                    for e, c in poly.terms.items()})


def _random_poly(rng, n, count, low, high):
    terms = {}
    for _ in range(count):
        expo = tuple(rng.randrange(low, high + 1) for _ in range(n))
        terms[expo] = terms.get(expo, 0) + Fraction(rng.choice(COEFFS))
    poly = LaurentPoly(n, terms)
    return poly if not poly.is_zero else LaurentPoly(n, {expo: Fraction(1)})


def _multiplier(rng, n):
    return {"--g": _random_poly(rng, n, rng.randrange(1, 3), 0, 3)} if rng.random() < 0.7 else {}


# each family draws (command words, number of variables, {option: polynomial},
# the other words); an operator's option is --op
def vanish_request(rng):
    n = rng.randrange(2, 4)
    polys = {"--op": _random_poly(rng, n, rng.randrange(1, 4), 0, 2),
             "--p": _random_poly(rng, n, rng.randrange(1, 4), 0, 3), **_multiplier(rng, n)}
    return ["vanish"], n, polys, ["-M", str(rng.randrange(2, 6))]


def one_var_request(rng):
    polys = {"--op": _random_poly(rng, 1, rng.randrange(1, 4), 1, 4),
             "--p": _random_poly(rng, 1, rng.randrange(1, 3), 0, 3), **_multiplier(rng, 1)}
    return ["case", "one-var"], 1, polys, ["-M", str(rng.randrange(2, 7))]


def polytope_case_request(which, make):
    def draw(rng):
        op, p = make(rng)
        polys = {"--op": op, "--p": p, **_multiplier(rng, 2)}
        return ["case", which], 2, polys, ["-M", str(rng.randrange(2, 7))]
    return draw


def dk_request(rng):
    n = rng.randrange(1, 3)
    polys = {"--f": _random_poly(rng, n, rng.randrange(1, 4), -2, 2)}
    return ["dk"], n, polys, ["-M", str(rng.randrange(2, 6))]


def density_request(rng):
    p = _random_poly(rng, 2, rng.randrange(1, 4), 0, 3)
    # u is a point of Poly(P): a weighted mean of some support points
    some = rng.sample(sorted(p.terms), rng.randrange(1, len(p.terms) + 1))
    weights = [rng.randrange(1, 6) for _ in some]
    u = tuple(Fraction(sum(w * v for w, v in zip(weights, c)), sum(weights)) for c in zip(*some))
    return ["density"], 2, {"--p": p}, ["--u=" + _point(u), "-M", str(rng.randrange(2, 6))]


RESCALED = {
    "vanish": vanish_request,
    "case one-var": one_var_request,
    "case monomial": polytope_case_request("monomial", monomial_request),
    "case two-monomial": polytope_case_request("two-monomial", two_monomial_request),
    "dk": dk_request,
    "density": density_request,
}


def rescaled_requests(family, seed):
    """A request of the family, its image under z_i -> s_i*z_i, the names
    and the scales s."""
    rng = random.Random(seed)
    words, n, polys, rest = RESCALED[family](rng)
    names = NAMES[:n]
    scales = [Fraction(rng.choice(SCALES)) for _ in range(n)]

    def argv(image):
        out = [*words, "--vars=" + ",".join(names)]
        for option, poly in polys.items():
            if option == "--op":
                out.append("--op=" + image(poly, -1).to_string(["d" + v for v in names]))
            else:
                out.append(f"{option}=" + image(poly, 1).to_string(names))
        return out + rest

    return argv(lambda poly, sign: poly), argv(lambda poly, sign: scaled(poly, scales, sign)), \
        names, scales


def _is_residual(key):
    return key.endswith("_residual") or key.startswith("residual.")


def assert_image_lines(lines, image_lines, names, image):
    """Every line but the residuals is the same, and each residual of the
    image request is ``image`` of the original one, both read in ``names``."""
    # the status or verdict, checks, bounds, verified m's, first failures,
    # zero flags, constant terms and hits
    assert [kv for kv in lines if not _is_residual(kv[0])] == [
        kv for kv in image_lines if not _is_residual(kv[0])]
    residuals = [(k, v) for k, v in lines if _is_residual(k)]
    image_residuals = [(k, v) for k, v in image_lines if _is_residual(k)]
    assert [k for k, _ in residuals] == [k for k, _ in image_residuals]
    for (_, text), (_, image_text) in zip(residuals, image_residuals):
        assert image(parse_poly(text, names)) == parse_poly(image_text, names)


@pytest.mark.parametrize("family", sorted(RESCALED))
@pytest.mark.parametrize("seed", range(25))
def test_verdict_survives_rescaling_the_variables(family, seed):
    original, image, names, scales = rescaled_requests(family, seed)
    (code, lines), (image_code, image_lines) = run_lines(original), run_lines(image)
    assert code == image_code
    assert_image_lines(lines, image_lines, names, lambda poly: scaled(poly, scales))


# ---------------------------------------------------------------------------
# The operator kernel at sizes the Fraction oracles cannot reach

KERNEL_NAMES = ["x", "y", "z", "u", "v"]


def _capped_poly(rng, caps, count, keep=lambda e: True):
    """A polynomial of up to ``count`` terms with exponent at most caps[i] in
    variable i, each exponent redrawn until ``keep`` accepts it."""
    terms = {}
    for _ in range(count):
        while True:
            expo = tuple(rng.randrange(cap + 1) for cap in caps)
            if keep(expo):
                break
        terms[expo] = terms.get(expo, 0) + Fraction(rng.choice(COEFFS))
    poly = LaurentPoly(len(caps), terms)
    return poly if not poly.is_zero else LaurentPoly(len(caps), {expo: Fraction(1)})


def kernel_request(seed):
    """A `vanish` request in 3-5 variables, each with its own degree cap, at a
    horizon of 10-20, and its image under a random permutation of --vars.

    In every third request each term of the operator has a larger total
    degree than every term of P, so L^m(P^m) = 0 for every m: the
    hypothesis holds to the horizon.  Every other request is drawn freely.
    The powers outgrow the first slot width of 4 and 5 variables, so the
    keys widen during the scan.
    """
    rng = random.Random(seed)
    n = rng.randrange(3, 6)
    names = KERNEL_NAMES[:n]
    caps = [rng.choice([1, 2, 4, 7]) for _ in range(n)]
    p = _capped_poly(rng, caps, rng.randrange(1, 4))
    if seed % 3 == 0:
        top = max(map(sum, p.exponents()))
        symbol = _capped_poly(rng, [cap + 2 for cap in caps], rng.randrange(1, 3),
                              lambda e: sum(e) > top)
    else:
        symbol = _capped_poly(rng, [min(cap, 3) for cap in caps], rng.randrange(1, 4))
    text = ["--op=" + symbol.to_string(["d" + v for v in names]), "--p=" + p.to_string(names)]
    if rng.random() < 0.7:
        text.append("--g=" + _capped_poly(rng, [1] * n, rng.randrange(1, 3)).to_string(names))
    rest = text + ["-M", str(rng.randrange(10, 21))]
    permuted = rng.sample(names, n)
    return (["vanish", "--vars=" + ",".join(names), *rest],
            ["vanish", "--vars=" + ",".join(permuted), *rest], names)


@pytest.mark.parametrize("seed", range(40))
def test_profile_survives_permuting_the_variables(seed):
    # the same text read with the variables in another order: every slot of
    # every key moves, and each residual, read back in the request's names,
    # is the same polynomial
    original, image, names = kernel_request(seed)
    (code, lines), (image_code, image_lines) = run_lines(original), run_lines(image)
    if seed % 3 == 0:
        # built so that the hypothesis holds to the horizon
        assert code != 1
    assert code == image_code
    assert_image_lines(lines, image_lines, names, lambda poly: poly)


# ---------------------------------------------------------------------------
# Swapping the variables of dk, density and the flow case

def _swap(point):
    return tuple(reversed(point))


def dk_swapped(seed):
    """A two-variable `dk` request beside the same text read with --vars=y,x."""
    rng = random.Random(seed)
    f = _random_poly(rng, 2, rng.randrange(1, 5), -2, 2).to_string(["x", "y"])
    rest = ["--f=" + f, "-M", str(rng.randrange(2, 6))]
    return ["dk", "--vars=x,y", *rest], ["dk", "--vars=y,x", *rest]


@pytest.mark.parametrize("seed", range(25))
def test_dk_survives_swapping_the_variables(seed):
    # the constant term of f^m, and whether 0 lies in Poly(f), are the same
    # in either variable order: every line agrees
    first, second = (run_lines(argv) for argv in dk_swapped(seed))
    assert first == second


def density_swapped(seed):
    """A `density` request with u in Poly(P), beside the same text read with
    --vars=y,x and u's coordinates swapped."""
    rng = random.Random(seed)
    p = _random_poly(rng, 2, rng.randrange(1, 5), 0, 3)
    some = rng.sample(sorted(p.terms), rng.randrange(1, len(p.terms) + 1))
    weights = [rng.randrange(1, 6) for _ in some]
    u = tuple(Fraction(sum(w * v for w, v in zip(weights, c)), sum(weights)) for c in zip(*some))
    rest = ["--p=" + p.to_string(["x", "y"]), "-M", str(rng.randrange(2, 7))]
    return (["density", "--vars=x,y", "--u=" + _point(u), *rest],
            ["density", "--vars=y,x", "--u=" + _point(_swap(u)), *rest])


def _hits(fields):
    """m -> the hit point of Supp(P^m) on the ray, as a tuple of Fractions."""
    return {k: tuple(map(Fraction, v.strip("()").split(",")))
            for k, v in fields.items() if k.startswith("hit.")}


@pytest.mark.parametrize("seed", range(25))
def test_density_survives_swapping_the_variables(seed):
    first, second = (structured(argv) for argv in density_swapped(seed))
    assert first[0] == second[0]
    assert first[1]["verdict"] == second[1]["verdict"]
    assert _hits(first[1]) == {k: _swap(v) for k, v in _hits(second[1]).items()}


def phi_renamed(seed):
    """A `case phi` request in the names x, y and the same text in a, b.

    Swapping --vars is not a symmetry of the flow case, which treats its two
    variables differently; renaming them is.  Phi has order 1-3, so some
    requests take the coordinate change of an order-1 term."""
    rng = random.Random(seed)
    phi = _random_poly(rng, 1, rng.randrange(1, 3), 1, 3)
    f = LaurentPoly(2, {(0, e[0]): c for e, c in
                        _random_poly(rng, 1, rng.randrange(1, 3), 0, 3).terms.items()})
    g = _random_poly(rng, 2, rng.randrange(1, 3), 0, 2)
    horizon = str(rng.randrange(2, 6))

    def argv(names):
        return ["case", "phi", "--vars=" + ",".join(names),
                "--phi=" + phi.to_string(["d" + names[1]]), "--f=" + f.to_string(names),
                "--g=" + g.to_string(names), "-M", horizon]

    return argv(["x", "y"]), argv(["a", "b"])


@pytest.mark.parametrize("seed", range(25))
def test_flow_case_survives_renaming_the_variables(seed):
    # the names appear only in the notes and residuals; x and y never stand
    # alone in the fixed words of a line, so renaming them there is exact
    (code, lines), (image_code, image_lines) = (run_lines(argv) for argv in phi_renamed(seed))
    renamed = [[k, re.sub(r"\b[xy]\b", lambda m: {"x": "a", "y": "b"}[m.group()], v)]
               for k, v in lines]
    assert code == image_code
    assert renamed == image_lines
