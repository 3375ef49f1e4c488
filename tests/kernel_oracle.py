"""Reference coefficient kernels on dicts of `Fraction`, and a term-by-term series exponential.

These are the straightforward dict-of-`Fraction` product, the `Fraction`
falling-factorial derivative, printing from `Fraction` coefficients and
the ray test by one `Fraction` division.  The library instead stores each
polynomial as integer numerators over one denominator, multiplies,
differentiates and prints those integers, cuts a series product inside its
pair loop, visits only the live pairs of an operator application and tests
a ray by integer cross-multiplication.  These kernels share no code with
it: they take any ``{exponent tuple: coefficient}`` mapping (a plain dict
or a polynomial's ``terms`` mapping), multiply and differentiate every pair
and truncate afterwards, so the tests can cross-check the fast paths
against them.

``series_exp`` is the exponential of a truncated series summed term by
term from ``s^k/k!``, each power one series product.  It is built on the
library's `TruncSeries`, and the closed-form e^y of the series
counterexamples is checked against it.
"""
from fractions import Fraction
from math import factorial
from numbers import Rational

from vanishlab.poly import LaurentPoly, TruncSeries


def fraction_mul(a, b):
    """The product of two term maps, zero terms dropped, first-seen key order."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + Fraction(c1) * Fraction(c2)
    return {e: c for e, c in out.items() if c}


def fraction_derivative(mu, beta):
    """d^mu z^beta as (coefficient, exponent): the falling-factorial rule in Fractions."""
    coeff = Fraction(1)
    for m, b in zip(mu, beta):
        for j in range(m):
            coeff *= b - j
    return coeff, tuple(b - m for b, m in zip(beta, mu))


def fraction_apply(symbol, operand):
    """L(d) applied to a term map, L given by its symbol's term map."""
    out = {}
    for mu, c in symbol.items():
        for beta, b in operand.items():
            coeff, expo = fraction_derivative(mu, beta)
            if coeff:
                out[expo] = out.get(expo, Fraction(0)) + Fraction(c) * Fraction(b) * coeff
    return {e: c for e, c in out.items() if c}


def truncate(terms, var, degree):
    """The terms whose exponent of variable ``var`` is at most ``degree``."""
    return {e: c for e, c in terms.items() if e[var] <= degree}


def fraction_to_string(terms, names=None):
    """A term map printed in descending graded-lex order, each coefficient
    through `str` of its `Fraction`, a unit magnitude dropped before a monomial."""
    if not terms:
        return "0"
    arity = len(next(iter(terms)))
    if names is None:
        names = ("x", "y", "z")[:arity] if arity <= 3 else [f"z{i + 1}" for i in range(arity)]
    pieces = []
    for expo in sorted(terms, key=lambda e: (sum(e), e), reverse=True):
        c = Fraction(terms[expo])
        mono = "*".join(names[i] if e == 1 else f"{names[i]}^{e}"
                        for i, e in enumerate(expo) if e)
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not pieces:
            pieces.append(body if c > 0 else "-" + body)
        else:
            pieces.append(("+ " if c > 0 else "- ") + body)
    return " ".join(pieces)


def fraction_on_ray(point, direction):
    """point = k*direction for a rational k >= 0, by one Fraction division;
    the zero direction's ray is the origin, and a float raises TypeError."""
    if any(not isinstance(v, Rational) for v in (*point, *direction)):
        raise TypeError("not an exact rational")
    direction = [Fraction(v) for v in direction]
    point = [Fraction(v) for v in point]
    pivot = next((i for i, v in enumerate(direction) if v), None)
    if pivot is None:
        return all(v == 0 for v in point)
    k = point[pivot] / direction[pivot]
    return k >= 0 and all(p == k * d for p, d in zip(point, direction))


def series_exp(s):
    """Exponential of a truncated series.

    Every term must have a strictly positive exponent in the truncated
    variable (so the constant term is zero), which makes the sum over
    s^k/k! finite at the series' degree.
    """
    if any(e[s.var] < 1 for e in s.body.exponents()):
        raise ValueError("series_exp requires a positive exponent in the tracked variable")
    result = power = TruncSeries(LaurentPoly.one(s.arity), s.var, s.degree)
    k = 0
    while True:
        k += 1
        # s^k is known past the degree; keeping it at the degree ends the sum
        power = TruncSeries((power * s).body, s.var, s.degree)
        if power.body.is_zero:
            return result
        result = result + power * Fraction(1, factorial(k))
