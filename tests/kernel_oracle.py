"""Reference coefficient kernels on dicts of `Fraction`, independent of the library.

These are the straightforward dict-of-`Fraction` product and the
`Fraction` falling-factorial derivative.  The library instead stores each
polynomial as integer numerators over one denominator, multiplies and
differentiates those integers, and cuts a series product inside its pair
loop.  These kernels share no code with it: they take any
``{exponent tuple: coefficient}`` mapping (a plain dict or a polynomial's
``terms`` view), multiply every pair and truncate afterwards, so the tests
can cross-check the fast paths against them.
"""
from fractions import Fraction


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
