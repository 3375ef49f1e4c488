"""Text grammar for polynomials, operators, and rational points.

A polynomial is terms joined by + and -, the first one optionally signed;
a term is factors joined by *, and a factor is int, int/int, name,
name^int or name^-int, where an int is a run of decimal digits.  A name
is [A-Za-z_][A-Za-z0-9_]* and one of the given variables, whose names
must be of that form too.  Blanks are insignificant between tokens.
Operators use the same grammar with variables d<name>.  Printing in
canonical graded-lex order followed by parsing is the identity on
canonical forms.

Polynomial text is read in one pass.  A check that the whole text is
tokens comes first, so an unexpected character is reported before any
other error; then one match reads each factor with the separator after
it.  Only where that match fails is the text read again, to report the
first error and the position of the token at fault.

The point grammar needs no other library module: `parse_poly` and
`parse_operator` import `LaurentPoly` and `DiffOp` when they are called,
so a request that parses only points never loads the polynomial kernel.
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import lcm


class ParseError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# the tokens in a row; where the match ends, only blanks may follow.  It is
# matched, not fullmatched: a fullmatch of the repeated group backtracks
# exponentially on a long run of digits that ends in a bad character
_TOKENS = re.compile(rf"(?:\s*(?:\d+|{_NAME.pattern}|[-+*/^]))*")
_SIGN = re.compile(r"\s*([-+]?)")
# one factor (int, int/int, name, name^int or name^-int) and the separator
# after it: '*' within a term, '+' or '-' between terms, '' at the end
_FACTOR = re.compile(
    rf"\s*(?:(\d+)(?:\s*/\s*(\d+))?|({_NAME.pattern})(?:\s*\^\s*(-?)\s*(\d+))?)\s*([-+*]|\Z)")
# the longest start of a factor that the text has: the token at fault
# begins where the match ends
_PARTIAL = re.compile(
    rf"\s*(?:(\d+)(?:\s*(/)\s*(\d+)?)?|({_NAME.pattern})(?:\s*(\^)\s*-?\s*(\d+)?)?)?\s*")


def _read_poly(src, names):
    """The polynomial as ``(arity, nums, den)``, the arguments of
    `LaurentPoly._from_integers`: each term read as an integer numerator and
    denominator, and the terms summed over the lcm of their denominators."""
    end = _TOKENS.match(src).end()
    rest = src[end:].strip()
    if rest:
        raise ParseError(f"unexpected character {rest[0]!r}", end)
    if not names:
        raise ValueError("arity must be >= 1")
    index = {name: i for i, name in enumerate(names)}
    sign = _SIGN.match(src)
    pos, sep = sign.end(), sign[1] or "+"
    terms = []
    while sep:
        if sep != "*":
            expo, num, den = [0] * len(names), -1 if sep == "-" else 1, 1
        m = _FACTOR.match(src, pos)
        if m is None:
            raise _factor_error(src, pos, index)
        digits, over, name, minus, power, sep = m.groups()
        if digits is not None:
            num *= int(digits)
            if over is not None:
                den *= int(over)
                if not den:
                    raise _factor_error(src, pos, index)
        elif name in index:
            expo[index[name]] += 1 if power is None else int(minus + power)
        else:
            raise _factor_error(src, pos, index)
        pos = m.end()
        if sep != "*":
            terms.append((tuple(expo), num, den))
    # one sum of integer numerators over a common denominator; a monomial
    # whose sum cancels leaves the dict, so one that comes back is placed
    # last, as in a term-by-term sum
    den = lcm(*(d for _, _, d in terms))
    nums = {}
    for expo, n, d in terms:
        n = nums.get(expo, 0) + n * (den // d)
        if n:
            nums[expo] = n
        else:
            nums.pop(expo, None)
    return len(names), nums, den


def _factor_error(src, pos, index):
    """The `ParseError` of the factor at pos, which `_FACTOR` does not read
    or reads with a zero denominator or an unknown variable."""
    m = _PARTIAL.match(src, pos)
    digits, slash, over, name, caret, power = m.groups()
    if over is not None and not int(over):
        return ParseError("zero denominator", m.start(1))
    if name is not None and name not in index:
        return ParseError(f"unknown variable {name!r}", m.start(4))
    if digits is None and name is None:
        return ParseError("expected a coefficient or a variable", m.end())
    if slash and over is None:
        return ParseError("expected a denominator", m.end())
    if caret and power is None:
        return ParseError("expected an integer exponent", m.end())
    return ParseError("expected '+' or '-' between terms", m.end())


def _names(varnames):
    """The variable names as a list: unique, and each one the grammar reads."""
    varnames = list(varnames)
    if len(set(varnames)) != len(varnames):
        raise ValueError("variable names must be unique")
    for name in varnames:
        if not _NAME.fullmatch(name):
            raise ValueError(f"variable names must match {_NAME.pattern}, got {name!r}")
    return varnames


def parse_poly(src, varnames):
    """Parse a polynomial in the given ordered variables; exact, no floats."""
    from vanishlab.poly import LaurentPoly

    return LaurentPoly._from_integers(*_read_poly(src, _names(varnames)))


def parse_operator(src, varnames):
    """Parse an operator expression over variables d<name> into a DiffOp."""
    from vanishlab.diffops import DiffOp

    return DiffOp(parse_poly(src, ["d" + name for name in _names(varnames)]))


_FRACTION = re.compile(r"(-?\d+)(?:/(\d+))?")


def _coordinate(src):
    """The value of "int" or "int/int", whitespace around allowed: an ``int``,
    or a `Fraction` where the text is p/q."""
    src = src.strip()
    match = _FRACTION.fullmatch(src)
    if not match:
        raise ValueError(f"not an exact fraction: {src!r}")
    num, den = match.groups()
    if den is None:
        return int(num)
    den = int(den)
    if not den:
        raise ValueError(f"zero denominator in {src!r}")
    return Fraction(int(num), den)


def parse_point(src):
    """Parse "(a,b,...)": an ``int`` for each integral component, a `Fraction` for p/q."""
    src = src.strip()
    if src.startswith("(") and src.endswith(")"):
        src = src[1:-1]
    return tuple(map(_coordinate, src.split(",")))


def parse_generators(src):
    """Parse a semicolon-separated list of points."""
    return [parse_point(part) for part in src.split(";") if part.strip()]
