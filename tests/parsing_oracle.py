"""The parsers the library's grammars replaced: test oracles.

The polynomial parser as it was before the library read polynomial text in
one pass: ``_tokenize`` builds a list of ``(kind, value, pos)`` tokens and
``_Parser`` walks it term by term.  ``_Parser(src, names).parse()`` gives
the ``(arity, nums, den)`` that ``vanishlab.parsing`` hands to
``LaurentPoly._from_integers``, or raises the same ``ParseError``.

The point parser as it was before it read coordinates as integers.  Every
coordinate goes through ``parse_fraction`` and comes back as a `Fraction`.

``test_parsing_cli.py`` checks the library's parsers against both: the
same strings accepted and rejected, the same values, the same errors.
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

from vanishlab.parsing import ParseError

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^]))")


def _tokenize(src):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if not m:
            if src[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {src[pos:].strip()[0]!r}", pos)
        if m.group(1):
            tokens.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2):
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", None, len(src)))
    return tokens


class _Parser:
    def __init__(self, src, varnames):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0
        self.vars = {name: i for i, name in enumerate(varnames)}

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_int(self, what):
        kind, value, pos = self.next()
        if kind != "int":
            raise ParseError(f"expected {what}", pos)
        return value

    def parse(self):
        """The polynomial as ``(arity, nums, den)``, the arguments of
        `LaurentPoly._from_integers`."""
        if not self.vars:
            raise ValueError("arity must be >= 1")
        sign = 1
        kind, value, pos = self.peek()
        if kind == "op" and value in "+-":
            sign = -1 if value == "-" else 1
            self.next()
        terms = []
        while True:
            terms.append(self.term(sign))
            kind, value, pos = self.next()
            if kind == "end":
                break
            if kind != "op" or value not in "+-":
                raise ParseError("expected '+' or '-' between terms", pos)
            sign = -1 if value == "-" else 1
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
        return len(self.vars), nums, den

    def term(self, sign):
        """One term as ``(exponent, numerator, denominator)``, positive denominator."""
        expo = [0] * len(self.vars)
        num, den = sign, 1
        while True:
            kind, value, pos = self.next()
            if kind == "int":
                num *= value
                if self.peek()[0] == "op" and self.peek()[1] == "/":
                    self.next()
                    d = self.expect_int("a denominator")
                    if d == 0:
                        raise ParseError("zero denominator", pos)
                    den *= d
            elif kind == "name":
                if value not in self.vars:
                    raise ParseError(f"unknown variable {value!r}", pos)
                power = 1
                if self.peek()[0] == "op" and self.peek()[1] == "^":
                    self.next()
                    power = self.exponent()
                expo[self.vars[value]] += power
            else:
                raise ParseError("expected a coefficient or a variable", pos)
            kind, value, pos = self.peek()
            if kind == "op" and value == "*":
                self.next()
                continue
            return tuple(expo), num, den

    def exponent(self):
        kind, value, pos = self.peek()
        neg = False
        if kind == "op" and value == "-":
            self.next()
            neg = True
        value = self.expect_int("an integer exponent")
        return -value if neg else value


_FRACTION = re.compile(r"(-?\d+)(?:/(\d+))?")


def parse_fraction(src):
    """``int`` or ``int/int`` with a positive denominator, whitespace around allowed."""
    src = src.strip()
    match = _FRACTION.fullmatch(src)
    if not match:
        raise ValueError(f"not an exact fraction: {src!r}")
    num, den = match.groups()
    if den is None:
        return Fraction(int(num))
    den = int(den)
    if not den:
        raise ValueError(f"zero denominator in {src!r}")
    return Fraction(int(num), den)


def parse_point(src):
    """Parse "(a,b,...)" with exact fraction components."""
    src = src.strip()
    if src.startswith("(") and src.endswith(")"):
        src = src[1:-1]
    return tuple(parse_fraction(part) for part in src.split(","))


def parse_generators(src):
    """Parse a semicolon-separated list of points."""
    return [parse_point(part) for part in src.split(";") if part.strip()]
