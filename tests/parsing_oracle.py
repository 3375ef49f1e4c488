"""The point parser as it was before it read coordinates as integers.

Every coordinate goes through ``parse_fraction`` and comes back as a
`Fraction`.  ``test_parsing_cli.py`` checks the library's int-per-coordinate
point parser against it: the same strings accepted and rejected, the same values.
"""
from __future__ import annotations

import re
from fractions import Fraction

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
