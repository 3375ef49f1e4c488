"""Exact sparse Laurent polynomials over Q, and series truncated in one variable.

All coefficients are `fractions.Fraction`; nothing in this module ever
touches floating point, and a float coefficient raises ``TypeError``.
Products run on integers: each operand is written as integer numerators
over the lcm of its denominators, the numerators are multiplied pair by
pair, and one `Fraction` is built per output term.
Values are immutable after construction and every operation returns a
fresh object, so sharing across threads is safe.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from numbers import Rational
from operator import add, index


def grlex_key(expo):
    """Graded lexicographic sort key (total degree first, then lex)."""
    return (sum(expo), expo)


def _default_names(arity):
    if arity <= 3:
        return ("x", "y", "z")[:arity]
    return tuple(f"z{i + 1}" for i in range(arity))


class LaurentPoly:
    """A finite map from integer exponent vectors to nonzero rationals.

    The stored key set is exactly the support; two polynomials are equal
    iff their term maps are equal.  Exponents may be negative.
    """

    __slots__ = ("arity", "terms")

    def __init__(self, arity, terms=None):
        if arity < 1:
            raise ValueError("arity must be >= 1")
        clean = {}
        for expo, coeff in (terms or {}).items():
            expo = tuple(map(index, expo))
            if not isinstance(coeff, Rational):
                raise TypeError(f"coefficient {coeff!r} is not an exact rational")
            if len(expo) != arity:
                raise ValueError(f"exponent {expo} has arity {len(expo)}, expected {arity}")
            c = clean.get(expo, Fraction(0)) + Fraction(coeff)
            clean[expo] = c
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "terms", {e: c for e, c in clean.items() if c})

    @classmethod
    def _trusted(cls, arity, terms):
        """Wrap a term map that is already clean: int-tuple keys of the right
        arity, nonzero `Fraction` values.  Skips ``__init__``'s re-normalisation."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "arity", arity)
        object.__setattr__(poly, "terms", terms)
        return poly

    def integer_form(self):
        """``(numerators, d)``: ``terms[e] == numerators[e] / d`` with ``d`` the
        lcm of the coefficient denominators."""
        terms = self.terms
        d = lcm(*[c.denominator for c in terms.values()])
        if d == 1:
            return {e: c.numerator for e, c in terms.items()}, 1
        return {e: c.numerator * (d // c.denominator) for e, c in terms.items()}, d

    @classmethod
    def from_integer_form(cls, arity, numerators, d):
        """The polynomial with coefficients ``numerators[e] / d``; zeros are dropped."""
        if d == 1:
            return cls._trusted(arity, {e: Fraction(n) for e, n in numerators.items() if n})
        return cls._trusted(arity, {e: Fraction(n, d) for e, n in numerators.items() if n})

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # ----- constructors -----

    @classmethod
    def zero(cls, arity):
        return cls(arity)

    @classmethod
    def constant(cls, arity, value):
        return cls(arity, {(0,) * arity: value})

    @classmethod
    def one(cls, arity):
        return cls.constant(arity, 1)

    @classmethod
    def monomial(cls, expo, coeff=1):
        expo = tuple(expo)
        return cls(len(expo), {expo: coeff})

    @classmethod
    def variable(cls, arity, index, power=1):
        expo = tuple(power if i == index else 0 for i in range(arity))
        return cls(arity, {expo: 1})

    # ----- queries -----

    @property
    def is_zero(self):
        return not self.terms

    def support(self):
        return set(self.terms)

    def coeff(self, expo):
        return self.terms.get(tuple(expo), Fraction(0))

    def constant_term(self):
        return self.coeff((0,) * self.arity)

    def holomorphic_part(self):
        """Sub-sum over exponent vectors lying in N^n."""
        kept = {e: c for e, c in self.terms.items() if all(x >= 0 for x in e)}
        return LaurentPoly(self.arity, kept)

    def degree_in(self, var):
        """Largest exponent of the given variable; None for the zero polynomial."""
        if self.is_zero:
            return None
        return max(e[var] for e in self.terms)

    def min_exponent(self, var):
        if self.is_zero:
            return None
        return min(e[var] for e in self.terms)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def is_monomial(self):
        return len(self.terms) == 1

    # ----- arithmetic -----

    def _check_arity(self, other):
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(self.arity, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_arity(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            total = out.get(e, 0) + c
            if total:
                out[e] = total
            else:
                del out[e]
        return LaurentPoly._trusted(self.arity, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._trusted(self.arity, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, LaurentPoly) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            if not other:
                return LaurentPoly._trusted(self.arity, {})
            return LaurentPoly._trusted(self.arity, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_arity(other)
        na, da = self.integer_form()
        nb, db = other.integer_form()
        right = list(nb.items())
        out = {}
        get = out.get
        for e1, c1 in na.items():
            for e2, c2 in right:
                e = tuple(map(add, e1, e2))
                out[e] = get(e, 0) + c1 * c2
        return LaurentPoly.from_integer_form(self.arity, out, da * db)

    __rmul__ = __mul__

    def __pow__(self, m):
        return _power(self, m) if m else LaurentPoly.one(self.arity)

    def substitute(self, var, replacement):
        """Substitute a polynomial for one variable.

        Requires every exponent of ``var`` in ``self`` to be nonnegative.
        """
        self._check_arity(replacement)
        exponents = [e[var] for e in self.terms]
        if any(k < 0 for k in exponents):
            raise ValueError("cannot substitute into a negative exponent")
        replacement_powers = [LaurentPoly.one(self.arity),
                              *powers(replacement, max(exponents, default=0))]
        out = LaurentPoly.zero(self.arity)
        for e, c in self.terms.items():
            rest = tuple(0 if i == var else x for i, x in enumerate(e))
            out = out + LaurentPoly.monomial(rest, c) * replacement_powers[e[var]]
        return out

    # ----- comparison / printing -----

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(self.arity, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    def sorted_terms(self):
        """Terms in descending graded-lex order (deterministic)."""
        return [(e, self.terms[e]) for e in sorted(self.terms, key=grlex_key, reverse=True)]

    def to_string(self, names=None):
        if self.is_zero:
            return "0"
        names = names or _default_names(self.arity)
        pieces = []
        for expo, c in self.sorted_terms():
            mono = "*".join(
                names[i] if e == 1 else f"{names[i]}^{e}"
                for i, e in enumerate(expo) if e
            )
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

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"LaurentPoly({self.arity}, {self.to_string()!r})"


class TruncSeries:
    """A Laurent polynomial truncated in one variable.

    ``TruncSeries(body, var, degree)`` stands for a series whose
    coefficients with exponent <= ``degree`` in variable ``var`` are those
    of ``body``; everything beyond is unrepresented.  The other variables
    are exact.  After any operation the stored degree is the minimum
    provable one.  Two series combine only when they truncate the same
    variable.
    """

    __slots__ = ("body", "var", "degree")

    def __init__(self, body, var, degree):
        # type(...) is int: a bool is not an index or a degree
        if type(var) is not int or var not in range(body.arity):
            raise ValueError(f"tracked variable {var!r} is not an index below arity {body.arity}")
        if type(degree) is not int:
            raise ValueError(f"truncation degree {degree!r} is not an integer")
        kept = {e: c for e, c in body.terms.items() if e[var] <= degree}
        if len(kept) < len(body.terms):
            body = LaurentPoly._trusted(body.arity, kept)
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "degree", degree)

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeries is immutable")

    @property
    def arity(self):
        return self.body.arity

    def _lowest(self):
        """A lower bound on the exponent of var in the series this stands for:
        a zero body only says that nothing up to the degree is there."""
        if self.body.is_zero:
            return self.degree + 1
        return self.body.min_exponent(self.var)

    def _operand(self, other):
        """``(body, degree)`` of the other operand; the degree is None for an
        exact operand (a polynomial or a scalar), which is known in every degree."""
        if isinstance(other, TruncSeries):
            if other.var != self.var:
                raise ValueError("series truncated in different variables do not combine")
            return other.body, other.degree
        if isinstance(other, LaurentPoly):
            return other, None
        if isinstance(other, (int, Fraction)):
            return LaurentPoly.constant(self.arity, other), None
        raise TypeError(f"cannot combine TruncSeries with {type(other).__name__}")

    def __add__(self, other):
        body, degree = self._operand(other)
        degree = self.degree if degree is None else min(self.degree, degree)
        return TruncSeries(self.body + body, self.var, degree)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries(-self.body, self.var, self.degree)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        body, degree = self._operand(other)
        if degree is None:
            if body.is_zero:
                # exactly zero; the own degree is a sound (if modest) claim
                return TruncSeries(body, self.var, self.degree)
            # the exact factor is known everywhere: only self limits the product
            degree = self.degree + body.min_exponent(self.var)
        else:
            # [z^k](A*B) only needs A up to k - low(B) and B up to k - low(A)
            degree = min(self.degree + other._lowest(), degree + self._lowest())
        return TruncSeries(self.body * body, self.var, degree)

    __rmul__ = __mul__

    def __pow__(self, m):
        if m:
            return _power(self, m)
        return TruncSeries(LaurentPoly.one(self.arity), self.var, self.degree)

    def constant_term(self):
        return self.body.constant_term()

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (self.body, self.var, self.degree) == (other.body, other.var, other.degree)

    def __hash__(self):
        return hash((self.body, self.var, self.degree))

    def to_string(self, names=None):
        names = names or _default_names(self.arity)
        return f"{self.body.to_string(names)}  (mod {names[self.var]}<={self.degree})"

    def __repr__(self):
        return f"TruncSeries({self.to_string()!r})"


def powers(x, horizon):
    """Yield ``x, x^2, ..., x^horizon`` for a LaurentPoly or TruncSeries.

    Each power is one product with ``x``, made only when it is asked for, so
    nothing is computed past ``x^horizon`` or past where the caller stops.
    """
    if horizon < 1:
        return
    x_m = x
    yield x_m
    for _ in range(horizon - 1):
        x_m = x_m * x
        yield x_m


def _power(x, m):
    """``x ** m`` for m != 0: the last element of ``powers(x, m)``.

    This is the only power algorithm, one product with ``x`` per step, so
    ``x ** m`` and ``powers`` agree in body and in claimed precision.
    """
    if m < 0:
        raise ValueError("exponent must be nonnegative")
    for x_m in powers(x, m):
        pass
    return x_m


def series_exp(s):
    """Exponential of a truncated series.

    Every term must have a strictly positive exponent in the truncated
    variable (so the constant term is zero), which makes the sum over
    s^k/k! finite at the series' degree.
    """
    if any(e[s.var] < 1 for e in s.body.terms):
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
