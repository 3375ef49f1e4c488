"""Exact sparse Laurent polynomials over Q, and series truncated in one variable.

A polynomial stores integer numerators over one positive denominator, in
lowest terms, and every operation works on those integers: a product
multiplies numerators pair by pair and reduces once with one ``gcd``.
Coefficients are read as `fractions.Fraction` through ``coeff`` or
``terms``; nothing in this module ever touches floating point, and a float
coefficient raises ``TypeError``.  A series product multiplies only the
pairs that land within its provable degree.
Values are immutable after construction and every operation returns a
fresh object, so sharing across threads is safe.
"""
from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from numbers import Rational
from operator import add, index
from types import MappingProxyType


def grlex_key(expo):
    """Graded lexicographic sort key (total degree first, then lex)."""
    return (sum(expo), expo)


def _default_names(arity):
    if arity <= 3:
        return ("x", "y", "z")[:arity]
    return tuple(f"z{i + 1}" for i in range(arity))


class LaurentPoly:
    """A finite map from integer exponent vectors to nonzero rationals.

    Stored as integer numerators ``nums`` (exponent tuple -> int) over one
    positive denominator ``den``, in lowest terms: no numerator is zero and
    ``gcd(den, *nums.values()) == 1``.  Equal polynomials therefore have
    equal storage.  ``terms`` is an exponent -> `Fraction` copy of it.
    Exponents may be negative.
    """

    __slots__ = ("arity", "nums", "den")

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
            c = Fraction(coeff)
            if expo in clean:
                c += clean[expo]
            clean[expo] = c
        clean = {e: c for e, c in clean.items() if c}
        # the lcm of lowest-terms denominators leaves the numerators coprime to it
        den = lcm(*[c.denominator for c in clean.values()])
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "nums",
                           {e: c.numerator * (den // c.denominator) for e, c in clean.items()})
        object.__setattr__(self, "den", den)

    @classmethod
    def _from_integers(cls, arity, nums, den):
        """The polynomial ``nums[e] / den``, zeros dropped, in lowest terms.

        ``nums`` must be a fresh dict of int-tuple keys of the arity and int
        values, and ``den`` a positive int; neither is checked.
        """
        if 0 in nums.values():
            nums = {e: n for e, n in nums.items() if n}
        if den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                den //= g
                nums = {e: n // g for e, n in nums.items()}
        poly = object.__new__(cls)
        object.__setattr__(poly, "arity", arity)
        object.__setattr__(poly, "nums", nums)
        object.__setattr__(poly, "den", den)
        return poly

    @property
    def terms(self):
        """Exponent -> `Fraction` coefficient, read-only, built on each read."""
        return MappingProxyType({e: Fraction(n, self.den) for e, n in self.nums.items()})

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
        return not self.nums

    def support(self):
        return set(self.nums)

    def coeff(self, expo):
        n = self.nums.get(tuple(expo), 0)
        return Fraction(n, self.den) if n else Fraction(0)

    def constant_term(self):
        return self.coeff((0,) * self.arity)

    def holomorphic_part(self):
        """Sub-sum over exponent vectors lying in N^n."""
        kept = {e: n for e, n in self.nums.items() if all(x >= 0 for x in e)}
        return LaurentPoly._from_integers(self.arity, kept, self.den)

    def degree_in(self, var):
        """Largest exponent of the given variable; None for the zero polynomial."""
        if self.is_zero:
            return None
        return max(e[var] for e in self.nums)

    def min_exponent(self, var):
        if self.is_zero:
            return None
        return min(e[var] for e in self.nums)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.nums}
        return len(degs) <= 1

    def is_monomial(self):
        return len(self.nums) == 1

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
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        out = {e: n * sa for e, n in self.nums.items()}
        get = out.get
        for e, n in other.nums.items():
            out[e] = get(e, 0) + n * sb
        return LaurentPoly._from_integers(self.arity, out, den)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._from_integers(self.arity, {e: -n for e, n in self.nums.items()},
                                          self.den)

    def __sub__(self, other):
        return self + (-other if isinstance(other, LaurentPoly) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            num, den = other.numerator, other.denominator
            return LaurentPoly._from_integers(
                self.arity, {e: n * num for e, n in self.nums.items()}, self.den * den)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return _product(self, other)

    __rmul__ = __mul__

    def __pow__(self, m):
        return _power(self, m) if m else LaurentPoly.one(self.arity)

    def substitute(self, var, replacement):
        """Substitute a polynomial for one variable.

        Requires every exponent of ``var`` in ``self`` to be nonnegative.
        """
        self._check_arity(replacement)
        exponents = [e[var] for e in self.nums]
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
        return (self.arity, self.den, self.nums) == (other.arity, other.den, other.nums)

    def __hash__(self):
        return hash((self.arity, self.den, frozenset(self.nums.items())))

    def to_string(self, names=None):
        """Terms in descending graded-lex order.  A coefficient prints as
        ``n`` or ``n/d`` in lowest terms, as `str` of a `Fraction` does, and a
        unit magnitude before a monomial is dropped."""
        if self.is_zero:
            return "0"
        names = names or _default_names(self.arity)
        nums, den = self.nums, self.den
        pieces = []
        for expo in sorted(nums, key=grlex_key, reverse=True):
            n = nums[expo]
            mono = "*".join(
                names[i] if e == 1 else f"{names[i]}^{e}"
                for i, e in enumerate(expo) if e
            )
            a = abs(n)
            g = gcd(a, den)
            mag = str(a // g) if g == den else f"{a // g}/{den // g}"
            if not mono:
                body = mag
            elif a == den:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not pieces:
                pieces.append(body if n > 0 else "-" + body)
            else:
                pieces.append(("+ " if n > 0 else "- ") + body)
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
        kept = {e: n for e, n in body.nums.items() if e[var] <= degree}
        if len(kept) < len(body.nums):
            body = LaurentPoly._from_integers(body.arity, kept, body.den)
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "degree", degree)

    @classmethod
    def _from_cut(cls, body, var, degree):
        """The series ``body`` at ``degree`` in ``var``, trusted as given.

        ``body`` must hold no term past ``degree`` in ``var`` (a cut
        product), ``var`` an index below its arity and ``degree`` an int;
        none of this is checked.
        """
        series = object.__new__(cls)
        object.__setattr__(series, "body", body)
        object.__setattr__(series, "var", var)
        object.__setattr__(series, "degree", degree)
        return series

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
                return TruncSeries._from_cut(body, self.var, self.degree)
            # the exact factor is known everywhere: only self limits the product
            degree = self.degree + body.min_exponent(self.var)
        else:
            # [z^k](A*B) only needs A up to k - low(B) and B up to k - low(A)
            degree = min(self.degree + other._lowest(), degree + self._lowest())
        return TruncSeries._from_cut(_product(self.body, body, (self.var, degree)), self.var,
                                     degree)

    __rmul__ = __mul__

    def __pow__(self, m):
        if m:
            return _power(self, m)
        return TruncSeries(LaurentPoly.one(self.arity), self.var, self.degree)

    def coeff(self, expo):
        """The coefficient at ``expo``; ValueError past the degree, where the
        series does not know it."""
        if expo[self.var] > self.degree:
            raise ValueError(f"exponent {tuple(expo)} lies past the truncation degree "
                             f"{self.degree}")
        return self.body.coeff(expo)

    def constant_term(self):
        return self.coeff((0,) * self.arity)

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


def _product(a, b, cut=None):
    """``a * b`` for two polynomials: integer numerators multiplied pair by
    pair over the product of the denominators, then reduced once.

    With ``cut = (var, degree)`` only the pairs whose product has exponent
    at most ``degree`` in variable ``var`` are multiplied: the right
    operand is sorted by that exponent and each left term takes the prefix
    that a bisection finds, so the pair loop tests nothing.  Without a cut
    the terms come out in the order each exponent is first reached.
    """
    a._check_arity(b)
    right = list(b.nums.items())
    if cut is None:
        rows = zip(a.nums.items(), repeat(right))
    else:
        var, degree = cut
        right.sort(key=lambda term: term[0][var])
        exps = [e[var] for e, _ in right]
        rows = [(term, right[:bisect_right(exps, degree - term[0][var])])
                for term in a.nums.items()]
    out = {}
    get = out.get
    for (e1, c1), partners in rows:
        for e2, c2 in partners:
            e = tuple(map(add, e1, e2))
            out[e] = get(e, 0) + c1 * c2
    return LaurentPoly._from_integers(a.arity, out, a.den * b.den)


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
