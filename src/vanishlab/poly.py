"""Exact sparse Laurent polynomials and truncated power series over Q.

All coefficients are `fractions.Fraction`; nothing in this module ever
touches floating point.  Products run on integers: each operand is written
as integer numerators over the lcm of its denominators, the numerators are
multiplied pair by pair, and one `Fraction` is built per output term.
Values are immutable after construction and every operation returns a
fresh object, so sharing across threads is safe.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from operator import add


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
            expo = tuple(int(e) for e in expo)
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
        return cls(arity, {(0,) * arity: Fraction(value)})

    @classmethod
    def one(cls, arity):
        return cls.constant(arity, 1)

    @classmethod
    def monomial(cls, expo, coeff=1):
        expo = tuple(int(e) for e in expo)
        return cls(len(expo), {expo: Fraction(coeff)})

    @classmethod
    def variable(cls, arity, index, power=1):
        expo = tuple(power if i == index else 0 for i in range(arity))
        return cls(arity, {expo: Fraction(1)})

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

    def total_degree(self):
        """Generalized total degree (deg z_i^{-1} = -1); None for zero."""
        if self.is_zero:
            return None
        return max(sum(e) for e in self.terms)

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


def _lowest(body, precision, v):
    """A lower bound on the exponent of v in the series (body, precision)
    stands for: a zero body only says that nothing up to the precision is there."""
    if body.is_zero:
        return precision[v] + 1
    return body.min_exponent(v)


class TruncSeries:
    """A Laurent polynomial with per-variable truncation degrees.

    ``precision[v] = D`` means coefficients with exponent <= D in variable
    ``v`` are trustworthy and everything beyond is unrepresented.  After any
    operation the stored precision is the minimum provable one.  Variables
    absent from the precision map are exact.  Two truncated series multiply
    only with at most one tracked variable; with more, no precision of the
    product is provable and the product raises ``ValueError``.
    """

    __slots__ = ("body", "precision")

    def __init__(self, body, precision):
        precision = dict(precision)
        bounds = tuple(precision.items())
        kept = {e: c for e, c in body.terms.items() if all(e[v] <= d for v, d in bounds)}
        if len(kept) < len(body.terms):
            body = LaurentPoly._trusted(body.arity, kept)
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "precision", precision)

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeries is immutable")

    @property
    def arity(self):
        return self.body.arity

    def _operand(self, other):
        """``(body, precision)`` of the other operand over the same tracked
        variables; the precision is None for an exact operand (a polynomial
        or a scalar), which is known in every degree."""
        if isinstance(other, TruncSeries):
            if set(other.precision) != set(self.precision):
                raise ValueError("mismatched tracked variables")
            return other.body, other.precision
        if isinstance(other, LaurentPoly):
            return other, None
        if isinstance(other, (int, Fraction)):
            return LaurentPoly.constant(self.arity, other), None
        raise TypeError(f"cannot combine TruncSeries with {type(other).__name__}")

    def __add__(self, other):
        body, precision = self._operand(other)
        if precision is None:
            precision = self.precision
        else:
            precision = {v: min(d, precision[v]) for v, d in self.precision.items()}
        return TruncSeries(self.body + body, precision)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries(-self.body, self.precision)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        body, precision = self._operand(other)
        if precision is None:
            if body.is_zero:
                # exactly zero; the own precision is a sound (if modest) claim
                return TruncSeries(body, self.precision)
            # the exact factor is known everywhere: only self limits the product
            prec = {v: d + body.min_exponent(v) for v, d in self.precision.items()}
        elif len(self.precision) > 1:
            # a term cut in one variable may carry any exponent in another,
            # so two cut terms can multiply back into the claimed region
            raise ValueError("the product of two truncated series is provable "
                             "only with one tracked variable")
        else:
            # [z^k](A*B) only needs A up to k - low(B) and B up to k - low(A)
            prec = {v: min(d + _lowest(body, precision, v),
                           precision[v] + _lowest(self.body, self.precision, v))
                    for v, d in self.precision.items()}
        return TruncSeries(self.body * body, prec)

    __rmul__ = __mul__

    def __pow__(self, m):
        return _power(self, m) if m else TruncSeries(LaurentPoly.one(self.arity), self.precision)

    def truncated(self, precision):
        return TruncSeries(self.body, precision)

    def constant_term(self):
        return self.body.constant_term()

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.body == other.body and self.precision == other.precision

    def __hash__(self):
        return hash((self.body, frozenset(self.precision.items())))

    def to_string(self, names=None):
        bounds = ", ".join(f"{v}<={d}" for v, d in sorted(self.precision.items()))
        return f"{self.body.to_string(names)}  (mod {bounds})"

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
    """Exponential of a truncated series in one tracked variable.

    Every term must have a strictly positive exponent in the tracked
    variable (so the constant term is zero), which makes the sum over
    s^k/k! finite at the declared precision.  With two or more tracked
    variables no precision of the products is provable (see `TruncSeries`),
    so ``ValueError`` is raised.
    """
    if len(s.precision) != 1:
        raise ValueError("series_exp requires exactly one tracked variable")
    (v,) = s.precision
    if any(e[v] < 1 for e in s.body.terms):
        raise ValueError("series_exp requires a positive exponent in the tracked variable")
    target = dict(s.precision)
    result = TruncSeries(LaurentPoly.one(s.arity), target)
    power = TruncSeries(LaurentPoly.one(s.arity), target)
    k = 0
    while True:
        k += 1
        power = (power * s).truncated(target)
        if power.body.is_zero:
            return result
        result = result + power * Fraction(1, factorial(k))
