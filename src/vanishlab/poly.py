"""Exact sparse Laurent polynomials over Q, and series truncated in one variable.

A polynomial stores integer numerators over one positive denominator, in
lowest terms, and every operation works on those integers: a product
multiplies numerators pair by pair and reduces once with one ``gcd``.
Coefficients are read as `fractions.Fraction` through ``coeff`` or
``terms``; nothing in this module ever touches floating point, and a float
coefficient raises ``TypeError``.  A series product multiplies only the
pairs that land within its provable degree.  A one-term operand takes no
pair loop: with one term no two pairs meet, so the product is the other
operand with every key shifted and every numerator scaled, in one pass.
A one-term operator is applied the same way: operator application
(`_apply`) and a profile's box cut (`_within`) live here too.

Each monomial is stored as one packed ``int`` key (after Monagan and Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007).  With slot width W, the exponent vector e packs to
``sum(e[i] << W*i)``.  The packing is linear, so ``key(e1) + key(e2) ==
key(e1 + e2)`` also for negative exponents, and a monomial product is one
integer add.  Let ``half = 2**(W-1)``, ``mask = 2**W - 1`` and ``guards``
the integer with ``half`` in every slot.  While every exponent has absolute
value below ``half``, slot i reads back as ``((key + guards) >> W*i & mask)
- half``.  Slot i of ``key + guards`` has its top bit set exactly when
e[i] >= 0, so e is in N^n iff ``(key + guards) & guards == guards``.  For
beta, mu in N^n, beta >= mu is that test on ``key(beta) - key(mu)``: one
subtract, one add and one mask.

Each polynomial carries ``reach``, a bound on the absolute value of its
exponents, and packs its keys at ``width = _width(arity, reach)``: ``30 //
arity`` bits, doubled until ``reach < 2**(width-1)``.  At the first width a
key stays below 2**30 even plus ``guards``, which keeps it one digit of a
CPython int, whose arithmetic and hash take the fast path.  An operation
bounds the reach of its result before it starts, by one rule: the sum of
the operands' reaches for a product, cut or not, and the larger reach for a
sum, an operator application or a box cut, which keeps its operand's.  It
works at the width of that bound and repacks an operand stored narrower.
A width therefore only ever widens, and no slot wraps into its neighbour.
Two equal polynomials with different reach bounds compare equal and hash
alike.  The tuple views (``terms``, ``exponents``, ``integer_items``,
``to_string`` and the rest) unpack the keys, and outside this module no
module touches a key.

Values are immutable after construction and every operation returns a
fresh object, so sharing across threads is safe.
"""
from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import cache, reduce
from itertools import chain, repeat
from math import gcd, lcm, perm, prod
from numbers import Rational
from operator import and_, index, itemgetter, lshift, rshift
from types import MappingProxyType
from typing import NamedTuple


def grlex_key(expo):
    """Graded lexicographic sort key (total degree first, then lex)."""
    return (sum(expo), expo)


def _default_names(arity):
    if arity <= 3:
        return ("x", "y", "z")[:arity]
    return tuple(f"z{i + 1}" for i in range(arity))


def _width(arity, reach):
    """The slot width for ``arity`` slots holding exponents of absolute value
    at most ``reach``: ``30 // arity`` (at least 2), doubled until it holds them."""
    width = max(2, 30 // arity)
    while reach >> (width - 1):
        width *= 2
    return width


class _Layout(NamedTuple):
    """``arity`` slots of ``width`` bits: ``guards`` holds ``half`` in every
    slot, and is also the bias of a read."""
    width: int
    shifts: tuple
    guards: int
    mask: int
    half: int


@cache
def _layout(arity, width):
    """The one `_Layout` of the arity and width, so layouts compare by identity."""
    shifts = tuple(range(0, arity * width, width))
    half = 1 << (width - 1)
    return _Layout(width, shifts, sum(half << s for s in shifts), (1 << width) - 1, half)


def _pack_all(expos, layout):
    """The keys of the exponent tuples ``expos``, in order."""
    shifts = layout.shifts
    return [sum(map(lshift, e, shifts)) for e in expos]


def _unpack_all(keys, layout):
    """The exponent tuples of ``keys``, in order."""
    _, shifts, guards, mask, half = layout
    return [tuple([(k >> s & mask) - half for s in shifts]) for k in map(guards.__add__, keys)]


def _slots(keys, layout, var):
    """For each key, the exponent of ``var`` plus ``half``: its slot of ``key + guards``."""
    return map(layout.mask.__and__,
               map(rshift, map(layout.guards.__add__, keys), repeat(layout.shifts[var])))


class LaurentPoly:
    """A finite map from integer exponent vectors to nonzero rationals.

    Stored as integer numerators ``nums`` (packed exponent key -> int) over
    one positive denominator ``den``, in lowest terms: no numerator is zero
    and ``gcd(den, *nums.values()) == 1``.  Every exponent has absolute value
    at most ``reach``, and the keys are packed by ``layout``, at ``width =
    _width(arity, reach)`` bits a slot (see the module docstring).  ``terms``
    is an exponent tuple -> `Fraction` copy of it.  Exponents may be negative.
    """

    __slots__ = ("arity", "nums", "den", "reach", "layout")

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
        reach = max(map(abs, chain.from_iterable(clean)), default=0)
        layout = _layout(arity, _width(arity, reach))
        _set_arity(self, arity)
        _set_nums(self, {e: c.numerator * (den // c.denominator)
                         for e, c in zip(_pack_all(clean, layout), clean.values())})
        _set_den(self, den)
        _set_reach(self, reach)
        _set_layout(self, layout)

    @classmethod
    def _from_integers(cls, arity, nums, den):
        """The polynomial ``nums[e] / den``, zeros dropped, in lowest terms.

        ``nums`` must be a dict of int-tuple keys of the arity and int
        values, and ``den`` a positive int; neither is checked.
        """
        reach = max(map(abs, chain.from_iterable(nums)), default=0)
        layout = _layout(arity, _width(arity, reach))
        return cls._from_keys(arity, dict(zip(_pack_all(nums, layout), nums.values())), den,
                              reach, layout)

    @classmethod
    def _from_keys(cls, arity, nums, den, reach, layout):
        """``_from_integers`` on keys packed by ``layout``.

        ``nums`` must be a fresh dict of such keys, every exponent of
        absolute value at most ``reach`` and ``layout`` that of
        ``_width(arity, reach)``; none of this is checked.
        """
        if 0 in nums.values():
            nums = {e: n for e, n in nums.items() if n}
        if den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                den //= g
                nums = {e: n // g for e, n in nums.items()}
        poly = object.__new__(cls)
        _set_arity(poly, arity)
        _set_nums(poly, nums)
        _set_den(poly, den)
        _set_reach(poly, reach)
        _set_layout(poly, layout)
        return poly

    def _at(self, layout):
        """``nums`` with its keys packed by ``layout``, which is at least as wide."""
        if layout is self.layout:
            return self.nums
        nums = self.nums
        return dict(zip(_pack_all(_unpack_all(nums, self.layout), layout), nums.values()))

    @property
    def terms(self):
        """Exponent -> `Fraction` coefficient, read-only, built on each read."""
        den = self.den
        return MappingProxyType({e: Fraction(n, den) for e, n in self.integer_items()})

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

    def exponents(self):
        """The exponent tuples of the terms, in storage order."""
        return tuple(_unpack_all(self.nums, self.layout))

    def integer_items(self):
        """``(exponent tuple, numerator)`` per term, in storage order; each
        coefficient is the numerator over ``den``."""
        nums = self.nums
        return list(zip(_unpack_all(nums, self.layout), nums.values()))

    def numerators_along(self, var, top):
        """The numerators over ``den`` of ``var``'s powers 0..``top``, 0 where
        there is no term, or None when a term lies off them.  Each is read by
        its key ``j << shift``, and no key is unpacked."""
        shift, get = self.layout.shifts[var], self.nums.get
        # no term lies past the reach, where a key could alias another slot's
        found = [get(j << shift, 0) for j in range(min(top, self.reach) + 1)]
        if len(self.nums) != len(found) - found.count(0):
            return None
        return found + [0] * (top + 1 - len(found))

    def is_holomorphic(self):
        """Whether every exponent vector lies in N^n: the AND of the biased
        keys keeps a slot's top bit only where every key has it."""
        guards = self.layout.guards
        return reduce(and_, map(guards.__add__, self.nums), guards) & guards == guards

    def coeff(self, expo):
        expo = tuple(expo)
        if len(expo) != self.arity:
            raise ValueError(f"exponent {expo} has arity {len(expo)}, expected {self.arity}")
        if max(map(abs, expo)) > self.reach:
            return Fraction(0)
        n = self.nums.get(sum(map(lshift, expo, self.layout.shifts)), 0)
        return Fraction(n, self.den) if n else Fraction(0)

    def constant_term(self):
        return self.coeff((0,) * self.arity)

    def holomorphic_part(self):
        """Sub-sum over exponent vectors lying in N^n."""
        guards = self.layout.guards
        kept = {e: n for e, n in self.nums.items() if e + guards & guards == guards}
        return LaurentPoly._from_keys(self.arity, kept, self.den, self.reach, self.layout)

    def _extreme(self, var, pick):
        """``pick`` (min or max) of the exponents of ``var``; None for zero.

        The last variable's slot is the top one, and it grows with the key:
        its extreme is the slot of the extreme key."""
        if self.is_zero:
            return None
        layout = self.layout
        if var == self.arity - 1:
            return (pick(self.nums) + layout.guards >> layout.shifts[var]) - layout.half
        return pick(_slots(self.nums, layout, var)) - layout.half

    def degree_in(self, var):
        """Largest exponent of the given variable; None for the zero polynomial."""
        return self._extreme(var, max)

    def min_exponent(self, var):
        return self._extreme(var, min)

    def is_homogeneous(self):
        return len(set(map(sum, self.exponents()))) <= 1

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
        # the wider of the two layouts is that of the larger reach
        wide = self if self.reach >= other.reach else other
        out = {e: n * sa for e, n in self._at(wide.layout).items()}
        get = out.get
        for e, n in other._at(wide.layout).items():
            out[e] = get(e, 0) + n * sb
        return LaurentPoly._from_keys(self.arity, out, den, wide.reach, wide.layout)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._from_keys(self.arity, {e: -n for e, n in self.nums.items()},
                                      self.den, self.reach, self.layout)

    def __sub__(self, other):
        return self + (-other if isinstance(other, LaurentPoly) else -Fraction(other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            num, den = other.numerator, other.denominator
            return LaurentPoly._from_keys(self.arity, {e: n * num for e, n in self.nums.items()},
                                          self.den * den, self.reach, self.layout)
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
        terms = self.terms
        exponents = [e[var] for e in terms]
        if any(k < 0 for k in exponents):
            raise ValueError("cannot substitute into a negative exponent")
        replacement_powers = [LaurentPoly.one(self.arity),
                              *powers(replacement, max(exponents, default=0))]
        out = LaurentPoly.zero(self.arity)
        for e, c in terms.items():
            rest = tuple(0 if i == var else x for i, x in enumerate(e))
            out = out + LaurentPoly.monomial(rest, c) * replacement_powers[e[var]]
        return out

    # ----- comparison / printing -----

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(self.arity, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if (self.arity, self.den, len(self.nums)) != (other.arity, other.den, len(other.nums)):
            return False
        layout = (self if self.reach >= other.reach else other).layout
        return self._at(layout) == other._at(layout)

    def __hash__(self):
        return hash((self.arity, self.den, frozenset(self.integer_items())))

    def to_string(self, names=None):
        """Terms in descending graded-lex order.  A coefficient prints as
        ``n`` or ``n/d`` in lowest terms, as `str` of a `Fraction` does, and a
        unit magnitude before a monomial is dropped."""
        if self.is_zero:
            return "0"
        names = names or _default_names(self.arity)
        den = self.den
        pieces = []
        terms = dict(self.integer_items())
        for expo in sorted(terms, key=grlex_key, reverse=True):
            n = terms[expo]
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


# the slot setters themselves, past the __setattr__ that keeps values immutable
_set_arity, _set_nums, _set_den, _set_reach, _set_layout = (
    LaurentPoly.__dict__[name].__set__ for name in LaurentPoly.__slots__)


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
        layout = body.layout
        top = degree + layout.half
        kept = {e: n for (e, n), slot in zip(body.nums.items(), _slots(body.nums, layout, var))
                if slot <= top}
        if len(kept) < len(body.nums):
            body = LaurentPoly._from_keys(body.arity, kept, body.den, body.reach, layout)
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
        series does not know it, and on an exponent of the wrong arity."""
        expo = tuple(expo)
        value = self.body.coeff(expo)
        if expo[self.var] > self.degree:
            raise ValueError(f"exponent {expo} lies past the truncation degree {self.degree}")
        return value

    def constant_term(self):
        return self.coeff((0,) * self.arity)

    def __repr__(self):
        names = _default_names(self.arity)
        text = f"{self.body.to_string(names)}  (mod {names[self.var]}<={self.degree})"
        return f"TruncSeries({text!r})"


def _product(a, b, cut=None):
    """``a * b`` for two polynomials: integer numerators multiplied pair by
    pair over the product of the denominators, then reduced once.  Each
    pair's key is the sum of the two keys, and the product's reach is
    ``a.reach + b.reach``, cut or not: its layout is the wider operand's,
    or a wider one only when that sum needs it.

    With ``cut = (var, degree)`` only the pairs whose product has exponent
    at most ``degree`` in variable ``var`` are multiplied: the right
    operand is sorted by that exponent and each left term takes the prefix
    that a bisection finds, so the pair loop tests nothing.  Without a cut
    the terms come out in the order each exponent is first reached.

    When either operand has one term, no two pairs share a key and nothing
    accumulates: the product is one pass over the other operand, each key
    shifted by the one term's key and each numerator scaled by its
    numerator, in the other operand's order.  A cut is then one slot test
    per term.  Reach, layout and denominator are those of the pair loop.
    """
    a._check_arity(b)
    reach = a.reach + b.reach
    # the wider layout is that of the larger reach; it may hold the sum
    layout = a.layout if a.reach >= b.reach else b.layout
    if reach >> (layout.width - 1):
        layout = _layout(a.arity, _width(a.arity, reach))
    a_nums, b_nums = a._at(layout), b._at(layout)
    if len(a_nums) == 1 or len(b_nums) == 1:
        one, many = (a_nums, b_nums) if len(a_nums) == 1 else (b_nums, a_nums)
        (k, c), = one.items()
        if cut is None:
            out = {e + k: n * c for e, n in many.items()}
        else:
            var, degree = cut
            top = degree + 2 * layout.half - next(_slots((k,), layout, var))
            out = {e + k: n * c for (e, n), slot in zip(many.items(), _slots(many, layout, var))
                   if slot <= top}
        return LaurentPoly._from_keys(a.arity, out, a.den * b.den, reach, layout)
    if cut is None:
        rows = zip(a_nums.items(), repeat(list(b_nums.items())))
    else:
        var, degree = cut
        # slots carry the bias half: e1 + e2 <= degree where they add to
        # at most degree + 2*half
        by_slot = sorted(zip(_slots(b_nums, layout, var), b_nums.items()), key=itemgetter(0))
        slots = list(map(itemgetter(0), by_slot))
        right = list(map(itemgetter(1), by_slot))
        top = degree + 2 * layout.half
        rows = [(term, right[:bisect_right(slots, top - slot)])
                for term, slot in zip(a_nums.items(), _slots(a_nums, layout, var))]
    out = {}
    get = out.get
    for (e1, c1), partners in rows:
        for e2, c2 in partners:
            e = e1 + e2
            out[e] = get(e, 0) + c1 * c2
    return LaurentPoly._from_keys(a.arity, out, a.den * b.den, reach, layout)


def _falling(mu, beta):
    """The integer product of the falling factorials b (b-1) ... (b-m+1), for
    beta >= mu: every factor is positive."""
    return prod(map(perm, beta, mu))


def _apply_to_poly(symbol, poly):
    """The operator of ``symbol`` applied to a polynomial with exponents in N^n.

    d^mu z^beta vanishes unless beta >= mu.  With both keys at one width
    that is one guard-bit test (see the module docstring): every slot of
    beta + guards - mu keeps its top bit.  Only those pairs reach
    `_falling`, mu by mu in the operand's order, which keeps the output's
    insertion order.  A key in N^n reads its slots without the bias.

    A one-term symbol mu sends each operand term beta >= mu to its own
    beta - mu, so no two pairs meet: the result is one pass over the
    operand, with no accumulation.
    """
    if not symbol.is_zero and not poly.is_holomorphic():
        raise ValueError("operand exponents must be in N^n")
    wide = symbol if symbol.reach >= poly.reach else poly
    layout = wide.layout
    _, shifts, guards, mask, _ = layout
    betas = poly._at(layout)
    mus = symbol._at(layout)
    if len(mus) == 1:
        (mu, c), = mus.items()
        mu_expo = tuple([mu >> s & mask for s in shifts])
        out = {beta - mu: c * b * _falling(mu_expo, tuple([beta >> s & mask for s in shifts]))
               for beta, b in betas.items() if beta + guards - mu & guards == guards}
    else:
        right = list(zip(map(guards.__add__, betas), betas, betas.values()))
        out = {}
        get = out.get
        for mu, c in mus.items():
            mu_expo = None
            for biased, beta, b in right:
                if biased - mu & guards == guards:
                    if mu_expo is None:
                        mu_expo = tuple([mu >> s & mask for s in shifts])
                    expo = beta - mu
                    beta_expo = tuple([beta >> s & mask for s in shifts])
                    out[expo] = get(expo, 0) + c * b * _falling(mu_expo, beta_expo)
    # 0 <= beta - mu <= beta: the output's exponents lie within the wider reach
    return LaurentPoly._from_keys(poly.arity, out, symbol.den * poly.den, wide.reach, layout)


def _apply(symbol, x):
    """`vanishlab.diffops.apply` on the operator's symbol, arities unchecked: on
    a series the degree drops by the symbol's order in the truncated variable."""
    if isinstance(x, TruncSeries):
        v = x.var
        degree = x.degree - (symbol.degree_in(v) or 0)
        return TruncSeries(_apply_to_poly(symbol, x.body), v, degree)
    return _apply_to_poly(symbol, x)


def _within(poly, box):
    """The terms of ``poly`` with exponent at most ``box`` in every variable.

    ``poly`` must have its exponents in N^n and ``box`` must be nonnegative
    ints; neither is checked.  No exponent passes the reach, so the box is
    capped at it and its key fits the layout.  Then mu <= box is the
    guard-bit test of `_apply_to_poly` on ``key(box) + guards - mu``.
    """
    layout, reach, nums = poly.layout, poly.reach, poly.nums
    top = sum(map(lshift, [min(b, reach) for b in box], layout.shifts)) + layout.guards
    guards = layout.guards
    kept = {mu: c for mu, c in nums.items() if top - mu & guards == guards}
    if len(kept) == len(nums):
        return poly
    return LaurentPoly._from_keys(poly.arity, kept, poly.den, reach, layout)


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
