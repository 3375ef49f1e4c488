"""Exact rational simplex solver (two phases, Bland's anti-cycling rule).

Solves maximize c.x subject to Ax = b, x >= 0 on an integer tableau over
one positive common denominator d, the absolute determinant of the basis:
every entry is d times the true one.  A pivot is fraction-free (Bareiss):
each row is scaled by the pivot and divided exactly by the old d, so no
gcd is taken and the entries stay minors of the input.  The objective is
one more row (reduced costs, then minus the value) that every pivot
updates like the others.  The entering column is a sign test on that row
and the ratio test compares by cross-multiplication.  The answer comes
back in integers as well, numerators over d.  So no Fraction is built
here: rational input is read through its numerators and denominators, and
a caller that holds integer numerators hands them over with each row's
denominator.  A caller that can write down the tableau of a feasible
basis hands it to `phase_two`, and phase 1 is skipped.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from numbers import Rational

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def exact(v):
    """v itself if it is an exact rational; TypeError otherwise, for a float too."""
    # an int or a Fraction is answered without the slower ABC check
    if type(v) is not int and type(v) is not Fraction and not isinstance(v, Rational):
        raise TypeError(f"{v!r} is not an exact rational")
    return v


def over_lcm(values):
    """Exact rationals as (integer numerators, the lcm of their denominators)."""
    values = [exact(v) for v in values]
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _integer_row(values, den=1):
    """(integers, positive denominator) of a fresh list of exact rationals
    that are each over den."""
    if not all(type(v) is int for v in values):
        values, scale = over_lcm(values)
        den *= scale
    return values, den


def _pivot(tableau, basis, d, r, col):
    """Pivot column col into row r of a tableau over d > 0; the new d.

    Fraction-free (Bareiss) elimination: every row is scaled by the pivot
    and divided by the old d.  The division is exact: d is the absolute
    determinant of the basis, so by Cramer's rule each quotient, the new d
    times an entry of the true tableau, is an integer.  A negative pivot
    negates its row first, so the new d, the pivot, is positive and every
    sign reads as the true one.
    """
    prow = tableau[r]
    p = prow[col]
    if p < 0:
        p = -p
        prow = tableau[r] = [-v for v in prow]
    for i, row in enumerate(tableau):
        if i != r:
            f = row[col]
            if f:
                tableau[i] = [(p * a - f * b) // d for a, b in zip(row, prow)]
            elif p != d:
                tableau[i] = [p * a // d for a in row]
    basis[r] = col
    return p


def _optimize(tableau, basis, d):
    """Bland-rule simplex on a tableau over d whose last row is the
    objective; the final d, or None if unbounded."""
    while True:
        enter = next((j for j, v in enumerate(tableau[-1][:-1]) if v > 0), -1)
        if enter < 0:
            return d
        leave = -1
        for i in range(len(basis)):
            row = tableau[i]
            a, b = row[enter], row[-1]
            # b / a < best_b / best_a, or a tie broken by the smaller basic index
            if a > 0 and (leave < 0 or b * best_a < best_b * a
                          or b * best_a == best_b * a and basis[i] < basis[leave]):
                leave, best_a, best_b = i, a, b
        if leave < 0:
            return None
        d = _pivot(tableau, basis, d, leave, enter)


def _objective_row(cost, tableau, basis, d):
    """d times the integer cost's reduced costs, then minus d times its
    value, at the basis of a tableau over d."""
    row = [d * c for c in cost]
    for i, b in enumerate(basis):
        if cost[b]:
            row = [v - cost[b] * a for v, a in zip(row, tableau[i])]
    return row


def solve_lp(rows, rhs, objective, dens=None):
    """Maximize objective.x subject to rows.x = rhs, x >= 0.

    With ``dens``, constraint i is ``(rows[i] / dens[i]).x = rhs[i] / dens[i]``
    for a positive int ``dens[i]``, so a caller that holds integer
    numerators passes them as they are.  Phase 1 brings the rows to one
    common denominator before it adds the artificial columns: multiplying
    each row through by its own would change the phase-1 objective, and
    with it the pivots Bland's rule makes.
    Returns ``(status, x, value, reduced)``, all but status None unless
    optimal, each of the last three as integers over a positive ``int``
    denominator.  ``x`` is ``(nums, den)``: ``x[j] = nums[j] / den``, where
    ``den`` is the tableau's common denominator.  ``value`` is ``(num, den)``
    and ``reduced`` is ``(nums, den)``, both over that denominator times the
    lcm of the objective's denominators: ``nums[j] / den <= 0`` is the
    reduced cost of column j, and where column j is the unit vector of row
    i it is minus row i's optimal dual.  No pair need be in lowest terms.
    A number that is not an exact rational raises ``TypeError``.
    """
    m, n = len(rows), len(objective)
    if dens is None:
        dens = [1] * m
    elif any(type(d) is not int or d < 1 for d in dens) or len(dens) != m:
        raise TypeError(f"row denominators {dens!r} are not {m} positive ints")
    tableau = [_integer_row([*rows[i], rhs[i]], dens[i]) for i in range(m)]
    # over one common denominator the artificial columns are the unit
    # columns, and weigh alike in the phase-1 objective
    common = lcm(*(den for _, den in tableau))
    tableau = [row if den == common else [v * (common // den) for v in row]
               for row, den in tableau]
    for i, row in enumerate(tableau):
        if row[-1] < 0:
            row = [-v for v in row]
        row[n:n] = [1 if j == i else 0 for j in range(m)]
        tableau[i] = row
    basis = [n + i for i in range(m)]

    tableau.append(_objective_row([0] * n + [-1] * m + [0], tableau, basis, 1))
    d = _optimize(tableau, basis, 1)
    if tableau.pop()[-1] > 0:
        return INFEASIBLE, None, None, None

    # Drive leftover artificials out of the basis; a row that keeps one is redundant.
    for i in range(m):
        if basis[i] >= n:
            j = next((j for j in range(n) if tableau[i][j]), -1)
            if j >= 0:
                d = _pivot(tableau, basis, d, i, j)
    keep = [i for i in range(m) if basis[i] < n]
    basis = [basis[i] for i in keep]
    tableau = [tableau[i][:n] + tableau[i][-1:] for i in keep]

    cost, scale = over_lcm([*objective, 0])
    tableau.append(_objective_row(cost, tableau, basis, d))
    status, x, value, reduced = phase_two(tableau, basis, d)
    if status != OPTIMAL:
        return status, x, value, reduced
    # phase_two answers for the integer cost, which is scale times the objective
    return status, x, (value[0], value[1] * scale), (reduced[0], reduced[1] * scale)


def phase_two(tableau, basis, d):
    """Phase 2 of the simplex from a feasible basis the caller writes down.

    The tableau contract: ``tableau`` is m constraint rows and then the
    objective row, each a list of ints, n columns and then the right-hand
    side.  Column ``basis[i]`` is basic in row i.  With A the integer
    constraint matrix (right-hand side included) and B its basis columns,
    every constraint row is d times the row of B^-1 A, for d = |det B| > 0,
    so the basic column of row i is d times the unit vector and the
    Bareiss pivots divide exactly.  The basis is feasible: every
    right-hand side is >= 0.  The objective row is d times the reduced
    costs of an integer objective at that basis, and then minus d times
    its value.  ``tableau`` and ``basis`` are changed in place.

    Returns ``(status, x, value, reduced)`` as `solve_lp` does, ``UNBOUNDED``
    or ``OPTIMAL``, with every denominator the final d: ``x`` as
    ``(nums, den)``, ``value`` as ``(num, den)`` and ``reduced`` as
    ``(nums, den)``, the last two for the integer objective.
    """
    d = _optimize(tableau, basis, d)
    if d is None:
        return UNBOUNDED, None, None, None
    obj = tableau.pop()
    x = [0] * (len(obj) - 1)
    for row, b in zip(tableau, basis):
        x[b] = row[-1]
    return OPTIMAL, (x, d), (-obj[-1], d), (obj[:-1], d)
