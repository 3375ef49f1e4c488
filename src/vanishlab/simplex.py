"""Exact rational simplex solver (two phases, Bland's anti-cycling rule).

Solves maximize c.x subject to Ax = b, x >= 0 on an integer tableau: each
row is integers over a positive integer denominator, kept in lowest terms,
and the objective is one more row (reduced costs, then minus the value)
that every pivot updates like the others.  The entering column is a sign
test on that row and the ratio test compares by cross-multiplication, so
no Fraction is built between the conversion on entry and the one on exit.
A caller that holds integer numerators hands them over with each row's
denominator, and they enter the tableau as they are.  A caller that knows a
feasible basis names it, and phase 1 is skipped.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
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
    """(integers, positive denominator) in lowest terms of a fresh list of
    exact rationals that are each over den."""
    if not all(type(v) is int for v in values):
        values, scale = over_lcm(values)
        den *= scale
    return _lowest(values, den)


def _lowest(row, den):
    g = gcd(den, *row) if den > 0 else -gcd(den, *row)
    return (row, den) if g == 1 else ([v // g for v in row], den // g)


def _eliminate(row, den, prow, col):
    """row - (row[col] / prow[col]) * prow; prow's own denominator cancels."""
    p, f = prow[col], row[col]
    return _lowest([p * a - f * b for a, b in zip(row, prow)], den * p)


def _pivot(tableau, basis, r, col):
    prow = tableau[r][0]
    for i, (row, den) in enumerate(tableau):
        if i != r and row[col]:
            tableau[i] = _eliminate(row, den, prow, col)
    tableau[r] = _lowest(prow, prow[col])
    basis[r] = col


def _optimize(tableau, basis):
    """Bland-rule simplex on a tableau whose last row is the objective; False if unbounded."""
    while True:
        enter = next((j for j, v in enumerate(tableau[-1][0][:-1]) if v > 0), -1)
        if enter < 0:
            return True
        leave = -1
        for i in range(len(basis)):
            row = tableau[i][0]
            a, b = row[enter], row[-1]
            # b / a < best_b / best_a, or a tie broken by the smaller basic index
            if a > 0 and (leave < 0 or b * best_a < best_b * a
                          or b * best_a == best_b * a and basis[i] < basis[leave]):
                leave, best_a, best_b = i, a, b
        if leave < 0:
            return False
        _pivot(tableau, basis, leave, enter)


def _objective_row(cost, tableau, basis):
    """cost's reduced costs and minus its value at the basis, as an integer row."""
    row, den = _integer_row(cost)
    for i, b in enumerate(basis):
        if row[b]:
            row, den = _eliminate(row, den, tableau[i][0], b)
    return row, den


def _start(tableau, start, n):
    """Pivot column start[i] into row i by Gauss-Jordan, with no ratio test;
    the basis, or ValueError if it is not a feasible one."""
    m = len(tableau)
    if (len(start) != m or len(set(start)) != m
            or any(type(j) is not int or not 0 <= j < n for j in start)):
        raise ValueError(f"start {start!r} is not {m} distinct columns of {n}")
    basis = list(start)
    for i, j in enumerate(start):
        if not tableau[i][0][j]:
            raise ValueError(f"start column {j} has a zero pivot in row {i}")
        _pivot(tableau, basis, i, j)
    if any(row[-1] < 0 for row, _ in tableau):
        raise ValueError(f"start {start!r} is not a feasible basis")
    return basis


def solve_lp(rows, rhs, objective, dens=None, *, start=None):
    """Maximize objective.x subject to rows.x = rhs, x >= 0.

    With ``dens``, constraint i is ``(rows[i] / dens[i]).x = rhs[i] / dens[i]``
    for a positive int ``dens[i]``, so a caller that holds integer
    numerators passes them as they are.  The row keeps that denominator in
    the tableau: multiplying it through would change the phase-1 objective,
    and with it the pivots Bland's rule makes.
    With ``start``, a list naming one column per row whose basic solution
    is feasible, phase 1 is skipped: column start[i] is pivoted into row i
    and phase 2 runs from there.  A start that is not distinct columns in
    range, meets a zero pivot or gives a negative basic value raises
    ``ValueError``; there is no fallback.
    Returns ``(status, x, value, reduced)``, all but status None unless
    optimal.  ``reduced`` is ``(nums, den)``: ``nums[j] / den <= 0`` is the
    reduced cost of column j, and where column j is the unit vector of row
    i it is minus row i's optimal dual.
    A number that is not an exact rational raises ``TypeError``.
    """
    m, n = len(rows), len(objective)
    if dens is None:
        dens = [1] * m
    elif any(type(d) is not int or d < 1 for d in dens) or len(dens) != m:
        raise TypeError(f"row denominators {dens!r} are not {m} positive ints")
    tableau = [_integer_row([*rows[i], rhs[i]], dens[i]) for i in range(m)]
    if start is not None:
        basis = _start(tableau, start, n)
    else:
        for i, (row, den) in enumerate(tableau):
            if row[-1] < 0:
                row = [-v for v in row]
            row[n:n] = [den if j == i else 0 for j in range(m)]
            tableau[i] = (row, den)
        basis = [n + i for i in range(m)]

        tableau.append(_objective_row([0] * n + [-1] * m + [0], tableau, basis))
        _optimize(tableau, basis)
        if tableau.pop()[0][-1] > 0:
            return INFEASIBLE, None, None, None

        # Drive leftover artificials out of the basis; a row that keeps one is redundant.
        for i in range(m):
            if basis[i] >= n:
                j = next((j for j in range(n) if tableau[i][0][j]), -1)
                if j >= 0:
                    _pivot(tableau, basis, i, j)
        keep = [i for i in range(m) if basis[i] < n]
        basis = [basis[i] for i in keep]
        tableau = [(tableau[i][0][:n] + tableau[i][0][-1:], tableau[i][1]) for i in keep]

    tableau.append(_objective_row([*objective, 0], tableau, basis))
    if not _optimize(tableau, basis):
        return UNBOUNDED, None, None, None
    obj, oden = tableau.pop()
    x = [Fraction(0)] * n
    for (row, den), b in zip(tableau, basis):
        x[b] = Fraction(row[-1], den)
    return OPTIMAL, x, Fraction(-obj[-1], oden), (obj[:-1], oden)
