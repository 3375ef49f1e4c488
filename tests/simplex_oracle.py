"""Reference simplex in `Fraction` arithmetic, independent of the library.

This is the two-phase Bland-rule solver that `vanishlab.simplex` replaced
with an integer tableau: it rebuilds `Fraction` rows on every pivot and
recomputes each reduced cost from scratch.  It shares no code with the
library, so the tests can require that `vanishlab.simplex.solve_lp` returns
exactly the same ``(status, x, value, reduced)`` on every LP
(``rational_result`` reads the library's integer answers, numerators over a
denominator, as the `Fraction`s this solver returns).  Given a start basis
it pivots that basis in by Gauss-Jordan and runs phase 2 from there, the
reference for `vanishlab.simplex.phase_two` and for the orthant LP's
start tableau, which the library writes down in closed form.
"""

from fractions import Fraction

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _pivot(tableau, basis, row, col):
    piv = tableau[row][col]
    tableau[row] = [v / piv for v in tableau[row]]
    for i, r in enumerate(tableau):
        if i != row and r[col]:
            f = r[col]
            tableau[i] = [a - f * b for a, b in zip(r, tableau[row])]
    basis[row] = col


def _reduced_cost(tableau, basis, cost, j):
    return cost[j] - sum(cost[b] * row[j] for b, row in zip(basis, tableau))


def _optimize(tableau, basis, cost):
    """Run Bland-rule simplex to optimality; returns objective or None if unbounded."""
    ncols = len(cost)
    while True:
        in_basis = set(basis)
        enter = -1
        for j in range(ncols):
            if j in in_basis:
                continue
            if _reduced_cost(tableau, basis, cost, j) > 0:
                enter = j  # Bland: smallest improving index
                break
        if enter < 0:
            return sum(cost[basis[i]] * tableau[i][-1] for i in range(len(tableau)))
        leave = -1
        best = None
        for i in range(len(tableau)):
            if tableau[i][enter] > 0:
                ratio = tableau[i][-1] / tableau[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return None
        _pivot(tableau, basis, leave, enter)


def _start_basis(rows, rhs, start, n):
    """The tableau and basis after pivoting column start[i] into row i, in
    row order and with no ratio test; ValueError unless that basis exists
    and is feasible."""
    m = len(rows)
    if len(start) != m or len(set(start)) != m or not all(0 <= j < n for j in start):
        raise ValueError("the start must name distinct columns, one per row")
    tableau = [r + [b] for r, b in zip(rows, rhs)]
    basis = [None] * m
    for i, j in enumerate(start):
        if tableau[i][j] == 0:
            raise ValueError("singular start basis")
        _pivot(tableau, basis, i, j)
    if any(r[-1] < 0 for r in tableau):
        raise ValueError("infeasible start basis")
    return tableau, basis


def start_tableau(rows, rhs, objective, start):
    """``(tableau, basis, objective row)`` at the start basis, in `Fraction`s:
    the constraint rows after the Gauss-Jordan pivots, then the reduced
    costs followed by minus the objective value; ValueError unless the
    basis exists and is feasible."""
    rows = [[Fraction(v) for v in r] for r in rows]
    objective = [Fraction(v) for v in objective]
    tableau, basis = _start_basis(rows, [Fraction(v) for v in rhs], start, len(objective))
    value = sum(objective[b] * row[-1] for b, row in zip(basis, tableau))
    reduced = [_reduced_cost(tableau, basis, objective, j) for j in range(len(objective))]
    return tableau, basis, reduced + [-value]


def solve_lp(rows, rhs, objective, start=None):
    """Maximize objective.x subject to rows.x = rhs, x >= 0.

    With ``start`` (one column per row, a feasible basis) phase 1 is
    skipped and phase 2 runs from that basis.
    Returns ``(status, x, value, reduced)``, all but status None unless
    optimal.  ``reduced[j] <= 0`` is the reduced cost of column j; where
    column j is the unit vector of row i, it is minus row i's optimal dual.
    """
    m = len(rows)
    n = len(objective)
    rows = [[Fraction(v) for v in r] for r in rows]
    rhs = [Fraction(v) for v in rhs]
    objective = [Fraction(v) for v in objective]
    if start is not None:
        tableau, basis = _start_basis(rows, rhs, start, n)
        return _phase2(tableau, basis, objective)
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]

    tableau = [
        rows[i] + [Fraction(1 if j == i else 0) for j in range(m)] + [rhs[i]]
        for i in range(m)
    ]
    basis = [n + i for i in range(m)]

    phase1 = [Fraction(0)] * n + [Fraction(-1)] * m
    value = _optimize(tableau, basis, phase1)
    if value < 0:
        return INFEASIBLE, None, None, None

    # Drive leftover artificials out of the basis; drop redundant rows.
    redundant = []
    for i in range(m):
        if basis[i] >= n:
            for j in range(n):
                if tableau[i][j]:
                    _pivot(tableau, basis, i, j)
                    break
            else:
                redundant.append(i)
    for i in reversed(redundant):
        del tableau[i]
        del basis[i]
    for r in tableau:
        del r[n:-1]
    return _phase2(tableau, basis, objective)


def _phase2(tableau, basis, objective):
    n = len(objective)
    value = _optimize(tableau, basis, objective)
    if value is None:
        return UNBOUNDED, None, None, None
    x = [Fraction(0)] * n
    for i, b in enumerate(basis):
        x[b] = tableau[i][-1]
    reduced = [_reduced_cost(tableau, basis, objective, j) for j in range(n)]
    return OPTIMAL, x, value, reduced


def rational_lp(rows, rhs, objective, dens=None):
    """The LP that ``solve_lp``'s arguments stand for, as `Fraction` rows:
    with ``dens``, row i and ``rhs[i]`` are divided by ``dens[i]``."""
    dens = [1] * len(rows) if dens is None else dens
    return ([[Fraction(v) / d for v in r] for r, d in zip(rows, dens)],
            [Fraction(b) / d for b, d in zip(rhs, dens)],
            [Fraction(v) for v in objective])


def rational_result(result):
    """The library's ``(status, x, value, reduced)`` with its integer answers
    read as `Fraction`s: ``x`` and ``reduced``, each ``(nums, den)``, as
    lists, and ``value``, ``(num, den)``, as one `Fraction`.  A numerator
    that is not an int, or a denominator that is not a positive int, fails."""
    status, x, value, reduced = result
    if status != OPTIMAL:
        return status, x, value, reduced
    for nums, den in (x, ([value[0]], value[1]), reduced):
        assert all(type(v) is int for v in nums) and type(den) is int and den > 0
    return (status, [Fraction(v, x[1]) for v in x[0]], Fraction(*value),
            [Fraction(v, reduced[1]) for v in reduced[0]])


def orthant_lp(gens):
    """The orthant LP of `vanishlab.polytopes.orthant_meet` in `Fraction`s:
    maximize t+ - t- over lambda_1..lambda_k, t+, t-, s_1..s_n subject to
    sum_j lambda_j g_j[i] - t+ + t- - s_i = 0 and sum lambda = 1."""
    n, k = len(gens[0]), len(gens)
    rows = [[Fraction(g[i]) for g in gens] + [Fraction(-1), Fraction(1)]
            + [Fraction(-int(r == i)) for r in range(n)] for i in range(n)]
    rows.append([Fraction(1)] * k + [Fraction(0)] * (2 + n))
    return (rows, [Fraction(0)] * n + [Fraction(1)],
            [Fraction(0)] * k + [Fraction(1), Fraction(-1)] + [Fraction(0)] * n)


def orthant_start(gens):
    """The orthant LP's start basis, from the `Fraction` generators: j* has
    the largest smallest coordinate and i* is where u_j* takes it, lowest
    indices first; row i* holds t+ (t-, if u_j*,i* < 0), row i != i* its
    surplus s_i, and the sum row lambda_j*."""
    n, k = len(gens[0]), len(gens)
    gens = [tuple(map(Fraction, g)) for g in gens]
    best = max(range(k), key=lambda j: (min(gens[j]), -j))
    low = min(range(n), key=lambda i: (gens[best][i], i))
    start = [k + 2 + i for i in range(n)] + [best]
    start[low] = k if gens[best][low] >= 0 else k + 1
    return start
