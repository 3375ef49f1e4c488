import json
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vanishlab.polytopes
from counting import fractions_built
from golden_corpus import CORPUS, run
from paper_oracle import generators
from simplex_oracle import (
    orthant_lp,
    orthant_start,
    rational_lp,
    rational_result,
    solve_lp as oracle_solve_lp,
    start_tableau,
)
from vanishlab.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, phase_two, solve_lp


def F(v):
    return Fraction(v)


def test_optimal():
    # maximize x1 + x2 s.t. x1 + x2 + s = 1 (standard form, x >= 0)
    status, x, value, _ = rational_result(solve_lp(
        [[F(1), F(1), F(1)]], [F(1)], [F(1), F(1), F(0)]))
    assert status == OPTIMAL
    assert value == 1
    assert x[0] + x[1] == 1


def test_infeasible():
    # x1 + x2 = -1 with x >= 0
    status, _, _, reduced = solve_lp([[F(1), F(1)]], [F(-1)], [F(0), F(0)])
    assert status == INFEASIBLE
    assert reduced is None


def test_unbounded():
    # maximize x1 with only x1 - x2 = 0
    status, _, _, reduced = solve_lp([[F(1), F(-1)]], [F(0)], [F(1), F(0)])
    assert status == UNBOUNDED
    assert reduced is None


def test_degenerate_redundant_rows():
    # duplicated constraint rows must not break phase 1
    rows = [[F(1), F(2)], [F(1), F(2)], [F(2), F(4)]]
    rhs = [F(2), F(2), F(4)]
    status, x, value, _ = rational_result(solve_lp(rows, rhs, [F(1), F(0)]))
    assert status == OPTIMAL
    assert value == 2
    assert x[0] + 2 * x[1] == 2


def test_exact_fractions_survive():
    # optimum at a fractional vertex: max x1 + x2, 3x1 + x2 <= 2, x1 + 3x2 <= 2
    rows = [[F(3), F(1), F(1), F(0)], [F(1), F(3), F(0), F(1)]]
    rhs = [F(2), F(2)]
    result = solve_lp(rows, rhs, [F(1), F(1), F(0), F(0)])
    status, x, value, _ = rational_result(result)
    assert status == OPTIMAL
    assert value == F(1)
    assert x[0] == Fraction(1, 2) and x[1] == Fraction(1, 2)
    # x and the value come back as integers over the tableau's denominator,
    # 8 = det [[3, 1], [1, 3]] of the optimal basis, not in lowest terms
    assert result[1:3] == (([4, 4, 0, 0], 8), (8, 8))
    costs, den = result[3]
    # the reduced costs come back as integers over one positive denominator
    assert den > 0 and all(type(v) is int and v <= 0 for v in costs)
    # strong duality: the slacks' reduced costs are minus the optimal duals
    y = [Fraction(-v, den) for v in costs[2:]]
    assert y == [Fraction(1, 4), Fraction(1, 4)]
    assert sum(a * b for a, b in zip(y, rhs)) == value


# ---------------------------------------------------------------------------
# The integer tableau against the Fraction oracle: same pivots, same answer

NUMBERS = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
SCALES = st.sampled_from([1, -1, 2, Fraction(-1, 3), Fraction(5, 2)])


@st.composite
def lps(draw):
    """Small LPs with mixed denominators and negative right-hand sides whose
    rows may repeat an earlier row, scaled, or be all zero; zero rows and
    zero columns both occur.  Half have every right-hand side zero, as the
    orthant LP's coordinate rows do: phase 1 then ends with artificials
    basic at level zero, which must be driven out."""
    n = draw(st.integers(0, 5))
    homogeneous = draw(st.booleans())
    rows, rhs = [], []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["new", "new", "copy", "zero"]))
        if kind == "copy" and rows:
            i, k = draw(st.integers(0, len(rows) - 1)), draw(SCALES)
            rows.append([k * v for v in rows[i]])
            rhs.append(k * rhs[i])
        elif kind == "zero":
            rows.append([0] * n)
            rhs.append(0 if homogeneous else draw(st.sampled_from([0, 0, 1])))
        else:
            rows.append(draw(st.lists(NUMBERS, min_size=n, max_size=n)))
            rhs.append(0 if homogeneous else draw(NUMBERS))
    return rows, rhs, draw(st.lists(NUMBERS, min_size=n, max_size=n))


def assert_matches_oracle(rows, rhs, objective):
    got = rational_result(solve_lp(rows, rhs, objective))
    assert got == oracle_solve_lp(rows, rhs, objective)
    return got


@settings(max_examples=600, deadline=None)
@given(lps())
def test_matches_oracle(lp):
    assert_matches_oracle(*lp)


@settings(max_examples=300, deadline=None)
@given(lps(), st.data())
def test_row_denominators_match_oracle(lp, data):
    # rows handed over as they are with a denominator each: the same LP as
    # the rows divided out, so the same pivots and the same answer
    rows, rhs, objective = lp
    dens = data.draw(st.lists(st.integers(1, 12), min_size=len(rows), max_size=len(rows)))
    assert rational_result(solve_lp(rows, rhs, objective, dens)) == oracle_solve_lp(
        *rational_lp(rows, rhs, objective, dens))


@pytest.mark.parametrize("rows, rhs, objective, dens", [
    ([[2, -1, -1], [-2, 1, -1]], [-2, -2], [-1, 0, 0], [3, 2]),
    ([[1, 1, 0], [-2, -1, 2]], [1, 0], [0, 0, 0], [1, 3]),
])
def test_phase_one_weighs_rows_alike(rows, rhs, objective, dens):
    # rows over different denominators: an artificial column scaled by its
    # own row's denominator would change phase 1's pivots, and the answer
    assert rational_result(solve_lp(rows, rhs, objective, dens)) == oracle_solve_lp(
        *rational_lp(rows, rhs, objective, dens))


@pytest.mark.parametrize("dens", [[2.0], [0], [-1], [Fraction(1, 2)], [True], [1, 1]])
def test_rejects_bad_row_denominators(dens):
    with pytest.raises(TypeError, match="positive ints"):
        solve_lp([[1, 1]], [1], [1, 0], dens)


# each example pins one shape; the oracle and the library must agree on all
@pytest.mark.parametrize("rows, rhs, objective, status", [
    # no rows at all: unbounded, or optimal at x = 0
    ([], [], [F(1), F(0)], UNBOUNDED),
    ([], [], [F(0), F(-1)], OPTIMAL),
    # every row all zero: phase 1 drops each one as redundant
    ([[0, 0], [0, 0], [0, 0]], [0, 0, 0], [F(-1), F(-2)], OPTIMAL),
    ([[0, 0], [0, 0]], [0, 0], [F(0), F(1)], UNBOUNDED),
    ([[0, 0]], [Fraction(1, 2)], [F(1), F(1)], INFEASIBLE),
    # duplicated and scaled rows with mixed denominators and negative right-hand sides
    ([[Fraction(1, 2), Fraction(-1, 3), 1], [-1, Fraction(2, 3), -2], [Fraction(3, 2), -1, 3]],
     [Fraction(-1, 5), Fraction(2, 5), Fraction(-3, 5)], [Fraction(1, 3), -1, -1], OPTIMAL),
    ([[Fraction(1, 2), Fraction(-1, 3), 1], [-1, Fraction(2, 3), -2]],
     [Fraction(-1, 5), Fraction(2, 5)], [1, Fraction(-1, 2), -1], UNBOUNDED),
    # a ratio-test tie in phase 1 and a degenerate vertex in phase 2
    ([[1, 1, 1, 0], [1, 0, 0, 1], [1, 2, 0, 0]], [1, 1, 1], [2, 1, 0, 0], OPTIMAL),
    ([[1, -1, 0], [0, 1, -1]], [0, 0], [0, 0, 1], UNBOUNDED),
    # phase 1 pivots nothing: the drive-out step picks the basis phase 2 starts from
    ([[-2, 1, -2, 1], [2, -1, 2, -1]], [0, 0], [2, -2, 0, -2], OPTIMAL),
    ([[1, 1], [1, -1]], [-1, 0], [1, 0], INFEASIBLE),
])
def test_shapes_match_oracle(rows, rhs, objective, status):
    assert assert_matches_oracle(rows, rhs, objective)[0] == status


def test_rejects_floats():
    with pytest.raises(TypeError):
        solve_lp([[0.5, 1]], [Fraction(1, 4)], [1, 0])
    with pytest.raises(TypeError):
        solve_lp([[Fraction(1, 2), 1]], [0.25], [1, 0])
    with pytest.raises(TypeError):
        solve_lp([[Fraction(1, 2), 1]], [Fraction(1, 4)], [1.0, 0])


def test_golden_corpus_lps_match_oracle(monkeypatch):
    # the LPs the CLI really sends: replay the golden corpus through cli.main
    # with the polytope layer's solve_lp recording every call, and each
    # orthant query recording its polytope and the answer of its phase 2
    monkeypatch.delenv("VANISHLAB_HORIZON", raising=False)
    seen, orthant = [], []

    def recording(rows, rhs, objective, dens=None):
        result = solve_lp(rows, rhs, objective, dens)
        seen.append((rational_lp(rows, rhs, objective, dens), result))
        return result

    orthant_tableau = vanishlab.polytopes._orthant_tableau

    def recording_tableau(polytope):
        orthant.append([polytope])
        return orthant_tableau(polytope)

    def recording_phase_two(tableau, basis, d):
        result = phase_two(tableau, basis, d)
        orthant[-1].append(result)
        return result

    monkeypatch.setattr(vanishlab.polytopes, "solve_lp", recording)
    monkeypatch.setattr(vanishlab.polytopes, "_orthant_tableau", recording_tableau)
    monkeypatch.setattr(vanishlab.polytopes, "phase_two", recording_phase_two)
    entries = json.loads(CORPUS.read_text())
    for entry in entries:
        assert run(entry["argv"]) == (entry["exit"], entry["stdout"])
    # every polytope request answers its orthant query, and the --point ones
    # solve a membership LP
    assert len(orthant) >= sum(e["argv"][0] == "polytope" for e in entries) > 0
    assert len(seen) >= sum(any(a.startswith("--point") for a in e["argv"]) for e in entries) > 0
    for args, result in seen:
        assert rational_result(result) == oracle_solve_lp(*args)
    for polytope, result in orthant:
        gens = generators(polytope)
        assert rational_result(result) == oracle_solve_lp(*orthant_lp(gens),
                                                          start=orthant_start(gens))


# ---------------------------------------------------------------------------
# Phase 2 from a basis the caller writes down, against the oracle's phase 2
# from the same start, pivoted in by Gauss-Jordan

def integer_row(values):
    """Exact rationals times the lcm of their denominators: integers."""
    values = [Fraction(v) for v in values]
    scale = lcm(*(v.denominator for v in values))
    return [int(v * scale) for v in values]


def determinant(matrix):
    """The determinant of a square matrix of exact rationals, by elimination."""
    rows, det = [[Fraction(v) for v in row] for row in matrix], Fraction(1)
    for c in range(len(rows)):
        p = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            rows[c], rows[p], det = rows[p], rows[c], -det
        det *= rows[c][c]
        for r in range(c + 1, len(rows)):
            f = rows[r][c] / rows[c][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return det


@settings(max_examples=400, deadline=None)
@given(lps(), st.data())
def test_start_matches_oracle(lp, data):
    # any distinct columns, one per row, that the oracle pivots in as a
    # feasible basis: written down as phase_two's contract asks, d = |det B|
    # times the oracle's tableau for the integer rows, it is all integers,
    # and phase 2 from it gives the oracle's answer from the same start
    rows, rhs, objective = lp
    n = len(objective)
    if len(rows) > n:
        return
    start = data.draw(st.permutations(range(n)))[:len(rows)]
    ints = [integer_row([*row, b]) for row, b in zip(rows, rhs)]
    rows, rhs, cost = [r[:-1] for r in ints], [r[-1] for r in ints], integer_row([*objective, 0])[:-1]
    try:
        tableau, basis, objective_row = start_tableau(rows, rhs, cost, start)
    except ValueError:
        return
    d = abs(determinant([[row[j] for j in start] for row in rows]))
    written = [[v * d for v in row] for row in tableau + [objective_row]]
    assert all(v.denominator == 1 for row in written for v in row)
    result = phase_two([[int(v) for v in row] for row in written], basis, int(d))
    assert rational_result(result) == oracle_solve_lp(rows, rhs, cost, start=start)


# x0 + x1 = 1, 2*x0 + 2*x1 + x2 = 3: columns 0 and 1 are parallel
START_ROWS, START_OBJECTIVE = [[1, 1, 0], [2, 2, 1]], [0, 1, 1]


def test_start_skips_phase_one():
    # x0 = 1, x2 = 1 is feasible, |det B| = 1, and its tableau is
    # x0 + x1 = 1, x2 = 1 with reduced costs (0, 1, 0) and value 1: phase 2
    # moves from it to the same optimum the two phases reach (it is unique here)
    assert start_tableau(START_ROWS, [1, 3], START_OBJECTIVE, [0, 2]) == (
        [[1, 1, 0, 1], [0, 0, 1, 1]], [0, 2], [0, 1, 0, -1])
    result = phase_two([[1, 1, 0, 1], [0, 0, 1, 1], [0, 1, 0, -1]], [0, 2], 1)
    assert result == solve_lp(START_ROWS, [1, 3], START_OBJECTIVE)
    assert rational_result(result)[:3] == (OPTIMAL, [0, 1, 1], 2)


def test_phase_two_unbounded():
    # x0 - x1 = 0 from x0 basic: x1 enters and no row limits it
    assert phase_two([[1, -1, 0], [0, 1, 0]], [0], 1) == (UNBOUNDED, None, None, None)
    assert oracle_solve_lp([[1, -1]], [0], [1, 0], start=[0])[0] == UNBOUNDED


def test_answers_are_integers():
    # no Fraction is built inside the solver, for Fraction input too: the
    # answer is integers over positive denominators
    rows = [[F(3), F(1), F(1), F(0)], [F(1), Fraction(3, 2), F(0), F(1)]]
    rhs, objective = [F(2), Fraction(2, 3)], [F(1), Fraction(1, 5), F(0), F(0)]
    result, built = fractions_built(lambda: solve_lp(rows, rhs, objective))
    assert built == 0
    assert rational_result(result) == oracle_solve_lp(rows, rhs, objective)
