import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vanishlab.polytopes
from counting import fractions_built
from golden_corpus import CORPUS, run
from simplex_oracle import rational_lp, rational_result, solve_lp as oracle_solve_lp
from vanishlab.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp


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
    # with the polytope layer's solve_lp recording every call
    monkeypatch.delenv("VANISHLAB_HORIZON", raising=False)
    seen = []

    def recording(rows, rhs, objective, dens=None, **kwargs):
        args = rational_lp(rows, rhs, objective, dens)
        result = solve_lp(rows, rhs, objective, dens, **kwargs)
        seen.append((args, kwargs, result))
        return result

    monkeypatch.setattr(vanishlab.polytopes, "solve_lp", recording)
    entries = json.loads(CORPUS.read_text())
    for entry in entries:
        assert run(entry["argv"]) == (entry["exit"], entry["stdout"])
    # every polytope request solves at least its orthant LP
    assert len(seen) >= sum(e["argv"][0] == "polytope" for e in entries) > 0
    for args, kwargs, result in seen:
        assert rational_result(result) == oracle_solve_lp(*args, **kwargs)


# ---------------------------------------------------------------------------
# A start basis named by the caller: pivoted in without phase 1, then the
# same phase 2 as the oracle with the same start

@settings(max_examples=400, deadline=None)
@given(lps(), st.data())
def test_start_matches_oracle(lp, data):
    # any distinct columns, one per row: the library raises exactly when the
    # oracle finds the basis singular or infeasible, and agrees otherwise
    rows, rhs, objective = lp
    n = len(objective)
    if len(rows) > n:
        return
    start = data.draw(st.permutations(range(n)))[:len(rows)]
    dens = data.draw(st.lists(st.integers(1, 12), min_size=len(rows), max_size=len(rows)))
    try:
        want = oracle_solve_lp(*rational_lp(rows, rhs, objective, dens), start=start)
    except ValueError:
        with pytest.raises(ValueError):
            solve_lp(rows, rhs, objective, dens, start=start)
    else:
        assert rational_result(solve_lp(rows, rhs, objective, dens, start=start)) == want


# x0 + x1 = 1, 2*x0 + 2*x1 + x2 = 3: columns 0 and 1 are parallel
START_ROWS, START_OBJECTIVE = [[1, 1, 0], [2, 2, 1]], [0, 1, 1]


@pytest.mark.parametrize("start", [
    [1, 1],         # a repeated column
    [0],            # too few columns
    [0, 1, 2],      # too many
    [0, 3],         # out of range
    [-1, 0],        # out of range
    [True, 2],      # not an int
])
def test_malformed_start_raises(start):
    with pytest.raises(ValueError, match="distinct columns"):
        solve_lp(START_ROWS, [1, 3], START_OBJECTIVE, start=start)


@pytest.mark.parametrize("rhs, start, match", [
    # x1 has nothing left in row 1 once x0 is basic in row 0
    ([1, 3], [0, 1], "zero pivot"),
    # x2 is not in row 0: columns are not reordered to find a pivot
    ([1, 3], [2, 0], "zero pivot"),
    # x0 = 1 leaves x2 = 1 - 2 = -1
    ([1, 1], [0, 2], "feasible"),
])
def test_singular_or_infeasible_start_raises(rhs, start, match):
    with pytest.raises(ValueError, match=match):
        solve_lp(START_ROWS, rhs, START_OBJECTIVE, start=start)
    with pytest.raises(ValueError):
        oracle_solve_lp(START_ROWS, rhs, START_OBJECTIVE, start=start)


def test_start_skips_phase_one():
    # x0 = 1, x2 = 1 is feasible, and phase 2 moves from it to the same
    # optimum the two phases reach (it is unique here)
    result = solve_lp(START_ROWS, [1, 3], START_OBJECTIVE, start=[0, 2])
    assert result == solve_lp(START_ROWS, [1, 3], START_OBJECTIVE)
    assert rational_result(result)[:3] == (OPTIMAL, [0, 1, 1], 2)


def test_answers_are_integers():
    # no Fraction is built inside the solver, for Fraction input too: the
    # answer is integers over positive denominators
    rows = [[F(3), F(1), F(1), F(0)], [F(1), Fraction(3, 2), F(0), F(1)]]
    rhs, objective = [F(2), Fraction(2, 3)], [F(1), Fraction(1, 5), F(0), F(0)]
    result, built = fractions_built(lambda: solve_lp(rows, rhs, objective))
    assert built == 0
    assert rational_result(result) == oracle_solve_lp(rows, rhs, objective)
