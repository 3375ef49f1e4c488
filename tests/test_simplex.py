from fractions import Fraction

from vanishlab.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp


def F(v):
    return Fraction(v)


def test_optimal():
    # maximize x1 + x2 s.t. x1 + x2 + s = 1 (standard form, x >= 0)
    status, x, value, _ = solve_lp(
        [[F(1), F(1), F(1)]], [F(1)], [F(1), F(1), F(0)])
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
    status, x, value, _ = solve_lp(rows, rhs, [F(1), F(0)])
    assert status == OPTIMAL
    assert value == 2
    assert x[0] + 2 * x[1] == 2


def test_exact_fractions_survive():
    # optimum at a fractional vertex: max x1 + x2, 3x1 + x2 <= 2, x1 + 3x2 <= 2
    rows = [[F(3), F(1), F(1), F(0)], [F(1), F(3), F(0), F(1)]]
    rhs = [F(2), F(2)]
    status, x, value, reduced = solve_lp(rows, rhs, [F(1), F(1), F(0), F(0)])
    assert status == OPTIMAL
    assert value == F(1)
    assert x[0] == Fraction(1, 2) and x[1] == Fraction(1, 2)
    assert all(r <= 0 for r in reduced)
    # strong duality: the slacks' reduced costs are minus the optimal duals
    y = [-r for r in reduced[2:]]
    assert y == [Fraction(1, 4), Fraction(1, 4)]
    assert sum(a * b for a, b in zip(y, rhs)) == value
