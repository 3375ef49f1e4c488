"""Independent checks of vanishlab's structured output.

Nothing here imports vanishlab.  Polynomial answers are recomputed with
sympy.  Whether a small polytope meets the orthant is decided by the
Fourier-Motzkin oracle in ``tests/fm_oracle.py``; point membership by a
search whose answer is always backed by an exactly checked certificate;
separation certificates by evaluating their inequalities directly.
``check(request, code, stdout)`` returns a list of problems, empty when
the answer and its exit code are right.
"""
from __future__ import annotations

import importlib.util
from fractions import Fraction
from pathlib import Path

import sympy
from sympy import QQ, Poly, Rational

from workloads import point_str

_FM_PATH = Path(__file__).resolve().parent.parent / "tests" / "fm_oracle.py"
_FM_MAX_GENERATORS = 5  # elimination blows up beyond this (about 1.3 s at 8 in Q^3)


def _load_fm():
    spec = importlib.util.spec_from_file_location("fm_oracle", _FM_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


fm = _load_fm()


# ---------------------------------------------------------------------------
# output parsing

_FREE_TEXT = ("note=", "anomaly=")


def _pairs(stdout):
    """key=value lines.  Check names may contain '=' (as in 'L^m(P^m) = 0'),
    so the value starts after the last '='; only notes and anomalies carry
    free text, which may contain '=' itself."""
    pairs = []
    for line in stdout.splitlines():
        if line.startswith(_FREE_TEXT):
            pairs.append(tuple(line.split("=", 1)))
        elif "=" in line:
            pairs.append(tuple(line.rsplit("=", 1)))
    return pairs


def _point(text):
    return tuple(Fraction(v) for v in text.strip("()").split(","))


def _ints(text):
    return [int(v) for v in text.split(",")] if text else []


def _bool(flag):
    return "true" if flag else "false"


# ---------------------------------------------------------------------------
# exact geometry

class Undecided(Exception):
    """Neither membership nor separation could be certified."""


def _member(gens, point):
    """Is the point in conv(gens)?  Every answer carries an exact certificate.

    A phase-1 simplex (Bland's rule, Fractions) over the convex-combination
    system is used only as a search: "inside" is returned when its
    coefficients reproduce the point exactly, "outside" when its duals give
    a Farkas certificate that checks exactly.  sympy's simplex is not used
    here because it returned infeasible coefficients on degenerate
    instances and cycled on others.
    """
    n, k = len(point), len(gens)
    rows = [[Fraction(g[i]) for g in gens] for i in range(n)] + [[Fraction(1)] * k]
    rhs = [Fraction(v) for v in point] + [Fraction(1)]
    for i, r in enumerate(rhs):
        if r < 0:
            rows[i], rhs[i] = [-v for v in rows[i]], -r
    m = len(rows)
    # minimize the sum of artificials s in rows.lambda + s = rhs
    tab = [rows[i] + [Fraction(i == j) for j in range(m)] + [rhs[i]] for i in range(m)]
    cost = [0] * k + [1] * m
    basis = list(range(k, k + m))
    while True:
        enter = next((j for j in range(k + m) if j not in basis
                      and cost[j] < sum(cost[basis[r]] * tab[r][j] for r in range(m))), None)
        if enter is None:
            break
        _, _, row = min((tab[i][-1] / tab[i][enter], basis[i], i)
                        for i in range(m) if tab[i][enter] > 0)
        piv = tab[row][enter]
        tab[row] = [v / piv for v in tab[row]]
        for i in range(m):
            if i != row and tab[i][enter]:
                f = tab[i][enter]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[row])]
        basis[row] = enter
    duals = [sum(cost[basis[r]] * tab[r][k + i] for r in range(m)) for i in range(m)]
    lam = [Fraction(0)] * k
    for i, b in enumerate(basis):
        if b < k:
            lam[b] = tab[i][-1]
    if all(l >= 0 for l in lam) and all(
            sum(l * a for l, a in zip(lam, row)) == r for row, r in zip(rows, rhs)):
        return True
    # y.rows[:, j] <= 0 for every generator and y.rhs > 0: no convex combination
    if (all(sum(y * row[j] for y, row in zip(duals, rows)) <= 0 for j in range(k))
            and sum(y * r for y, r in zip(duals, rhs)) > 0):
        return False
    raise Undecided(f"membership of {point} in the hull of {len(gens)} generators")


# ---------------------------------------------------------------------------
# exact polynomial algebra (sympy)

def _poly(terms, xs):
    return Poly.from_dict({e: Rational(c.numerator, c.denominator) for e, c in terms.items()},
                          *xs, domain=QQ)


def _apply(symbol, q, xs):
    total = q.mul_ground(0)
    for mu, c in symbol.terms():
        d = q
        for x, k in zip(xs, mu):
            if k:
                d = d.diff((x, k))
        total += d.mul_ground(c)
    # Poly.diff can leave an unstripped zero representation, which makes
    # is_zero and == unreliable; rebuild from the term dict.
    return Poly.from_dict(total.as_dict(), *xs, domain=QQ)


def _profile(names, op, p, g, horizon):
    """[(L^m(P^m), L^m(P^m g)) for m = 1..horizon] as sympy polynomials."""
    xs = sympy.symbols(names)
    lam, pol, mult = _poly(op, xs), _poly(p, xs), _poly(g, xs)
    out = []
    lam_m, p_m = lam, pol
    for _ in range(horizon):
        out.append((_apply(lam_m, p_m, xs), _apply(lam_m, p_m * mult, xs)))
        lam_m, p_m = lam_m * lam, p_m * pol
    return out


def _same_poly(text, expected, names):
    xs = sympy.symbols(names)
    parsed = sympy.parse_expr(text.replace("^", "**"), local_dict=dict(zip(names, xs)))
    return Poly(parsed, *xs, domain=QQ) == expected


# ---------------------------------------------------------------------------
# per-kind checks; each returns (problems, expected exit code)

def _series(spec, pairs, kv):
    problems = []
    per_check = 4 if spec["which"] == "ddv" else 3
    rows = [(k, v) for k, v in pairs if k[0] == "m" and k[1].isdigit()]
    ms = sorted({int(k[1:].split(".")[0]) for k, _ in rows})
    if ms != list(range(1, spec["horizon"] + 1)):
        problems.append(f"rows for m={ms}")
    if len(rows) != per_check * spec["horizon"]:
        problems.append(f"{len(rows)} check lines")
    problems += [f"{k}={v}" for k, v in rows if v != "true"]
    if kv.get("ok") != "true":
        problems.append("ok is not true")
    return problems, 0


def _polytope(spec, pairs, kv):
    problems = []
    gens = spec["generators"]
    expected = 0
    if kv.get("kind") == "certificate":
        c, delta = _point(kv["c"]), Fraction(kv["delta"])
        if any(v < 0 for v in c) or sum(c) != 1 or delta <= 0:
            problems.append("certificate not normalized")
        if any(sum(a * b for a, b in zip(c, u)) > -delta for u in gens):
            problems.append("certificate violated by a generator")
        n_bound = int(kv["moveaway_N"])
        cb = sum(a * b for a, b in zip(c, spec["beta"]))
        if not (cb - n_bound * delta < 0 and (n_bound == 1 or cb - (n_bound - 1) * delta >= 0)):
            problems.append(f"move-away bound {n_bound} is not the certified one")
    elif kv.get("kind") == "witness":
        w = _point(kv["witness"])
        if any(v < 0 for v in w):
            problems.append("witness outside the orthant")
        elif not _member(gens, w):
            problems.append("witness outside the polytope")
        if kv.get("moveaway_N") != "undefined":
            problems.append("move-away bound printed for a witness")
        expected = 1
    else:
        problems.append("neither certificate nor witness")
    if spec["point"] is not None:
        point = spec["point"]
        if kv.get("point") != point_str(point):
            problems.append("point echoed wrongly")
        if kv.get("contains") not in ("true", "false"):
            problems.append("no membership answer")
        elif kv["contains"] == "true":
            lam = _point(kv["coefficients"])
            combo = tuple(sum(l * g[i] for l, g in zip(lam, gens)) for i in range(len(point)))
            if len(lam) != len(gens) or any(l < 0 for l in lam) or sum(lam) != 1 or combo != point:
                problems.append("membership coefficients do not reproduce the point")
        elif _member(gens, point):
            problems.append("point reported outside but it is inside")
    return problems, expected


def _vanish(spec, pairs, kv):
    names, horizon = spec["names"], spec["horizon"]
    profile = _profile(names, spec["op"], spec["p"], spec["g"], horizon)
    problems = _profile_lines(kv, profile, names)
    first_fail = next((m for m, (pp, _) in enumerate(profile, 1) if not pp.is_zero), None)
    zero_from = None
    for m, (_, ppg) in enumerate(profile, 1):
        zero_from = (zero_from or m) if ppg.is_zero else None
    if first_fail is not None:
        want, code = {"verdict": "hypothesis-fails", "first_failure": str(first_fail)}, 1
    elif zero_from is not None:
        want, code = {"verdict": "verified-up-to-horizon", "ppg_zero_from": str(zero_from)}, 0
    else:
        want, code = {"verdict": "inconclusive"}, 2
    problems += [f"{k}={kv.get(k)}, expected {v}" for k, v in want.items() if kv.get(k) != v]
    return problems, code


def _profile_lines(kv, profile, names):
    problems = []
    for m, (pp, ppg) in enumerate(profile, 1):
        for tag, value in (("pp", pp), ("ppg", ppg)):
            if kv.get(f"m{m}.{tag}_zero") != _bool(value.is_zero):
                problems.append(f"m{m}.{tag}_zero wrong")
            elif not value.is_zero and not _same_poly(kv[f"m{m}.{tag}_residual"], value, names):
                problems.append(f"m{m}.{tag}_residual wrong")
    return problems


def _case(spec, pairs, kv):
    problems = [f"anomaly: {v}" for k, v in pairs if k == "anomaly"]
    if kv.get("status") == "failed":
        problems.append("status failed")
    horizon = spec["horizon"]
    verified = _ints(kv.get("verified", ""))
    if spec["which"] in ("one-var", "phi"):
        # the acceptance families: always confirmed with the closed-form bound
        bound = spec["bound"]
        if kv.get("bound") is None or Fraction(kv["bound"]) != bound:
            problems.append(f"bound {kv.get('bound')}, expected {bound}")
        if verified != [m for m in range(1, horizon + 1) if m > bound]:
            problems.append(f"verified m {verified}")
        if kv.get("status") != "confirmed":
            problems.append(f"status {kv.get('status')}, expected confirmed")
        return problems, 0

    names = spec["names"]
    profile = _profile(names, spec["op"], spec["p"], spec["g"], horizon)
    sigma = sorted({tuple(a - b for a, b in zip(u, v)) for u in spec["p"] for v in spec["op"]})
    holds = all(pp.is_zero for pp, _ in profile)
    if kv.get("check.power-vanishing_hypothesis_up_to_horizon") != _bool(holds):
        problems.append("power-vanishing check line wrong")
    if len(sigma) > _FM_MAX_GENERATORS:
        raise Undecided(f"{len(sigma)} generators are too many for elimination")
    if not holds or fm.hull_meets_orthant(sigma):
        if kv.get("status") != "hypothesis-fails":
            problems.append(f"status {kv.get('status')}, expected hypothesis-fails")
        return problems, 1
    problems += [f"{k}=false" for k, v in pairs if k.startswith("check.") and v != "true"]
    bound = Fraction(kv.get("bound", "0"))
    if bound.denominator != 1 or bound < 1:
        problems.append(f"bound {bound}")
    tail = [m for m in range(int(bound), horizon + 1) if m >= 1]
    problems += [f"L^{m}(P^{m} g) != 0 past the bound" for m in tail
                 if not profile[m - 1][1].is_zero]
    if verified != tail:
        problems.append(f"verified m {verified}, expected {tail}")
    status = "confirmed" if tail else "inconclusive"
    if kv.get("status") != status:
        problems.append(f"status {kv.get('status')}, expected {status}")
    return problems, 0 if tail else 2


def _density(spec, pairs, kv):
    xs = sympy.symbols("x y")
    u = spec["u"]
    pivot = next((i for i, v in enumerate(u) if v), None)

    def on_ray(lam):
        if pivot is None:
            return not any(lam)
        k = Fraction(lam[pivot]) / u[pivot]
        return k >= 0 and all(a == k * b for a, b in zip(lam, u))

    hits = []
    p = _poly(spec["p"], xs)
    p_m = p
    for m in range(1, spec["horizon"] + 1):
        hits += [(f"hit.m{m}", point_str(lam)) for lam in sorted(p_m.monoms()) if on_ray(lam)]
        p_m = p_m * p
    problems = []
    if [(k, v) for k, v in pairs if k.startswith("hit.")] != hits:
        problems.append("ray hits differ")
    verdict = "found" if hits else "inconclusive"
    if kv.get("verdict") != verdict:
        problems.append(f"verdict {kv.get('verdict')}, expected {verdict}")
    return problems, 0 if hits else 2


def _dk(spec, pairs, kv):
    f = spec["f"]
    n = len(next(iter(f)))
    xs = sympy.symbols("x y")[:n]
    low = [min(e[i] for e in f) for i in range(n)]
    shifted = _poly({tuple(a - b for a, b in zip(e, low)): c for e, c in f.items()}, xs)
    consts = []
    f_m = shifted
    for m in range(1, spec["horizon"] + 1):
        coeff = f_m.as_dict().get(tuple(-m * b for b in low), 0)
        consts.append(Fraction(int(sympy.numer(coeff)), int(sympy.denom(coeff))))
        f_m = f_m * shifted
    zero_in = _member(sorted(f), (0,) * n)
    problems = []
    for m, c in enumerate(consts, 1):
        if Fraction(kv.get(f"constant_term.m{m}", "nan")) != c:
            problems.append(f"constant term m={m}")
    if kv.get("zero_in_polytope") != _bool(zero_in):
        problems.append("zero_in_polytope wrong")
    first = next((m for m, c in enumerate(consts, 1) if c), None)
    if first is not None:
        want, code = {"verdict": "hypothesis-fails", "first_nonzero": str(first)}, 1
    elif zero_in:
        want, code = {"verdict": "predicts-nonzero"}, 2
    else:
        want, code = {"verdict": "consistent"}, 0
    problems += [f"{k}={kv.get(k)}, expected {v}" for k, v in want.items() if kv.get(k) != v]
    return problems, code


_CHECKS = {"series": _series, "polytope": _polytope, "vanish": _vanish, "case": _case,
           "density": _density, "dk": _dk}


def check(request, code, stdout):
    """Problems with one answer; an empty list means it is right."""
    pairs = _pairs(stdout)
    kv = dict(pairs)
    try:
        problems, expected = _CHECKS[request["kind"]](request["spec"], pairs, kv)
    except (KeyError, ValueError, TypeError, SyntaxError, ZeroDivisionError,
            sympy.SympifyError, Undecided) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    argv = request["argv"]
    subcommand = " ".join(argv[:2]) if argv[0] in ("case", "counterexample") else argv[0]
    if kv.get("subcommand") != subcommand:
        problems.append(f"subcommand {kv.get('subcommand')}, expected {subcommand}")
    if code != expected:
        problems.append(f"exit code {code}, expected {expected}")
    return problems
