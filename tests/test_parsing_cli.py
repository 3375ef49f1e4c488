import contextlib
import io
import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parsing_oracle
from golden_corpus import CORPUS
from vanishlab import cli, parsing, poly
from vanishlab.cli import build_parser, main, parse_request
from vanishlab.parsing import (
    ParseError,
    parse_generators,
    parse_operator,
    parse_point,
    parse_poly,
)
from vanishlab.poly import LaurentPoly
from vanishlab.polytopes import RationalPolytope

# point and generator-list text: any string over the grammar's characters and
# the ones int() would take, and near-misses joined from likely pieces
POINT_TEXT = st.text(alphabet="0123456789-+/_. ,;()", max_size=24)
POINT_PIECES = st.lists(
    st.sampled_from(["0", "7", "007", "12", "-", "+", "/", "_", ".", " ", ",", ";", "(", ")",
                     "-0", "1/2", "4/2", "-3/00", "(1,2)", " ( 1 , -2 ) "]),
    max_size=10).map("".join)
# well-formed generator lists in every spelling the grammar allows: blanks,
# leading zeros, -0, p/q with q = 0 or with p/q integral, parentheses or none
BLANKS = st.sampled_from(["", " ", "  ", "\t"])
COMPONENT = st.builds("{}{}{}{}{}".format, BLANKS, st.sampled_from(["", "-"]),
                      st.from_regex(r"[0-9]{1,3}", fullmatch=True),
                      st.sampled_from(["", "/1", "/2", "/4", "/0", "/06"]), BLANKS)
POINT_SPELLED = st.lists(
    st.builds(lambda cs, parens: "(" + ",".join(cs) + ")" if parens else ",".join(cs),
              st.lists(COMPONENT, min_size=1, max_size=3), st.booleans()),
    min_size=1, max_size=3).map(";".join)
# integer points with one edge each: whitespace around coordinates and
# parentheses (Unicode whitespace too, and \x1c, which str.strip() strips and
# int() does not), -0 and leading zeros, a trailing or doubled comma, one p/q
# among the integers, a zero denominator
EDGE_BLANKS = st.sampled_from(["", " ", "  ", "\t", "\n", "\xa0", "\u2003", "\x1c"])
EDGE_INTS = st.sampled_from(["0", "-0", "00", "-00", "007", "-007", "12", "-3"])
EDGES = ("none", "trailing comma", "doubled comma", "p/q", "zero denominator")


@st.composite
def edge_point(draw):
    coords = draw(st.lists(EDGE_INTS, min_size=1, max_size=4))
    edge = draw(st.sampled_from(EDGES))
    i = draw(st.integers(0, len(coords) - 1))
    if edge == "p/q":
        coords[i] += draw(st.sampled_from(["/3", "/04", "/1", "/2"]))
    elif edge == "zero denominator":
        coords[i] += draw(st.sampled_from(["/0", "/00"]))
    text = ",".join(draw(EDGE_BLANKS) + c + draw(EDGE_BLANKS) for c in coords)
    if edge == "trailing comma":
        text += ","
    elif edge == "doubled comma":
        text = text.replace(",", ",,", 1) if "," in text else text + ",,"
    if draw(st.booleans()):
        text = draw(EDGE_BLANKS) + "(" + draw(EDGE_BLANKS) + text + draw(EDGE_BLANKS) + ")"
    return text + draw(EDGE_BLANKS)


POINT_EDGES = st.lists(edge_point(), min_size=1, max_size=3).map(";".join)

# polynomial text: any string over the grammar's characters, every kind of
# blank, a non-ASCII digit and letter and characters outside the grammar,
# and near-misses joined from likely pieces; every int stays far below
# CPython's 4300-digit limit on int <-> str conversion
POLY_BLANKS = " \t\n\r\f\v\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2003\u2028\u2029\u3000"
POLY_TEXT = st.text(alphabet="xyq_d0123456789/*^-+" + POLY_BLANKS + "\u0663\xe9$.(", max_size=24)
POLY_PIECES = st.lists(
    st.sampled_from(["x", "y", "q", "dx", "x1", "_", "0", "2", "17", "00", "\u0663", "/", "*",
                     "^", "-", "+", " ", "\t", "\xa0", "\u3000", "\n", "x^2", "y^-1", "x^-",
                     "x ^ - 3", "1/2", "3/0", "1/", "**", "\xe9", "$", ".", "(", ")"]),
    max_size=10).map("".join)
POLY_NAMES = [["x"], ["x", "y"], ["y", "x", "x1", "_"]]


def outcome(parse, src):
    """What parse gives for src, or (ValueError, its message)."""
    try:
        return parse(src)
    except ValueError as exc:
        return ValueError, str(exc)


def poly_outcome(read):
    """``(arity, nums as a list of items, den)`` from read(), or the type,
    message and position of the error it raises."""
    try:
        arity, nums, den = read()
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)
    return arity, list(nums.items()), den


class TestParsing:
    def test_examples(self):
        assert parse_poly("x^2 + y^2", ["x", "y"]) == LaurentPoly(
            2, {(2, 0): 1, (0, 2): 1})
        assert parse_poly("1/2*x*y^-3 - 4", ["x", "y"]) == LaurentPoly(
            2, {(1, -3): Fraction(1, 2), (0, 0): -4})
        assert parse_poly("-x + x", ["x"]).is_zero
        assert parse_poly("x^2*x^-1", ["x"]) == parse_poly("x", ["x"])

    def test_operator(self):
        op = parse_operator("dx*dy + 2*dy^3", ["x", "y"])
        assert op.symbol == LaurentPoly(2, {(1, 1): 1, (0, 3): 2})

    def test_points(self):
        assert parse_point("(1/2,-3)") == (Fraction(1, 2), Fraction(-3))
        assert parse_generators("(-2,1);(1,-2)") == [
            (Fraction(-2), Fraction(1)), (Fraction(1), Fraction(-2))]
        assert parse_point("-7/3") == (Fraction(-7, 3),)
        with pytest.raises(ValueError):
            parse_point("0.5")
        with pytest.raises(ValueError, match="zero denominator"):
            parse_point("-3/00")

    @pytest.mark.parametrize("src, value", [
        ("007", Fraction(7)), ("-0", Fraction(0)), (" 2/4 ", Fraction(1, 2)),
        ("-7/3", Fraction(-7, 3)), ("12/1", Fraction(12)),
    ])
    def test_fraction_accepts(self, src, value):
        # a one-coordinate point: an int for integral text, a Fraction for p/q
        got = parse_point(src)
        assert got == (value,) and type(got[0]) is (Fraction if "/" in src else int)

    @pytest.mark.parametrize("src, message", [
        ("3/0", "zero denominator"), ("1/-2", "not an exact fraction"),
        ("1.5", "not an exact fraction"), ("", "not an exact fraction"),
        ("1/", "not an exact fraction"), ("/2", "not an exact fraction"),
        ("+1", "not an exact fraction"), ("1 /2", "not an exact fraction"),
    ])
    def test_fraction_rejects(self, src, message):
        with pytest.raises(ValueError, match=message):
            parse_point(src)

    # an int for integral text, a Fraction where the text is p/q
    @pytest.mark.parametrize("src, value", [
        ("(1/2,-3)", (Fraction(1, 2), -3)), ("(007,-0)", (7, 0)), (" ( 1 , -2 ) ", (1, -2)),
        ("3", (3,)), (" 1 ", (1,)), ("(4/2, 6/4)", (Fraction(2), Fraction(3, 2))),
    ])
    def test_point_accepts(self, src, value):
        got = parse_point(src)
        assert got == value
        assert [type(v) for v in got] == [Fraction if type(v) is Fraction else int for v in value]

    @pytest.mark.parametrize("src, message", [
        ("+1", "not an exact fraction: '+1'"), ("(1_0,2)", "not an exact fraction: '1_0'"),
        ("(1, 1 2)", "not an exact fraction: '1 2'"), ("- 1", "not an exact fraction: '- 1'"),
        ("(1 /2)", "not an exact fraction: '1 /2'"), ("()", "not an exact fraction: ''"),
        ("(1,)", "not an exact fraction: ''"), ("((1))", "not an exact fraction: '(1)'"),
        ("(1", "not an exact fraction: '(1'"), ("1.5", "not an exact fraction: '1.5'"),
        ("(1/0, x)", "zero denominator in '1/0'"), ("(x, 1/0)", "not an exact fraction: 'x'"),
    ])
    def test_point_rejects(self, src, message):
        with pytest.raises(ValueError) as exc:
            parse_point(src)
        assert str(exc.value) == message

    @settings(max_examples=1000, deadline=None)
    @given(st.one_of(POINT_TEXT, POINT_PIECES, POINT_SPELLED, POINT_EDGES))
    def test_points_agree_with_fraction_oracle(self, src):
        # the same strings accepted, the same values, the same error messages
        got, want = outcome(parse_generators, src), outcome(parsing_oracle.parse_generators, src)
        assert got == want
        assert outcome(parse_point, src) == outcome(parsing_oracle.parse_point, src)
        if isinstance(got, list):
            assert all(type(v) is int for g in got for v in g) or "/" in src
            # one storage from either parser's points
            ours, theirs = outcome(RationalPolytope, got), outcome(RationalPolytope, want)
            if isinstance(ours, RationalPolytope):
                assert (ours.arity, ours.nums, ours.den) == (theirs.arity, theirs.nums,
                                                             theirs.den)
            else:
                assert ours == theirs

    def test_error_positions(self):
        src = "x + $"
        with pytest.raises(ParseError) as exc:
            parse_poly(src, ["x"])
        assert src[exc.value.position:].lstrip().startswith("$")
        with pytest.raises(ParseError) as exc:
            parse_poly("x + q", ["x"])
        assert exc.value.position == 4
        with pytest.raises(ParseError):
            parse_poly("x^", ["x"])
        with pytest.raises(ParseError):
            parse_poly("1/0", ["x"])

    # (source, message, position) as the term-by-term parser reported them
    @pytest.mark.parametrize("src, message, position", [
        ("", "expected a coefficient or a variable", 0),
        ("   ", "expected a coefficient or a variable", 3),
        ("x +", "expected a coefficient or a variable", 3),
        ("+", "expected a coefficient or a variable", 1),
        ("x + + y", "expected a coefficient or a variable", 4),
        ("x y", "expected '+' or '-' between terms", 2),
        ("2 3", "expected '+' or '-' between terms", 2),
        ("x^", "expected an integer exponent", 2),
        ("x^y", "expected an integer exponent", 2),
        ("x^-", "expected an integer exponent", 3),
        ("x^1/2", "expected '+' or '-' between terms", 3),
        ("1/0*x", "zero denominator", 0),
        ("3 + 4/0", "zero denominator", 4),
        ("1/", "expected a denominator", 2),
        ("1/x", "expected a denominator", 2),
        ("x/2", "expected '+' or '-' between terms", 1),
        ("x + $", "unexpected character '$'", 3),
        ("x + q", "unknown variable 'q'", 4),
        ("2**x", "expected a coefficient or a variable", 2),
        ("x*", "expected a coefficient or a variable", 2),
        ("*x", "expected a coefficient or a variable", 0),
        ("x - - y", "expected a coefficient or a variable", 4),
        ("(x)", "unexpected character '('", 0),
        ("x + 1.5", "unexpected character '.'", 5),
        ("-", "expected a coefficient or a variable", 1),
        ("x*-y", "expected a coefficient or a variable", 2),
        ("dx", "unknown variable 'dx'", 0),
        ("x + y^-q", "expected an integer exponent", 7),
        # an unexpected character wins over every other error of the text
        ("x y $", "unexpected character '$'", 3),
        ("1/0 + (", "unexpected character '('", 5),
        ("x^ $", "unexpected character '$'", 2),
        ("q + 1.5", "unexpected character '.'", 5),
        ("2**x .", "unexpected character '.'", 4),
    ])
    def test_malformed_inputs(self, src, message, position):
        with pytest.raises(ParseError) as exc:
            parse_poly(src, ["x", "y"])
        assert str(exc.value) == f"{message} (at position {position})"
        assert exc.value.position == position

    @settings(max_examples=2000, deadline=None)
    @given(st.one_of(POLY_TEXT, POLY_PIECES), st.sampled_from(POLY_NAMES))
    def test_polynomials_agree_with_term_parser_oracle(self, src, names):
        # the same (arity, nums, den) in the same key order, or the same
        # error message and position, as the token-list parser
        got = poly_outcome(lambda: parsing._read_poly(src, names))
        want = poly_outcome(lambda: parsing_oracle._Parser(src, names).parse())
        assert got == want
        if not isinstance(got[0], type):
            arity, items, den = want
            assert parse_poly(src, names) == LaurentPoly._from_integers(arity, dict(items), den)

    @pytest.mark.parametrize("names, bad", [
        (["x", "2"], "2"), (["x", "y-z"], "y-z"), (["é"], "é"), (["x1", "1x"], "1x"),
        ([""], ""), (["x "], "x "),
    ])
    def test_names_the_grammar_cannot_read(self, names, bad):
        message = f"variable names must match [A-Za-z_][A-Za-z0-9_]*, got {bad!r}"
        for parse in (parse_poly, parse_operator):
            with pytest.raises(ValueError) as exc:
                parse("1", names)
            assert type(exc.value) is ValueError and str(exc.value) == message

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_term_list_is_the_sum_of_its_terms(self, data):
        # monomials from a small pool, so terms repeat, and each drawn term
        # may be followed by its negation, so sums cancel; a term is a
        # product of int, int/int and x^k / y^k factors in any order
        factor = st.one_of(
            st.integers(0, 9).map(str),
            st.builds("{}/{}".format, st.integers(0, 9), st.integers(1, 9)),
            st.sampled_from(["x", "y", "x^2", "y^-1", "x^0", "x^-2*y"]),
        )
        term = st.lists(factor, min_size=1, max_size=4).map("*".join)
        items = data.draw(st.lists(st.tuples(st.sampled_from("+-"), term, st.booleans()),
                                   min_size=1, max_size=8))
        names = ["x", "y"]
        signed = []
        for sign, text, cancel in items:
            signed.append((sign, text))
            if cancel:
                signed.append(("-" if sign == "+" else "+", text))
        src = " ".join(f"{sign} {text}" for sign, text in signed)
        total = LaurentPoly.zero(2)
        for sign, text in signed:
            one = parse_poly(text, names)
            total = total + one if sign == "+" else total - one
        parsed = parse_poly(src, names)
        assert parsed == total
        # with the key order a term-by-term sum gives
        assert parsed.integer_items() == total.integer_items()

    def test_roundtrip_is_identity(self):
        rng = random.Random(42)
        names = ["x", "y"]
        for _ in range(200):
            terms = {}
            for _ in range(rng.randrange(5)):
                e = (rng.randrange(-3, 4), rng.randrange(-3, 4))
                terms[e] = Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
            p = LaurentPoly(2, terms)
            assert parse_poly(p.to_string(names), names) == p


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv_lines(out):
    return dict(line.split("=", 1) for line in out.strip().splitlines() if "=" in line)


def long_str(n):
    """``str(n)`` for an int n >= 0 of any length, made 1000 digits at a time
    so that no conversion meets CPython's limit on int -> str (4300 digits)."""
    text = ""
    while n >= 10 ** 1000:
        n, low = divmod(n, 10 ** 1000)
        text = f"{low:01000d}" + text
    return f"{n}" + text


class TestCli:
    def test_vanish_failure_exit_code(self, capsys):
        code, out, _ = run(capsys, "vanish", "--op", "dx*dy", "--p", "x^2 + y^2",
                           "-M", "4", "--format", "structured")
        assert code == 1
        kv = kv_lines(out)
        assert kv["verdict"] == "hypothesis-fails"
        assert kv["first_failure"] == "2"
        assert kv["m2.pp_residual"] == "8"

    def test_vanish_clean(self, capsys):
        code, out, _ = run(capsys, "vanish", "--op", "dx^2", "--p", "x*y",
                           "--g", "y^3", "-M", "4", "--format", "structured")
        assert code == 0
        assert kv_lines(out)["verdict"] == "verified-up-to-horizon"

    def test_vanish_inconclusive(self, capsys):
        # L^m(P^m g) stays nonzero through a tiny horizon
        code, out, _ = run(capsys, "vanish", "--op", "dx", "--p", "y",
                           "--g", "x^8", "-M", "2", "--format", "structured")
        assert code == 2
        assert kv_lines(out)["verdict"] == "inconclusive"

    def test_polytope_certificate_and_bound(self, capsys):
        code, out, _ = run(capsys, "polytope", "--sigma", "(-2,1);(1,-2)",
                           "--beta", "(3,3)", "--format", "structured")
        assert code == 0
        kv = kv_lines(out)
        assert kv["kind"] == "certificate"
        assert kv["delta"] == "1/2"
        assert kv["moveaway_N"] == "7"

    def test_polytope_membership(self, capsys):
        code, out, _ = run(capsys, "polytope", "--sigma", "(0,0);(2,0);(0,2)",
                           "--point", "(1/2,1/2)", "--format", "structured")
        assert code == 0
        assert kv_lines(out)["contains"] == "true"

    def test_polytope_witness_blocks_bound(self, capsys):
        code, out, _ = run(capsys, "polytope", "--sigma", "(1,1)",
                           "--beta", "(0,0)", "--format", "structured")
        assert code == 1
        assert kv_lines(out)["kind"] == "witness"

    def test_density(self, capsys):
        code, out, _ = run(capsys, "density", "--p", "x + y", "--u", "(1/2,1/2)",
                           "-M", "6", "--format", "structured")
        assert code == 0
        assert kv_lines(out)["verdict"] == "found"

    def test_dk_failure(self, capsys):
        code, out, _ = run(capsys, "dk", "--vars", "x", "--f", "x^-1 + x",
                           "-M", "4", "--format", "structured")
        assert code == 1
        kv = kv_lines(out)
        assert kv["verdict"] == "hypothesis-fails"
        assert kv["first_nonzero"] == "2"

    def test_dk_consistent(self, capsys):
        code, out, _ = run(capsys, "dk", "--vars", "x", "--f", "x^-1", "-M", "6")
        assert code == 0

    def test_case_one_var(self, capsys):
        code, out, _ = run(capsys, "case", "one-var", "--vars", "x", "--op", "dx^2",
                           "--p", "x", "--g", "x^3", "--format", "structured")
        assert code == 0
        kv = kv_lines(out)
        assert kv["status"] == "confirmed"
        assert kv["bound"] == "3"

    def test_case_phi(self, capsys):
        code, out, _ = run(capsys, "case", "phi", "--phi", "dy^2", "--f", "y",
                           "--g", "x^2*y", "--format", "structured")
        assert code == 0
        assert kv_lines(out)["bound"] == "5"

    def test_case_monomial(self, capsys):
        code, out, _ = run(capsys, "case", "monomial", "--op", "dx^2", "--p", "x*y",
                           "--g", "x^3", "--format", "structured")
        assert code == 0
        assert kv_lines(out)["bound"] == "4"

    def test_case_two_monomial(self, capsys):
        code, out, _ = run(capsys, "case", "two-monomial", "--op", "dx^2 + dy^3",
                           "--p", "x*y", "--format", "structured")
        assert code == 0
        assert kv_lines(out)["status"] == "confirmed"

    # the text output names the bound and the verified m, and claims no range:
    # the certificate cases verify from m = B, the one-variable case from B + 1
    TEXT_VERDICTS = [
        (["case", "monomial", "--op=dx^3*dy", "--p=x^2+x*y+y^2", "--g=x^5*y", "-M", "8"],
         "case monomial\n"
         "  check: power-vanishing hypothesis up to horizon: pass\n"
         "  check: Poly(f) disjoint from the nonnegative orthant: pass\n"
         "  bound B = 6\n"
         "  verified m: [6, 7, 8]\n"
         "  note: variant: operator-monomial\n"
         "  status: confirmed (verified up to horizon only)\n"),
        (["case", "one-var", "--vars=x", "--op=dx^2", "--p=x", "--g=x^3"],
         "case one-var\n"
         "  check: power-vanishing hypothesis up to horizon: pass\n"
         "  check: deg P <= order(symbol at 0) - 1: pass\n"
         "  bound B = 3\n"
         "  verified m: [4, 5, 6, 7, 8]\n"
         "  status: confirmed (verified up to horizon only)\n"),
    ]

    @pytest.mark.parametrize("argv, text", TEXT_VERDICTS, ids=["monomial", "one-var"])
    def test_case_text_output(self, capsys, monkeypatch, argv, text):
        monkeypatch.delenv("VANISHLAB_HORIZON", raising=False)
        assert run(capsys, *argv) == (0, text, "")

    def test_counterexamples(self, capsys):
        code, out, _ = run(capsys, "counterexample", "ddv", "-M", "4", "-D", "10",
                           "--format", "structured")
        assert code == 0
        assert kv_lines(out)["ok"] == "true"
        code, out, _ = run(capsys, "counterexample", "dk", "-M", "6", "-D", "10",
                           "--format", "structured")
        assert code == 0
        assert kv_lines(out)["ok"] == "true"

    def test_parse_error_exit_code(self, capsys):
        code, out, err = run(capsys, "vanish", "--op", "dx$", "--p", "x")
        assert code == 3
        assert "error" in err

    @pytest.mark.parametrize("argv, bad", [
        # '2' would read as a coefficient: x*2 is 2x, not the product of x and the variable 2
        (["vanish", "--vars=x,2", "--op=dx", "--p=x*2", "-M", "2"], "2"),
        (["vanish", "--vars=x,y-z", "--op=dx", "--p=x"], "y-z"),
        (["case", "phi", "--vars=x,y z", "--phi=dy", "--f=y"], "y z"),
    ])
    def test_unreadable_variable_name_is_usage_error(self, capsys, argv, bad):
        assert run(capsys, *argv, "--format", "structured") == (
            3, "", f"vanishlab: error: variable names must match [A-Za-z_][A-Za-z0-9_]*, "
                   f"got {bad!r}\n")

    def test_operand_outside_n_n_is_usage_error(self, capsys):
        # P g = x*y^-1 leaves N^n though dx^5 keeps no term of Lambda in the box B_1
        assert run(capsys, "vanish", "--vars", "x,y", "--op=dx^5", "--p=x", "--g=y^-1",
                   "-M", "3") == (3, "", "vanishlab: error: operand exponents must be in N^n\n")

    def test_out_of_memory_is_inconclusive(self, capsys, monkeypatch):
        # a kernel that runs out of memory leaves the request undecided (exit 2),
        # with one line on stderr and no traceback
        def exhausted(*args):
            raise MemoryError
        monkeypatch.setattr(poly, "_product", exhausted)
        assert run(capsys, "vanish", "--op=dx", "--p=x*y", "-M", "2", "--format",
                   "structured") == (2, "", "vanishlab: inconclusive: out of memory\n")

    @pytest.mark.parametrize("argv", [
        ["polytope", "--sigma", "(1/0,1)"],
        ["polytope", "--sigma", "(-2,1);(1,-2)", "--point", "(1/0,1)"],
        ["polytope", "--sigma", "(-2,1);(1,-2)", "--beta", "(1/0,1)"],
        ["density", "--p", "x + y", "--u", "(1/0,1)"],
    ])
    def test_zero_denominator_in_a_point_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--format", "structured")
        assert code == 3
        assert "zero denominator" in err and "Traceback" not in err

    @pytest.mark.parametrize("beta", ["(3)", "(3,3,100)"])
    def test_beta_of_another_dimension_is_usage_error(self, capsys, beta):
        code, out, err = run(capsys, "polytope", "--sigma", "(-2,1);(1,-2)",
                             "--beta", beta, "--format", "structured")
        assert code == 3
        assert "moveaway_N" not in out
        assert "coordinates" in err and "Traceback" not in err

    @pytest.mark.parametrize("sigma", ["(1,2)", "(-2,1);(1,-2)"], ids=["witness", "certificate"])
    @pytest.mark.parametrize("query", [
        ["--beta", "abc"], ["--beta", "(1,2,3)"], ["--beta", "(3)"],
        ["--point", "(1,2,3)"], ["--point", "abc"], ["--point", "(0,0)", "--beta", "(1/0,1)"],
    ], ids=["beta-text", "beta-3d", "beta-1d", "point-3d", "point-text", "beta-zero-den"])
    def test_bad_query_point_prints_nothing(self, capsys, sigma, query):
        # --point and --beta are read and checked before any output, on
        # either answer of the orthant query
        code, out, err = run(capsys, "polytope", "--sigma", sigma, *query,
                             "--format", "structured")
        assert code == 3
        assert out == ""
        assert "error" in err and "Traceback" not in err

    @pytest.mark.parametrize("mode", [[], ["--homogeneous"]], ids=["ray", "homogeneous"])
    @pytest.mark.parametrize("query, message", [
        (["--u", "(1/2,1/2,0)"], "u has 3 coordinates, P has 2 variables"),
        (["--u", "(1)"], "u has 1 coordinates, P has 2 variables"),
        (["--u", "(1/2,1/2)", "-M", "0"], "horizon must be >= 1"),
        (["--u", "(1/2,1/2)", "-M", "-2"], "horizon must be >= 1"),
        (["--u", "(2,2)"], "Newton polytope"),
    ], ids=["u-3d", "u-1d", "M-zero", "M-negative", "u-outside"])
    def test_bad_density_request_prints_nothing(self, capsys, mode, query, message):
        # density searches before it prints, with or without --homogeneous
        code, out, err = run(capsys, "density", "--p", "x + y", *query, *mode,
                             "--format", "structured")
        assert code == 3
        assert out == ""
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["vanish", "--op", "dx*dy", "--p", "x^2 + y^2"],
        ["case", "one-var", "--vars", "x", "--op", "dx^2", "--p", "x"],
        ["case", "phi", "--phi", "dy^2", "--f", "y"],
        ["case", "monomial", "--op", "dx^2", "--p", "x*y"],
        ["case", "two-monomial", "--op", "dx^2 + dy^3", "--p", "x*y"],
    ], ids=["vanish", "one-var", "phi", "monomial", "two-monomial"])
    def test_empty_g_is_parse_error(self, capsys, argv):
        # an empty --g is malformed text, as an empty --p is, not g = 1
        code, out, err = run(capsys, *argv, "--g=", "-M", "3", "--format", "structured")
        assert code == 3
        assert out == ""
        assert "error" in err and "Traceback" not in err

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 3

    def test_horizon_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("VANISHLAB_HORIZON", "3")
        code, out, _ = run(capsys, "vanish", "--op", "dx*dy", "--p", "x^2 + y^2",
                           "--format", "structured")
        assert kv_lines(out)["horizon"] == "3"

    def test_horizon_env_read_on_every_call(self, capsys, monkeypatch):
        # the parser is built once per process; the environment is not frozen into it
        assert build_parser() is build_parser()
        argv = ["vanish", "--op", "dx^2", "--p", "x*y", "--format", "structured"]
        for value, expected in (("3", "3"), ("5", "5"), ("", "8")):
            monkeypatch.setenv("VANISHLAB_HORIZON", value)
            assert kv_lines(run(capsys, *argv)[1])["horizon"] == expected
        monkeypatch.setenv("VANISHLAB_HORIZON", "5")
        assert kv_lines(run(capsys, *argv, "-M", "2")[1])["horizon"] == "2"

    def test_horizon_env_invalid_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("VANISHLAB_HORIZON", "abc")
        code, out, err = run(capsys, "vanish", "--op", "dx", "--p", "x")
        assert code == 3
        assert "VANISHLAB_HORIZON" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["counterexample", "ddv"],
        ["counterexample", "dk"],
        ["density", "--p", "x + y", "--u", "(1/2,1/2)", "--homogeneous"],
        ["case", "two-monomial", "--op", "dx^2 + dy^3", "--p", "x*y"],
        ["case", "monomial", "--op", "dx^2 + dy^3", "--p", "x*y"],
    ])
    @pytest.mark.parametrize("horizon", ["0", "-2"])
    def test_non_positive_horizon_is_usage_error(self, capsys, argv, horizon):
        code, out, err = run(capsys, *argv, "-M", horizon, "--format", "structured")
        assert code == 3
        assert "horizon must be >= 1" in err
        assert "ok=true" not in out

    def test_polytope_ignores_horizon_env(self, capsys, monkeypatch):
        # polytope has no horizon, so neither -M nor VANISHLAB_HORIZON applies
        monkeypatch.setenv("VANISHLAB_HORIZON", "abc")
        code, out, _ = run(capsys, "polytope", "--sigma", "(-2,1);(1,-2)",
                           "--format", "structured")
        assert code == 0
        assert kv_lines(out)["kind"] == "certificate"
        with pytest.raises(SystemExit) as exc:
            main(["polytope", "--sigma", "(-2,1);(1,-2)", "-M", "3"])
        assert exc.value.code == 3

    def test_two_monomial_routes_homogeneous_operator_to_mirror_case(self, capsys):
        code, out, _ = run(capsys, "case", "two-monomial", "--op", "dx^3 + dy^3",
                           "--p", "x + y^2", "-M", "5", "--format", "structured")
        assert code == 0
        kv = kv_lines(out)
        assert kv["case"] == "two-monomial-P"
        assert kv["bound"] == "1"
        assert kv["status"] == "confirmed"

    def test_numbers_past_the_int_str_limit(self, capsys):
        # a residual of 6000 digits and a coordinate of 5000 print whole:
        # main lifts CPython's limit on int <-> str conversion for the request
        # and restores it on the way out
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        n = int("7" * 3000)
        code, out, err = run(capsys, "vanish", "--vars", "x", "--op=dx", f"--p={n}*x",
                             "-M", "2", "--format", "structured")
        assert (code, err) == (1, "")
        assert out == "".join(f"{line}\n" for line in [
            "subcommand=vanish", "horizon=2",
            "m1.pp_zero=false", "m1.ppg_zero=false",
            f"m1.pp_residual={n}", f"m1.ppg_residual={n}",
            "m2.pp_zero=false", "m2.ppg_zero=false",
            f"m2.pp_residual={long_str(2 * n * n)}", f"m2.ppg_residual={long_str(2 * n * n)}",
            "verdict=hypothesis-fails", "first_failure=1"])
        nines = "9" * 5000
        assert run(capsys, "polytope", f"--sigma=({nines})", "--format", "structured") == (
            0, f"subcommand=polytope\nkind=witness\nwitness=({nines})\n", "")
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    def test_interpreter_without_an_int_str_limit(self, capsys, monkeypatch):
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
        monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
        code, out, _ = run(capsys, "polytope", "--sigma=(-2,1);(1,-2)", "--format", "structured")
        assert code == 0
        assert kv_lines(out)["kind"] == "certificate"

    def test_determinism(self, capsys):
        argv = ["polytope", "--sigma", "(-2,1);(1,-2);(-1,-1)", "--beta", "(2,2)",
                "--format", "structured"]
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("x*y"))
        code, out, _ = run(capsys, "vanish", "--op", "dx^2", "--p", "-",
                           "-M", "3", "--format", "structured")
        assert code == 0


# ---------------------------------------------------------------------------
# Leaf dispatch: a request that names a leaf command in plain spellings is read
# from that leaf's option table, any other goes to the full parser, and every
# answer is the full parser's

SIGMA = "--sigma=(-1,0);(0,-1)"
LEAVES = [("vanish",), ("polytope",), ("density",), ("dk",), ("case", "one-var"),
          ("case", "phi"), ("case", "monomial"), ("case", "two-monomial"),
          ("counterexample", "ddv"), ("counterexample", "dk")]
DISPATCH_ARGVS = [
    ["no-such-command"], [], ["case"], ["case", "nope"], ["counterexample"],
    ["polytope", SIGMA, "--bogus"],
    ["polytope", SIGMA, "-M", "3"],
    ["case", "phi", "--phi=dy^2", "--f=y", "extra"],
    ["counterexample", "ddv", "--bogus", "x"],
    ["-h"], ["--help"], ["polytope", "-h"], ["case", "phi", "-h"], ["counterexample", "dk", "--he"],
    ["polytope", SIGMA, "--form", "structured"],
    ["polytope"], ["polytope", "--", SIGMA], ["--format", "text", "polytope", SIGMA],
    ["vanish", "--op=dx", "--p=x", "--format", "json"],
    ["case", "one-var", "--", "x"],
    ["case", "two-monomial", "--op", "dx^2 + dy^3", "--p", "x*y", "-M", "4", "--g", "x"],
    ["counterexample", "ddv", "-M", "3", "-D", "4", "--format=structured"],
    ["density", "--p", "x + y", "--u", "(1/2,1/2)", "--homogeneous"],
    # spellings the option table must either refuse or read as argparse does
    ["counterexample", "ddv", "-M3"], ["counterexample", "ddv", "-M=3"],
    ["counterexample", "ddv", "--horizon=3", "-D", "5"], ["counterexample", "ddv", "--hor", "3"],
    ["counterexample", "ddv", "-M", "-3"], ["counterexample", "ddv", "-M"],
    ["counterexample", "dk", "-M", "x"],
    ["vanish", "--op", "-dx", "--p=x"], ["vanish", "--op=dx", "--p", "-"],
    ["vanish", "--op=dx", "--p="], ["vanish", "--op=dx", "--p==x"], ["vanish", "--op=dx", "--p=--"],
    ["vanish", "--op=dx", "--p=x", "-M", "3", "--horizon", "4", "--p", "y"],
    ["vanish", "--op=dx", "--p=x", "--vars", "x,y"],
    ["polytope", SIGMA, "--format=json"], ["polytope", SIGMA, "--format", ""],
    ["density", "--p=x", "--u=(1,1)", "--homogeneous", "--homogeneous"],
    ["density", "--p=x", "--u=(1,1)", "--homogeneous=1"],
    ["density", "--p=x", "--u=(1,1)", "--homogeneous", "1"],
]


def parsed(parse, argv):
    """What parse gives for argv: its namespace less ``command``, or its
    exit code, with what it printed to stdout and to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = {k: v for k, v in vars(parse(list(argv))).items() if k != "command"}
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


WORDS = st.sampled_from(["vanish", "polytope", "density", "dk", "case", "counterexample",
                         "one-var", "phi", "ddv", "nope", "-h", "--he", "--", "-M", "3",
                         "--form", "--format", "structured", "text", SIGMA, "--sigma",
                         "(1/2)", "--op=dx", "--p=x", "--f", "y", "--bogus", "-D", "x,y",
                         "-M3", "-M=3", "--horizon=3", "--hor", "-3", "--op", "-dx", "--p", "-",
                         "--p=", "--p==x", "--p=--", "--format=json", "--homogeneous",
                         "--homogeneous=1", "--u=(1,1)"])


class TestLeafDispatch:
    def test_leaves_are_recorded(self):
        parser = build_parser()
        assert sorted(parser.leaves) == sorted(LEAVES)
        # the parser is built once per process and reused by every request
        misses = build_parser.cache_info().misses
        assert main(["polytope", SIGMA]) == 0
        assert build_parser() is parser and build_parser.cache_info().misses == misses

    @pytest.mark.parametrize("argv", DISPATCH_ARGVS, ids=" ".join)
    def test_same_as_full_parser(self, argv):
        assert parsed(parse_request, argv) == parsed(build_parser().parse_args, argv)

    @settings(max_examples=300, deadline=None)
    @given(head=st.sampled_from(LEAVES + [()]), words=st.lists(WORDS, max_size=6))
    def test_random_words_same_as_full_parser(self, head, words):
        argv = [*head, *words]
        assert parsed(parse_request, argv) == parsed(build_parser().parse_args, argv)

    @pytest.mark.parametrize("argv, err", [
        (["polytope", SIGMA, "--bogus"], "vanishlab: error: unrecognized arguments: --bogus\n"),
        (["case", "phi", "--phi=dy^2", "--f=y", "extra"],
         "vanishlab: error: unrecognized arguments: extra\n"),
        (["counterexample", "ddv", "--bogus", "x"],
         "vanishlab: error: unrecognized arguments: --bogus x\n"),
        ([], "vanishlab: error: the following arguments are required: command\n"),
        (["case"], "vanishlab case: error: the following arguments are required: which\n"),
        (["polytope"], "vanishlab polytope: error: the following arguments are required: --sigma\n"),
        (["case", "phi", "--phi=dy^2"],
         "vanishlab case phi: error: the following arguments are required: --f\n"),
        (["counterexample", "dk", "-M", "x"],
         "vanishlab counterexample dk: error: argument -M/--horizon: invalid int value: 'x'\n"),
        (["polytope", SIGMA, "-M", "3"], "vanishlab: error: unrecognized arguments: -M 3\n"),
    ])
    def test_usage_errors(self, argv, err, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        assert capsys.readouterr() == ("", err)

    @pytest.mark.parametrize("argv, prefix", [
        (["no-such-command"], "vanishlab: error: argument command: invalid choice: "),
        (["case", "nope"], "vanishlab case: error: argument which: invalid choice: "),
    ])
    def test_unknown_commands(self, argv, prefix, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 3 and out == "" and err.startswith(prefix)

    @pytest.mark.parametrize("argv, usage", [
        (["-h"], "usage: vanishlab "),
        (["polytope", "-h"], "usage: vanishlab polytope "),
        (["case", "phi", "--help"], "usage: vanishlab case phi "),
    ])
    def test_help(self, argv, usage, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 0 and out.startswith(usage) and err == ""

    @pytest.mark.parametrize("argv, served", [
        (["counterexample", "ddv", "--horizon=3", "-D", "5", "--format", "structured"], True),
        (["counterexample", "ddv", "-M", "3", "--horizon", "4"], True),
        (["vanish", "--op=dx", "--p="], True),
        (["vanish", "--op=dx", "--p==x"], True),
        (["vanish", "--op=-dx", "--p", "x"], True),
        (["density", "--p=x", "--u=(1,1)", "--homogeneous"], True),
        (["counterexample", "ddv", "-M3"], False),
        (["counterexample", "ddv", "-M=3"], False),
        (["counterexample", "ddv", "--hor", "3"], False),
        (["counterexample", "ddv", "-M", "-3"], False),
        (["counterexample", "ddv", "-M", "x"], False),
        (["counterexample", "ddv", "--", "-M", "3"], False),
        (["counterexample", "ddv", "-h"], False),
        (["vanish", "--op", "-dx", "--p=x"], False),
        (["vanish", "--op=dx", "--p", "-"], False),
        (["vanish", "--op=dx", "--p=--"], False),
        (["vanish", "--op=dx"], False),
        (["polytope", SIGMA, "--format=json"], False),
        (["density", "--p=x", "--u=(1,1)", "--homogeneous=1"], False),
        (["density", "--p=x", "--u=(1,1)", "--homogeneous", "1"], False),
    ])
    def test_option_table_serves_plain_spellings_only(self, argv, served):
        size = 2 if argv[0] in ("case", "counterexample") else 1
        args = cli._parse_plain(build_parser().leaves[tuple(argv[:size])], argv[size:])
        assert (args is not None) == served
        if served:
            assert parsed(lambda _: args, argv) == parsed(build_parser().parse_args, argv)

    @pytest.mark.parametrize("words, served", [
        ([], True), (["--n=3"], True), (["-n", "4", "--n", "5"], True), (["--pick", "b"], True),
        (["--pick=a"], True), (["--flag"], True), (["--flag", "--n= 6 ", "--flag"], True),
        (["--pick=c"], False), (["--n=x"], False), (["--n", "-1"], False),
    ])
    def test_option_table_fills_defaults_as_argparse(self, words, served):
        # set_defaults values fill what no action set (a given option beats
        # them), in argparse's order
        leaf = cli._Parser(prog="leaf")
        leaf.add_argument("-n", "--n", type=int, default=7)
        leaf.add_argument("--pick", choices=["a", "b"], default="a")
        leaf.add_argument("--flag", action="store_true")
        leaf.set_defaults(func=len, which="leaf", pick="b")
        args = cli._parse_plain(leaf, words)
        assert (args is not None) == served
        if served:
            full = leaf.parse_known_args(words)
            assert full[1] == [] and list(vars(args).items()) == list(vars(full[0]).items())

    @pytest.mark.parametrize("kwargs", [{"action": "append"}, {"action": "count"},
                                        {"action": "store_const", "const": 1}, {"nargs": "?"},
                                        {"type": int, "default": "7"}])
    def test_option_table_refuses_options_it_cannot_read(self, kwargs):
        with pytest.raises(ValueError, match="option table"):
            cli._Parser(prog="leaf").add_argument("--x", **kwargs)

    def test_option_table_serves_the_golden_corpus(self, monkeypatch):
        # every corpus request is read from its leaf's option table, with the
        # full parser's namespace, and no argparse parse runs
        argvs = [e["argv"] for e in json.loads(CORPUS.read_text())]
        full = [parsed(build_parser().parse_args, argv) for argv in argvs]

        def fail(*args, **kwargs):
            raise AssertionError("argparse parsed a golden-corpus request")

        monkeypatch.setattr(cli._Parser, "parse_known_args", fail)
        assert [parsed(parse_request, argv) for argv in argvs] == full

    def test_abbreviated_option(self, capsys):
        assert run(capsys, "polytope", SIGMA, "--form", "structured") == run(
            capsys, "polytope", SIGMA, "--format", "structured")

    def test_argv_none_reads_sys_argv(self, capsys, monkeypatch):
        # the console script calls main() with no argument
        expected = run(capsys, "polytope", SIGMA, "--format", "structured")
        monkeypatch.setattr("sys.argv", ["vanishlab", "polytope", SIGMA, "--format", "structured"])
        assert main() == 0
        assert capsys.readouterr() == expected[1:]
        monkeypatch.setattr("sys.argv", ["vanishlab", "polytope", SIGMA, "--bogus"])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 3
        assert capsys.readouterr().err == "vanishlab: error: unrecognized arguments: --bogus\n"
