"""Command-line front end.

Exit codes: 0 confirmed/consistent, 1 a hypothesis or check failed,
2 inconclusive at the horizon or out of memory, 3 usage or parse errors.
The only environment override is VANISHLAB_HORIZON.

argparse is the one definition of every option, and a request takes one
of two paths.  One that names a leaf command in plain spellings
(``--opt=value``, ``--opt value`` or ``-M value`` with a value word that
does not start with ``-``, a store-true flag alone) is read from that
leaf's option table, the actions its ``add_argument`` calls returned; any
other (help, an unknown, abbreviated or joined option, ``--``, a value word
that starts with ``-``, a bad value, a missing option) goes to the full
parser, which prints the help or the error.

The module imports only the standard library: each ``cmd_*`` imports the
library modules it runs when it is called, so a request loads only what its
subcommand needs (a ``polytope`` query never loads the polynomial kernel).
Without a bytecode cache every module a run imports is compiled from source,
which costs a small request more than its own work.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys

TEXT = "text"
STRUCTURED = "structured"


class _Parser(argparse.ArgumentParser):
    """An argument parser that exits 3 on a usage error.

    ``options`` maps each option string to the action that ``add_argument``
    returned for it, ``blank`` is the namespace, as a dict, of a request
    that gives no option, and ``required`` holds the actions every request
    must give: the table `_parse_plain` reads.  It reads one value or a
    store-true flag per option and converts no default, so an option of
    another kind, or a string default with a ``type``, is refused when it is
    added.
    """

    def __init__(self, *args, **kwargs):
        self.options = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        kind = kwargs.get("action", "store")
        if kind == "help":
            return action
        if (kind not in ("store", "store_true") or "nargs" in kwargs
                or isinstance(action.default, str) and action.type is not None):
            raise ValueError(f"the option table cannot read {action.option_strings}")
        self.options.update(dict.fromkeys(action.option_strings, action))
        self._record()
        return action

    def set_defaults(self, **kwargs):
        super().set_defaults(**kwargs)
        self._record()

    def _record(self):
        # argparse's order: the action defaults, then the other set_defaults values
        actions = self.options.values()
        blank = {action.dest: action.default for action in actions}
        self.blank = blank | {k: v for k, v in self._defaults.items() if k not in blank}
        self.required = {action for action in actions if action.required}

    def error(self, message):
        self.exit(3, f"{self.prog}: error: {message}\n")


def _default_horizon():
    """The horizon when -M is absent: VANISHLAB_HORIZON, read on every call, or 8."""
    value = os.environ.get("VANISHLAB_HORIZON")
    if not value:
        return 8
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"VANISHLAB_HORIZON must be an integer, got {value!r}") from None


def _read_arg(value):
    if value == "-":
        return sys.stdin.read()
    return value


class Emitter:
    def __init__(self, fmt):
        self.fmt = fmt

    def kv(self, key, value):
        if isinstance(value, bool):
            value = "true" if value else "false"
        print(f"{key}={value}")

    def text(self, line=""):
        if self.fmt == TEXT:
            print(line)

    def record(self, key, value):
        if self.fmt == STRUCTURED:
            self.kv(key, value)


def _split_vars(spec):
    names = [v.strip() for v in spec.split(",") if v.strip()]
    if not names or len(set(names)) != len(names):
        raise ValueError("variable names must be nonempty and unique")
    return names


# ---------------------------------------------------------------------------

def cmd_vanish(args, out):
    from vanishlab.diffops import vanishing_profile
    from vanishlab.parsing import parse_operator, parse_poly

    names = _split_vars(args.vars)
    op = parse_operator(_read_arg(args.op), names)
    p = parse_poly(_read_arg(args.p), names)
    g = None if args.g is None else parse_poly(_read_arg(args.g), names)
    profile = vanishing_profile(op, p, g, args.horizon)
    out.record("subcommand", "vanish")
    out.record("horizon", profile.horizon)
    out.text(f"vanishing profile up to M={profile.horizon}")
    for e in profile.entries:
        out.record(f"m{e.m}.pp_zero", e.pp_zero)
        out.record(f"m{e.m}.ppg_zero", e.ppg_zero)
        pp = "0" if e.pp_zero else e.pp_residual.to_string(names)
        ppg = "0" if e.ppg_zero else e.ppg_residual.to_string(names)
        if out.fmt == TEXT:
            out.text(f"  m={e.m}: L^m(P^m)={pp}  L^m(P^m g)={ppg}")
        if not e.pp_zero:
            out.record(f"m{e.m}.pp_residual", pp)
        if not e.ppg_zero:
            out.record(f"m{e.m}.ppg_residual", ppg)
    if profile.first_pp_failure is not None:
        out.record("verdict", "hypothesis-fails")
        out.record("first_failure", profile.first_pp_failure)
        out.text(f"hypothesis fails first at m={profile.first_pp_failure}")
        return 1
    if profile.ppg_zero_from is not None:
        out.record("verdict", "verified-up-to-horizon")
        out.record("ppg_zero_from", profile.ppg_zero_from)
        out.text(f"all vanish from m={profile.ppg_zero_from} up to the horizon")
        return 0
    out.record("verdict", "inconclusive")
    out.text("L^m(P^m g) still nonzero at the horizon")
    return 2


def _query_point(point, name, arity):
    if len(point) != arity:
        raise ValueError(f"{name} has {len(point)} coordinates, the polytope lives in "
                         f"dimension {arity}")
    return point


def cmd_polytope(args, out):
    from vanishlab.parsing import parse_generators, parse_point
    from vanishlab.polytopes import (
        RationalPolytope,
        SeparationCertificate,
        _point_str,
        contains_point,
        moveaway_bound,
        orthant_meet,
    )

    gens = parse_generators(args.sigma)
    sigma = RationalPolytope(gens)
    # every input is read and checked before the first line is printed
    w = None if args.point is None else _query_point(parse_point(args.point), "point", sigma.arity)
    beta = None if args.beta is None else _query_point(parse_point(args.beta), "beta", sigma.arity)
    out.record("subcommand", "polytope")
    status = 0
    if w is not None:
        coeffs = contains_point(sigma, w)
        inside = coeffs is not None
        out.record("point", _point_str(w))
        out.record("contains", inside)
        if inside:
            out.record("coefficients", _point_str(coeffs))
        out.text(f"point {_point_str(w)}: "
                 + (f"inside, coefficients {_point_str(coeffs)}" if inside else "outside"))
    meet = orthant_meet(sigma)
    if isinstance(meet, SeparationCertificate):
        out.record("kind", "certificate")
        out.record("c", _point_str(meet.c))
        out.record("delta", meet.delta)
        out.text(f"certificate: c={_point_str(meet.c)}, delta={meet.delta}")
        if beta is not None:
            n = moveaway_bound(beta, sigma, meet)
            out.record("beta", _point_str(beta))
            out.record("moveaway_N", n)
            out.text(f"move-away bound for beta={_point_str(beta)}: N={n}")
    else:
        out.record("kind", "witness")
        out.record("witness", _point_str(meet.point))
        out.text(f"witness in the orthant: {_point_str(meet.point)}")
        if beta is not None:
            out.record("moveaway_N", "undefined")
            out.text("no move-away bound: the polytope meets the orthant")
            status = 1
    return status


def cmd_density(args, out):
    from vanishlab import density
    from vanishlab.parsing import parse_point, parse_poly
    from vanishlab.polytopes import _point_str

    names = _split_vars(args.vars)
    p = parse_poly(_read_arg(args.p), names)
    u = parse_point(args.u)
    if len(u) != p.arity:
        raise ValueError(f"u has {len(u)} coordinates, P has {p.arity} variables")
    # the search runs, and fails on a bad input, before the first line is printed
    if args.homogeneous:
        hits = density.homogeneous_density(p, u, args.horizon)
    else:
        report = density.ray_hits_support(p, u, args.horizon)
    out.record("subcommand", "density")
    out.record("u", _point_str(u))
    if args.homogeneous:
        out.record("hits", ",".join(str(m) for m in hits))
        out.text(f"m with m*u in Supp(P^m), m <= {args.horizon}: {hits}")
        out.record("verdict", density.FOUND if hits else density.INCONCLUSIVE)
        return 0 if hits else 2
    for m, lam in report.hits:
        out.record(f"hit.m{m}", _point_str(lam))
    out.record("verdict", report.verdict)
    if report.verdict == density.FOUND:
        out.text(f"first hit at m={report.first_hit}; hits: "
                 + ", ".join(f"m={m}:{_point_str(l)}" for m, l in report.hits))
        return 0
    out.text(f"no support point on the ray up to M={report.horizon} (inconclusive)")
    return 2


def cmd_dk(args, out):
    from vanishlab import density
    from vanishlab.parsing import parse_poly

    names = _split_vars(args.vars)
    f = parse_poly(_read_arg(args.f), names)
    report = density.dk_check(f, args.horizon)
    out.record("subcommand", "dk")
    for m, c in enumerate(report.constant_terms, start=1):
        out.record(f"constant_term.m{m}", c)
    out.record("zero_in_polytope", report.zero_in_polytope)
    out.record("verdict", report.verdict)
    out.text(f"constant terms of f^m, m <= {report.horizon}: "
             + ", ".join(str(c) for c in report.constant_terms))
    if report.verdict == density.HYPOTHESIS_FAILS:
        out.record("first_nonzero", report.first_nonzero)
        out.text(f"hypothesis fails at m={report.first_nonzero}")
        return 1
    if report.verdict == density.CONSISTENT:
        out.text("all zero and 0 is outside Poly(f): consistent")
        return 0
    out.text("all zero but 0 is inside Poly(f): a nonzero constant term "
             "is predicted beyond the horizon")
    return 2


def _emit_verdict(verdict, out):
    """Print a `cases.CaseVerdict`; its exit code."""
    out.record("case", verdict.case)
    out.text(f"case {verdict.case}")
    for name, ok in verdict.checks:
        out.record(f"check.{name.replace(' ', '_')}", ok)
        out.text(f"  check: {name}: {'pass' if ok else 'FAIL'}")
    if verdict.bound is not None:
        out.record("bound", verdict.bound)
        out.text(f"  bound B = {verdict.bound}")
    if verdict.verified:
        out.record("verified", ",".join(str(m) for m in verdict.verified))
        out.text(f"  verified m: {list(verdict.verified)}")
    for m, residual in sorted(verdict.residuals.items()):
        out.record(f"residual.m{m}", residual)
        out.text(f"  residual at m={m}: {residual}")
    for note in verdict.notes:
        out.record("note", note)
        out.text(f"  note: {note}")
    for anomaly in verdict.anomalies:
        out.record("anomaly", anomaly)
        out.text(f"  ANOMALY: {anomaly}")
    out.record("status", verdict.status)
    out.text(f"  status: {verdict.status} (verified up to horizon only)")
    return {"confirmed": 0, "hypothesis-fails": 1, "failed": 1, "inconclusive": 2}[verdict.status]


def _multiplier(args):
    """The text of the case checkers' g: 1 when --g is absent; an empty --g
    is malformed text, which `parse_poly` rejects."""
    return "1" if args.g is None else _read_arg(args.g)


def cmd_case(args, out):
    from vanishlab import cases
    from vanishlab.parsing import parse_operator, parse_poly

    names = _split_vars(args.vars)
    if args.which == "phi":
        if len(names) != 2:
            raise ValueError("the phi case needs exactly two variables")
        phi = parse_operator(_read_arg(args.phi), [names[1]]).symbol
        f = parse_poly(_read_arg(args.f), names)
        verdict = cases.phi_case_check(phi, f, parse_poly(_multiplier(args), names),
                                       args.horizon, names=names)
    else:
        if args.which == "one-var" and len(names) != 1:
            raise ValueError("the one-variable case needs exactly one variable")
        # looked up per request, so that a rebound checker is the one called
        check = {"one-var": cases.one_var_check, "monomial": cases.monomial_case_check,
                 "two-monomial": cases.two_monomial_check}[args.which]
        op = parse_operator(_read_arg(args.op), names)
        p = parse_poly(_read_arg(args.p), names)
        verdict = check(op, p, parse_poly(_multiplier(args), names), args.horizon)
    out.record("subcommand", f"case {args.which}")
    return _emit_verdict(verdict, out)


def cmd_counterexample(args, out):
    from vanishlab import cases

    if args.which == "ddv":
        report = cases.counterexample_ddv(args.horizon, args.precision)
    else:
        report = cases.counterexample_dk(args.horizon, args.precision)
    out.record("subcommand", f"counterexample {args.which}")
    out.record("horizon", report.horizon)
    out.record("precision", report.precision)
    out.text(f"counterexample {report.name}: M={report.horizon}, D={report.precision}")
    for m, checks in report.rows:
        for name, ok in checks:
            out.record(f"m{m}.{name.replace(' ', '_')}", ok)
        if out.fmt == TEXT:
            summary = "; ".join(f"{name}: {'pass' if ok else 'FAIL'}" for name, ok in checks)
            out.text(f"  m={m}: {summary}")
    out.record("ok", report.ok)
    out.text("all checks pass" if report.ok else "CHECK FAILURE")
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------

@functools.cache
def build_parser():
    """The argument parser, built once per process; it holds no per-call state.

    ``parser.leaves`` maps the words that name each leaf command, such as
    ``("polytope",)`` or ``("case", "phi")``, to the parser of that leaf.
    """
    parser = _Parser(prog="vanishlab",
                     description="Exact checks for vanishing of powers of "
                                 "constant-coefficient differential operators.")
    parser.leaves = {}
    sub = parser.add_subparsers(dest="command", required=True)

    def leaf(group, *words, **kwargs):
        p = parser.leaves[words] = group.add_parser(words[-1], **kwargs)
        return p

    def common(p, vars_default=None, precision=False, horizon=True):
        if vars_default is not None:
            p.add_argument("--vars", default=vars_default,
                           help="comma-separated ordered variable names")
        if horizon:
            p.add_argument("-M", "--horizon", type=int, default=None,
                           help="horizon (default: VANISHLAB_HORIZON, else 8)")
        if precision:
            p.add_argument("-D", "--precision", type=int, default=12)
        p.add_argument("--format", choices=[TEXT, STRUCTURED], default=TEXT)

    p = leaf(sub, "vanish", help="per-m vanishing profile")
    common(p, vars_default="x,y")
    p.add_argument("--op", required=True, help="operator, e.g. 'dx*dy'")
    p.add_argument("--p", required=True, help="polynomial P ('-' reads stdin)")
    p.add_argument("--g", help="multiplier g (default 1)")
    p.set_defaults(func=cmd_vanish)

    p = leaf(sub, "polytope", help="orthant queries on a V-rep polytope")
    common(p, horizon=False)
    p.add_argument("--sigma", required=True, help="generators, e.g. '(-2,1);(1,-2)'")
    p.add_argument("--beta", help="translation point for the move-away bound")
    p.add_argument("--point", help="membership query point")
    p.set_defaults(func=cmd_polytope)

    p = leaf(sub, "density", help="ray search through supports of powers")
    common(p, vars_default="x,y")
    p.add_argument("--p", required=True)
    p.add_argument("--u", required=True, help="rational point, e.g. '(1/2,1/2)'")
    p.add_argument("--homogeneous", action="store_true")
    p.set_defaults(func=cmd_density)

    p = leaf(sub, "dk", help="constant-term scan against Poly(f)")
    common(p, vars_default="x,y")
    p.add_argument("--f", required=True)
    p.set_defaults(func=cmd_dk)

    p = sub.add_parser("case", help="proved-case checkers")
    which = p.add_subparsers(dest="which", required=True)
    for name in ("one-var", "phi", "monomial", "two-monomial"):
        q = leaf(which, "case", name)
        common(q, vars_default="x" if name == "one-var" else "x,y")
        if name == "phi":
            q.add_argument("--phi", required=True, help="Phi as an operator in d<y>")
            q.add_argument("--f", required=True, help="polynomial in the second variable")
        else:
            q.add_argument("--op", required=True)
            q.add_argument("--p", required=True)
        q.add_argument("--g")
        q.set_defaults(func=cmd_case, which=name)

    p = sub.add_parser("counterexample", help="series-scale counterexamples")
    which = p.add_subparsers(dest="which", required=True)
    for name in ("ddv", "dk"):
        q = leaf(which, "counterexample", name)
        common(q, precision=True)
        q.set_defaults(func=cmd_counterexample, which=name)

    return parser


def _parse_plain(leaf, words):
    """The namespace ``leaf.parse_args(words)`` gives when every word is a
    plain spelling of one of the leaf's options; None for any other words.

    The plain spellings are ``--opt=value``, ``--opt value`` and ``-M value``
    where the value word does not start with ``-``, and a store-true flag
    with no ``=``.  A value is converted by the action's ``type`` and checked
    against its ``choices``, the last value of a repeated option wins, and
    the given values overlay a copy of ``leaf.blank``.  A conversion or
    choice failure, a missing required option, an explicit value ``--``
    (which argparse versions read differently) and every other word give
    None, and the full parser then parses the request or reports the error.
    """
    options = leaf.options
    given = {}
    words = iter(words)
    try:
        for word in words:
            action = options.get(word)
            if action is None:
                option, eq, text = word.partition("=")
                action = options.get(option) if eq and option[:2] == "--" else None
                if action is None or action.nargs == 0 or text == "--":
                    return None
            elif action.nargs == 0:
                given[action] = action.const
                continue
            else:
                text = next(words, "-")
                if text[:1] == "-":
                    return None
            value = text if action.type is None else action.type(text)
            if action.choices is not None and value not in action.choices:
                return None
            given[action] = value
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        # the errors argparse turns into "invalid <type> value"
        return None
    if not leaf.required <= given.keys():
        return None
    args = argparse.Namespace()
    fields = vars(args)
    fields.update(leaf.blank)  # a copy: main sets args.horizon on it
    for action, value in given.items():
        fields[action.dest] = value
    return args


def parse_request(argv):
    """The namespace of one request's words.

    Words that begin with a leaf command's name (one word, or two for
    ``case`` and ``counterexample``) and go on in plain spellings are read
    from that leaf's option table by `_parse_plain`, which gives the full
    parser's namespace less ``command``.  Every other request goes to the
    full parser, which gives its namespace or prints the help or the error.
    """
    parser = build_parser()
    for size in (1, 2):
        leaf = parser.leaves.get(tuple(argv[:size]))
        args = None if leaf is None else _parse_plain(leaf, argv[size:])
        if args is not None:
            return args
    return parser.parse_args(argv)


def main(argv=None):
    """Serve one request, ``sys.argv[1:]`` when argv is None; the exit code."""
    args = parse_request(sys.argv[1:] if argv is None else list(argv))
    out = Emitter(args.format)
    # exact numbers have any length: lift CPython's limit on int <-> str
    # conversion (3.11+, 3.10.7+) while the request is served, and restore it
    # for a caller in the same process
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if "horizon" in args and args.horizon is None:
            args.horizon = _default_horizon()
        return args.func(args, out)
    except ValueError as exc:  # ParseError is a ValueError
        print(f"vanishlab: error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        # a request too large to compute is undecided, not a failed hypothesis
        print("vanishlab: inconclusive: out of memory", file=sys.stderr)
        return 2
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
