"""Rules every module of the library keeps."""
import ast
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from golden_corpus import CORPUS

import vanishlab
from vanishlab import cli
from vanishlab.cases import CaseVerdict, CounterexampleReport
from vanishlab.density import ConstantTermReport, RaySearchReport
from vanishlab.diffops import ProfileEntry, VanishingProfile
from vanishlab.poly import LaurentPoly
from vanishlab.polytopes import SeparationCertificate, Witness


def library_nodes():
    """``(file name, node)`` for every AST node of every library module."""
    paths = sorted(Path(vanishlab.__file__).parent.glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path.name, node


def test_library_has_no_assert():
    # python -O strips assert statements: a check the library relies on
    # must raise an exception instead
    asserts = [f"{name}:{node.lineno}" for name, node in library_nodes()
               if isinstance(node, ast.Assert)]
    assert asserts == []


def test_library_has_no_float():
    # every number is an int or a Fraction: no float literal, no float() call,
    # no float sentinel such as float("inf")
    floats = [f"{name}:{node.lineno}" for name, node in library_nodes()
              if isinstance(node, ast.Constant) and isinstance(node.value, float)
              or isinstance(node, ast.Name) and node.id == "float"]
    assert floats == []


def test_every_exported_name_has_a_library_caller():
    # a name exported only for the tests belongs in a test oracle module
    imported = {alias.name for name, node in library_nodes()
                if name != "__init__.py" and isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert sorted(set(vanishlab.__all__) - imported) == []


def test_only_poly_reads_terms():
    # ``terms`` builds a Fraction for every coefficient on each read: the
    # library reads the integer storage ``nums``/``den`` instead
    reads = [f"{name}:{node.lineno}" for name, node in library_nodes()
             if name != "poly.py" and isinstance(node, ast.Attribute) and node.attr == "terms"]
    assert reads == []


# the packed-key layout of LaurentPoly.nums and the helpers that know it
PACKING = {"_Layout", "_layout", "_width", "_pack_all", "_unpack_all", "_slots", "_from_keys",
           "_at", "layout", "reach"}


def test_only_poly_touches_packed_keys():
    # LaurentPoly.nums is keyed by packed exponent ints, whose layout only
    # poly.py knows; every other module reads exponent tuples through the
    # views (exponents, integer_items, is_holomorphic, coeff, ...) and
    # applies operators through poly's kernels.  polytopes.py reads the
    # integer rows of its own RationalPolytope, which are also named
    # ``nums``, through ``self``, ``polytope``, ``a`` and ``b``
    polytope_names = {"self", "polytope", "a", "b"}
    touches = []
    for name, node in library_nodes():
        if name == "poly.py":
            continue
        if isinstance(node, ast.Attribute):
            polytope_rows = (name == "polytopes.py" and isinstance(node.value, ast.Name)
                             and node.value.id in polytope_names)
            hit = node.attr in PACKING or node.attr == "nums" and not polytope_rows
        else:
            hit = (isinstance(node, ast.Name) and node.id in PACKING
                   or isinstance(node, ast.alias) and node.name in PACKING)
        if hit:
            touches.append(f"{name}:{getattr(node, 'lineno', '?')}")
    assert touches == []


def test_simplex_builds_no_fraction():
    # the simplex pivots integer rows and answers in integers: the callers
    # build a Fraction only for an answer they return
    calls = [f"{name}:{node.lineno}" for name, node in library_nodes()
             if name == "simplex.py" and isinstance(node, ast.Call)
             and (isinstance(node.func, ast.Name) and node.func.id == "Fraction"
                  or isinstance(node.func, ast.Attribute) and node.func.attr == "Fraction")]
    assert calls == []


def test_case_verdicts_come_from_the_shared_step():
    # each case checker is validation, its own proof step, then
    # cases._verdict, so a new proof enters through that one step.  The flow
    # case's P = 0 verdict, which has no profile, is the one exception;
    # relabelling a built verdict with _replace is not a construction
    module = next(node for name, node in library_nodes()
                  if name == "cases.py" and isinstance(node, ast.Module))

    def builds(node):  # CaseVerdict(...), CaseVerdict._make(...), ...
        return isinstance(node, ast.Call) and "CaseVerdict" in ast.unparse(node.func)

    builders = [f.name for f in module.body if isinstance(f, ast.FunctionDef)
                for node in ast.walk(f) if builds(node)]
    assert builders == ["_verdict", "phi_case_check"]
    assert sum(map(builds, ast.walk(module))) == len(builders)


def _fresh_python(code, *args):
    """The stdout of ``code`` run with ``args`` in a fresh interpreter that
    imports the package from this source tree, with no VANISHLAB_HORIZON."""
    src = str(Path(vanishlab.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("VANISHLAB_HORIZON", None)
    run = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    return run.stdout


def library_functions():
    """``{(file name, first line, name): qualified name}`` for every function
    and method of the library, nested ones too, bar the dunder methods that
    Python calls.  The first line is that of the first decorator, as in a
    code object's ``co_firstlineno``."""
    found = {}

    def visit(name, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(name, child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.FunctionDef):
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[name, line, child.name] = f"{name}:{prefix}{child.name}"
                visit(name, child, f"{prefix}{child.name}.")
            else:
                visit(name, child, prefix)

    for name, node in library_nodes():
        if isinstance(node, ast.Module):
            visit(name, node, "")
    return found


# requests that no corpus entry can be, since the corpus records valid
# requests only: each one reaches an error path, and exits 3
MALFORMED = [
    # argparse's usage error
    ["polytope", "--sigma=(-1,0)", "--bogus"],
    # a factor of the polynomial text that does not match
    ["vanish", "--op=dx", "--p=x + 2/"],
]

# the library functions that no request enters, each with its reason
NOT_ENTERED = {
    # the default variable names of to_string, reached from __repr__ and
    # __str__, and from _verdict's residual text past a proved bound, which
    # no valid request reaches
    "poly.py:_default_names",
}

# replays each request of argv[1] through cli.main under sys.setprofile and
# prints the exit codes and the library functions entered
REPLAY = """\
import contextlib, io, json, os, sys
import vanishlab
root = os.path.dirname(vanishlab.__file__)
entered = set()

def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and os.path.dirname(code.co_filename) == root:
        entered.add((os.path.basename(code.co_filename), code.co_firstlineno, code.co_name))

codes = []
sys.setprofile(profile)
from vanishlab import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
sys.setprofile(None)
print(json.dumps([codes, sorted(entered)]))
"""


def test_every_library_function_is_entered_by_a_request():
    # the golden corpus is the contract of what the library does: every
    # function is entered by some corpus request or by one of the malformed
    # requests, so code that no request reaches fails here instead of
    # lingering.  An allowlist entry that a request does enter, or that is
    # gone, leaves the list
    entries = json.loads(CORPUS.read_text())
    argvs = [e["argv"] for e in entries] + MALFORMED
    codes, entered = json.loads(_fresh_python(REPLAY, json.dumps(argvs)))
    assert codes == [e["exit"] for e in entries] + [3] * len(MALFORMED)
    functions = library_functions()
    missed = {functions[key] for key in set(functions) - set(map(tuple, entered))}
    assert sorted(missed - NOT_ENTERED) == []
    assert sorted(NOT_ENTERED - missed) == []


def test_every_leaf_option_is_given_by_a_corpus_request():
    # the CLI twin of the rule above: every option of every leaf command is
    # given, in any of its spellings, by some corpus request
    parser = cli.build_parser()
    given = set()
    for entry in json.loads(CORPUS.read_text()):
        argv = entry["argv"]
        options = parser.leaves[_leaf(argv)].options
        given |= {options.get(word, options.get(word.partition("=")[0]))
                  for word in argv[len(_leaf(argv)):]}
    missing = [f"{' '.join(words)} {'/'.join(action.option_strings)}"
               for words, leaf in parser.leaves.items()
               for action in dict.fromkeys(leaf.options.values()) if action not in given]
    assert missing == []


def test_import_loads_no_dataclasses_or_inspect():
    # a CLI run starts by importing the package and building the parser:
    # the records are NamedTuples, so neither dataclasses nor the inspect
    # tree it pulls in (ast, dis, tokenize, ...) is loaded, which keeps
    # about 1 MB off every run's peak RSS.  A module that the interpreter
    # already holds at start-up (a site hook's import) is not the package's
    code = ("import sys\n"
            "heavy = {'dataclasses', 'inspect'} - set(sys.modules)\n"
            "import vanishlab, vanishlab.cli\n"
            "vanishlab.cli.build_parser()\n"
            "print(' '.join(sorted(heavy & set(sys.modules))))")
    assert _fresh_python(code).split() == []


MODULES = sorted(path.stem for path in Path(vanishlab.__file__).parent.glob("*.py")
                 if path.stem != "__init__")

# the library modules that serving one request of each leaf command loads,
# besides the package itself
FOOTPRINT = {
    ("polytope",): {"cli", "parsing", "polytopes", "simplex"},
    ("vanish",): {"cli", "parsing", "diffops", "poly"},
    ("density",): {"cli", "parsing", "density", "diffops", "poly", "polytopes", "simplex"},
    ("dk",): {"cli", "parsing", "density", "diffops", "poly", "polytopes", "simplex"},
    **{("case", which): {"cli", "parsing", "cases", "diffops", "poly", "polytopes", "simplex"}
       for which in ("one-var", "phi", "monomial", "two-monomial")},
    **{("counterexample", which): {"cli", "cases", "diffops", "poly", "polytopes", "simplex"}
       for which in ("ddv", "dk")},
}


def _leaf(argv):
    return tuple(argv[:2]) if argv[0] in ("case", "counterexample") else tuple(argv[:1])


@pytest.mark.parametrize("leaf", sorted(FOOTPRINT), ids=" ".join)
def test_request_loads_only_its_modules(leaf):
    # with no bytecode cache every module a run imports is compiled from
    # source, which costs a small request more than its own work: a request
    # loads only the modules its subcommand runs.  It is the first golden
    # corpus request of its leaf, and its output is checked too
    entry = next(e for e in json.loads(CORPUS.read_text()) if _leaf(e["argv"]) == leaf)
    code = ("import contextlib, io, json, sys\n"
            "from vanishlab import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "    code = cli.main(json.loads(sys.argv[1]))\n"
            "print(json.dumps([code, out.getvalue(), sorted(\n"
            "    m for m in sys.modules if m == 'vanishlab' or m.startswith('vanishlab.'))]))")
    code, stdout, loaded = json.loads(_fresh_python(code, json.dumps(entry["argv"])))
    assert (code, stdout) == (entry["exit"], entry["stdout"])
    assert loaded == sorted({"vanishlab"} | {f"vanishlab.{m}" for m in FOOTPRINT[leaf]})


def test_bare_import_resolves_every_name():
    # ``import vanishlab`` loads no module of the library, and still gives
    # every exported name and every module as an attribute
    code = ("import json, sys\n"
            "import vanishlab\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('vanishlab.'))\n"
            "names = {n: getattr(vanishlab, n).__module__ for n in vanishlab.__all__}\n"
            "modules = {m: getattr(vanishlab, m).__name__ for m in json.loads(sys.argv[1])}\n"
            "print(json.dumps([loaded, names, modules, dir(vanishlab)]))")
    loaded, names, modules, listed = json.loads(_fresh_python(code, json.dumps(MODULES)))
    assert loaded == []
    assert sorted(names) == sorted(vanishlab.__all__)
    assert all(getattr(sys.modules[module], name) is getattr(vanishlab, name)
               for name, module in names.items())
    assert modules == {m: f"vanishlab.{m}" for m in MODULES}
    assert set(vanishlab.__all__) <= set(listed)
    with pytest.raises(AttributeError):
        vanishlab.no_such_name


# each result record with a value for every field, in field order
RECORDS = [
    (ProfileEntry, dict(m=2, pp_zero=True, ppg_zero=False, pp_residual=None,
                        ppg_residual=LaurentPoly(2, {(1, 0): 3}))),
    (VanishingProfile, dict(horizon=1, entries=(ProfileEntry(1, True, True),))),
    (CaseVerdict, dict(case="monomial", checks=(("P monomial", True),), bound=Fraction(3, 2),
                       verified=(2, 3), residuals={4: "x"}, anomalies=(), notes=("n",))),
    (CounterexampleReport, dict(name="ddv", horizon=1, precision=3,
                                rows=((1, (("L^m(P^m) = 0", True),)),))),
    (RaySearchReport, dict(u=(Fraction(1, 2), Fraction(1)), horizon=2, hits=((2, (1, 2)),),
                           verdict="found")),
    (ConstantTermReport, dict(horizon=2, constant_terms=(Fraction(0), Fraction(1)),
                              first_nonzero=2, zero_in_polytope=True,
                              verdict="hypothesis-fails")),
    (Witness, dict(point=(Fraction(2, 3), Fraction(0)), weights=((1, 2), 3))),
    (SeparationCertificate, dict(c=(Fraction(1), Fraction(0)), delta=Fraction(1, 2))),
]


def _hashable(value):
    try:
        hash(value)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_contract(cls, fields):
    # the result records are immutable values with a readable repr
    record = cls(**fields)
    first = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, first, fields[first])
    twin = cls(**fields)
    assert twin == record
    if all(map(_hashable, fields.values())):
        assert hash(twin) == hash(record)
    assert repr(record) == (f"{cls.__name__}("
                            + ", ".join(f"{k}={v!r}" for k, v in fields.items()) + ")")
    if cls is CaseVerdict:
        # the default residuals are one read-only empty mapping: a write
        # fails, so nothing can leak from one verdict into another
        bare, other = CaseVerdict("phi"), CaseVerdict("monomial")
        assert len(bare.residuals) == 0
        with pytest.raises(TypeError):
            bare.residuals[1] = "leak"
        assert len(other.residuals) == 0
