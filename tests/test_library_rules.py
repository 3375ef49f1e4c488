"""Rules every module of the library keeps."""
import ast
from pathlib import Path

import vanishlab


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


# methods that no library code names, because they are called from outside it
CALLED_FROM_OUTSIDE = {
    # argparse calls it on every usage error
    "cli.py:_Parser.error",
    # the public way to re-check a certificate that a caller holds
    "polytopes.py:SeparationCertificate.verify",
}


def test_every_module_function_has_a_library_reference():
    # the module-level twin of the rule above, which also holds for the
    # methods and properties of every class (bar the dunder methods that
    # Python calls): a function that no library code names serves only the
    # tests, and belongs in a test oracle module
    defined, named = [], set()
    for name, node in library_nodes():
        if isinstance(node, ast.Module):
            defined += [(name, f.name) for f in node.body if isinstance(f, ast.FunctionDef)]
            defined += [(name, f"{c.name}.{f.name}") for c in node.body
                        if isinstance(c, ast.ClassDef) for f in c.body
                        if isinstance(f, ast.FunctionDef) and not f.name.startswith("__")]
        elif name != "__init__.py":
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    unnamed = {f"{name}:{function}" for name, function in defined
               if function.rpartition(".")[2] not in named}
    assert sorted(unnamed - CALLED_FROM_OUTSIDE) == []
    # an entry that the library names again, or that is gone, leaves the list
    assert CALLED_FROM_OUTSIDE <= unnamed


def test_only_poly_reads_terms():
    # ``terms`` builds a Fraction for every coefficient on each read: the
    # library reads the integer storage ``nums``/``den`` instead
    reads = [f"{name}:{node.lineno}" for name, node in library_nodes()
             if name != "poly.py" and isinstance(node, ast.Attribute) and node.attr == "terms"]
    assert reads == []


def test_no_library_reads_generators():
    # ``RationalPolytope.generators`` builds a Fraction for every coordinate
    # on each read: the library reads the integer storage ``nums``/``den``
    reads = [f"{name}:{node.lineno}" for name, node in library_nodes()
             if isinstance(node, ast.Attribute) and node.attr == "generators"]
    assert reads == []


# the packed-key layout of LaurentPoly.nums and the helpers that know it
PACKING = {"_Layout", "_layout", "_width", "_pack_all", "_unpack_all", "_slots", "_from_keys",
           "_at", "layout", "reach"}


def test_only_poly_and_diffops_touch_packed_keys():
    # LaurentPoly.nums is keyed by packed exponent ints, whose layout only
    # poly.py and diffops.py know; every other module reads exponent tuples
    # through the views (exponents, integer_items, is_holomorphic, coeff,
    # ...).  polytopes.py reads the integer rows of its own RationalPolytope,
    # which are also named ``nums``, through ``self``, ``polytope``, ``a``
    # and ``b``
    polytope_names = {"self", "polytope", "a", "b"}
    touches = []
    for name, node in library_nodes():
        if name in ("poly.py", "diffops.py"):
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
