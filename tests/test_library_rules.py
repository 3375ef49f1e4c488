"""Rules every module of the library keeps."""
import ast
from pathlib import Path

import vanishlab


def test_library_has_no_assert():
    # python -O strips assert statements: a check the library relies on
    # must raise an exception instead
    paths = sorted(Path(vanishlab.__file__).parent.glob("*.py"))
    assert paths
    asserts = [f"{path.name}:{node.lineno}"
               for path in paths
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.Assert)]
    assert asserts == []
