"""Source checks that need no CI runner."""

import ast
from pathlib import Path

import tightmaps


def test_no_assert_statements_in_the_package():
    # ``python -O`` strips asserts, so exactness checks must raise explicitly
    found = []
    for path in sorted(Path(tightmaps.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert found == []


def test_submodule_import_yields_the_module():
    import tightmaps.classify as module

    assert module.__name__ == "tightmaps.classify"
