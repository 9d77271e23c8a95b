"""The package runs on the standard library and numpy alone."""

import ast
import pathlib
import sys

import auroracast

ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def _imported_top_names(path: pathlib.Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_imports_only_stdlib_and_numpy():
    sources = sorted(pathlib.Path(auroracast.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    found = {name: path.name for path in sources for name in _imported_top_names(path)}
    assert "numpy" in found
    assert {name: where for name, where in found.items() if name not in ALLOWED} == {}
