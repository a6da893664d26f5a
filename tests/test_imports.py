"""The package depends on numpy and the standard library only, and
imports at module level."""

import ast
import sys
from pathlib import Path

import pytest

import cacconv

MODULES = sorted(Path(cacconv.__file__).parent.rglob("*.py"))


def imported_names(path: Path) -> list:
    """Top-level name of every absolute import in ``path``; a
    package-relative import (``from .x import y``) is left out."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_imports_only_numpy_and_the_standard_library(path):
    outside = sorted({name for name in imported_names(path)
                      if name != "numpy" and name not in sys.stdlib_module_names})
    assert not outside, f"{path.name} imports {outside}"


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_imports_only_at_module_level(path):
    # A deferred import is how a cycle between two modules stays hidden.
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    top = {id(node) for node in tree.body}
    nested = [node.lineno for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top]
    assert not nested, f"{path.name} imports below module level on lines {nested}"
