"""The package depends on numpy and the standard library only."""

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
