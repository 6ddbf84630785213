"""Every name a module of the package imports is used in that module."""

import ast
import pathlib

import pytest

import sheetlint

MODULES = sorted(
    path for path in pathlib.Path(sheetlint.__file__).parent.glob("*.py")
    if path.name != "__init__.py"
)


def imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names += [alias.asname or alias.name for alias in node.names]
    return [name for name in names if name != "annotations"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name in imported_names(tree) if name not in used] == []
