"""Every name a module of the package imports is used in that module,
and the console module loads no more of the standard library than it
needs."""

import ast
import os
import pathlib
import subprocess
import sys

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


def test_console_module_loads_no_hashlib_or_json():
    # hashlib loads OpenSSL and the json package its decoder and
    # scanner; every console run would pay for them on start.  The
    # interpreter's own hash and escaper modules are enough.
    code = (
        "import sys; before = set(sys.modules); import sheetlint.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    src = pathlib.Path(sheetlint.__file__).parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    loaded = set(proc.stdout.split())
    assert "sheetlint.report" in loaded
    assert loaded & {"hashlib", "_hashlib", "json", "json.decoder", "json.scanner"} == set()
