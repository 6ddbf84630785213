"""Every name a module of the package imports is used in that module,
the package exports every public name it imports, and the console
module loads no more of the standard library, and compiles no more
patterns, than it needs."""

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


def test_the_package_exports_what_it_imports():
    # `from sheetlint import *` fails on a name __all__ lists that the
    # package does not bind, and drops a name it binds that __all__
    # leaves out; so the two lists must name the same things.
    namespace: dict = {}
    exec("from sheetlint import *", namespace)
    assert [name for name in sheetlint.__all__ if name not in namespace] == []
    tree = ast.parse(pathlib.Path(sheetlint.__file__).read_text(encoding="utf-8"))
    public = [name for name in imported_names(tree) if not name.startswith("_")]
    assert [name for name in public if name not in sheetlint.__all__] == []


def _after_import(code: str) -> str:
    """Stdout of CODE run in a fresh interpreter that finds the package."""
    src = pathlib.Path(sheetlint.__file__).parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    return proc.stdout


def test_console_module_loads_no_hashlib_or_json():
    # hashlib loads OpenSSL and the json package its decoder and
    # scanner; every console run would pay for them on start.  The
    # interpreter's own hash and escaper modules are enough.
    code = (
        "import sys; before = set(sys.modules); import sheetlint.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    loaded = set(_after_import(code).split())
    assert "sheetlint.report" in loaded
    assert loaded & {"hashlib", "_hashlib", "json", "json.decoder", "json.scanner"} == set()


def test_console_module_compiles_only_the_patterns_every_command_needs():
    # A pattern takes about half a millisecond to compile, and every
    # console run pays for those compiled at import: the address, the
    # formula token and the .sheet line.  The .intervals line waits for
    # the first spec read, and the patterns that only name an error for
    # the first line that has one.
    code = (
        "import re, sys\n"
        "compiled = []\n"
        "compile = re.compile\n"
        "def counting(pattern, flags=0):\n"
        "    compiled.append(sys._getframe(1).f_globals['__name__'])\n"
        "    return compile(pattern, flags)\n"
        "re.compile = counting\n"
        "import sheetlint.cli\n"
        "print(*sorted(name for name in compiled if name.startswith('sheetlint')))\n"
    )
    assert _after_import(code).split() == ["sheetlint.model", "sheetlint.scl", "sheetlint.scl"]
