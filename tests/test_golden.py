"""CLI output on every input sheet, compared byte for byte with recordings.

The inputs are the sheets in ``fixtures/`` and, in ``tests/shapes/``,
small copies of the benchmark's three shapes, written at seed 301 by
``perfbench/gen.py``'s ``generate(shape, 301, size)`` with sizes 24
(``ledger``), 40 (``running``) and 12 (``blocks``).  The copies in
``blocks`` (``D2 = =C12``, ``D3 = =C23``, ...) read subtotals below
them, so its evaluation order comes from the dependency graph's heap
sort, not from row-major order; ``cyclic.sheet`` is the only other
input that takes that sort.

Each case runs one command through ``cli.main`` from the repository
root, so the paths printed in reports are the relative ones recorded.
Stdout lives in ``tests/golden/<case>.out``; exit codes live in
``tests/golden/exit_codes.json``.  After an intended output change,
rerun the recording with ``PYTHONPATH=src python tests/test_golden.py``
and review the diff.
"""

import contextlib
import io
import json
import os
import pathlib
import sys

import pytest

from sheetlint.cli import main

HERE = pathlib.Path(__file__).parent
ROOT = HERE.parent
GOLDEN = HERE / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"


def cases():
    """(case name, argv) for every input sheet, command and format."""
    sheets = sorted((ROOT / "fixtures").glob("*.sheet"))
    sheets += sorted((HERE / "shapes").glob("*.sheet"))
    for sheet in sheets:
        rel = sheet.relative_to(ROOT).as_posix()
        for fmt in ("text", "json"):
            yield f"{sheet.stem}.check.{fmt}", ["check", rel, "--format", fmt]
            yield f"{sheet.stem}.graph.{fmt}", ["graph", rel, "--format", fmt]
            yield f"{sheet.stem}.areas.{fmt}", ["areas", rel, "--format", fmt]
        yield f"{sheet.stem}.graph.area", ["graph", rel, "--resolution", "area"]
        spec = sheet.with_suffix(".intervals")
        if spec.exists():
            for fmt in ("text", "json"):
                yield f"{sheet.stem}.test.{fmt}", [
                    "test", rel, spec.relative_to(ROOT).as_posix(), "--format", fmt,
                ]


CASES = list(cases())


def run_case(argv):
    """Exit code and stdout bytes of one in-process CLI run at ROOT."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue().encode("utf-8")


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_cli_output_matches_recording(name, argv):
    code, stdout = run_case(argv)
    assert stdout == (GOLDEN / f"{name}.out").read_bytes()
    assert code == json.loads(EXIT_CODES.read_text())[name]


def record():
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in CASES:
        codes[name], stdout = run_case(argv)
        (GOLDEN / f"{name}.out").write_bytes(stdout)
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
    sys.exit(0)
