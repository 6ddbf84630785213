"""Command line behavior: arguments, exit codes, output channels."""

import contextlib
import cProfile
import gc
import io
import json
import os
import pathlib
import re
import shlex
import shutil
import string
import subprocess
import sys
import tracemalloc
import types
from collections import Counter

import jsonschema
import pytest

import corpus
from sheetlint.areas import (
    copy_keys,
    infer_logical_areas,
    infer_physical_areas,
    skeletons,
    structural_groups,
)
from sheetlint import cli, report
from sheetlint.cli import main
from sheetlint.dataflow import DependencyGraph, formula_reads
from sheetlint.evaluator import _evaluate
from sheetlint.model import cell_index, strip_comment
from sheetlint.scl import (
    RangeRef,
    column_number,
    copy_key,
    format_number,
    parse_address,
    skeleton,
)

HERE = pathlib.Path(__file__).parent
FIXTURES = HERE.parent / "fixtures"
SCHEMA = json.loads((HERE.parent / "schema" / "report-v1.json").read_text())

QUARTERLY = str(FIXTURES / "quarterly_sums.sheet")
QUARTERLY_IV = str(FIXTURES / "quarterly_sums.intervals")
BUDGET = str(FIXTURES / "quarterly_budget.sheet")
BUDGET_IV = str(FIXTURES / "quarterly_budget.intervals")
APPENDED = str(FIXTURES / "sales_appended.sheet")
APPENDED_IV = str(FIXTURES / "sales_appended.intervals")
CLEAN = str(FIXTURES / "subtotals_two_column.sheet")
RUNNING = str(FIXTURES / "running_totals.sheet")
CYCLIC = str(FIXTURES / "cyclic.sheet")


def console(argv, env=None, **kwargs):
    """``python -m sheetlint.cli ARGV`` in a child process.

    The child finds the package from the source tree, as this process
    does through pytest's pythonpath setting.
    """
    env = {**(os.environ if env is None else env), "PYTHONPATH": str(HERE.parent / "src")}
    return subprocess.run([sys.executable, "-m", "sheetlint.cli", *argv], env=env, **kwargs)


class TestExitCodes:
    def test_check_reports_findings_with_one(self, capsys):
        assert main(["check", QUARTERLY]) == 1
        out = capsys.readouterr().out
        assert "D1_BLANK_REF" in out
        assert "D2_WRONG_TYPE_IN_RANGE" in out

    def test_check_clean_sheet_exits_zero(self, capsys):
        assert main(["check", CLEAN]) == 0
        assert "0 warning(s), 0 error(s)" in capsys.readouterr().out

    def test_test_without_symptoms_exits_zero(self, capsys):
        assert main(["test", QUARTERLY, QUARTERLY_IV]) == 0
        assert "no_symptom" in capsys.readouterr().out

    def test_test_with_symptoms_exits_one(self, capsys):
        assert main(["test", APPENDED, APPENDED_IV]) == 1
        assert "value_outside" in capsys.readouterr().out

    def test_graph_and_areas_exit_zero(self, capsys):
        assert main(["graph", QUARTERLY]) == 0
        assert main(["areas", QUARTERLY]) == 0

    def test_missing_file_exits_two(self, capsys):
        assert main(["check", str(FIXTURES / "no_such.sheet")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("sheetlint: error:")

    def test_malformed_sheet_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.sheet"
        bad.write_text("A1 = #1\nwhat even is this\n")
        assert main(["check", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_bad_interval_spec_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.intervals"
        bad.write_text("expect B12 in [1, 0]\n")
        assert main(["test", QUARTERLY, str(bad)]) == 2
        assert capsys.readouterr().err.startswith("sheetlint: error:")

    def test_malformed_sheet_reported_before_malformed_spec(self, tmp_path, capsys):
        # The sheet is loaded before the spec is read: its error wins.
        sheet = tmp_path / "bad.sheet"
        sheet.write_text("A1 = #1\nwhat even is this\n")
        spec = tmp_path / "bad.intervals"
        spec.write_text("expect B12 in [1, 0]\n")
        assert main(["test", str(sheet), str(spec)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("sheetlint: error: line 2: ") and err.count("\n") == 1

    def test_test_help_lists_sheet_before_intervals(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["test", "--help"])
        assert stop.value.code == 0
        out = capsys.readouterr().out
        # Compared through the words, not the layout, which argparse
        # changes between Python versions.
        usage = " ".join(out.split("\n\n")[0].split())
        assert usage.endswith(" sheet intervals")
        assert out.index("program in .sheet format") < out.index("input ranges and expectations")


class TestNotUtf8:
    # Byte 0xe9 is "é" in Latin-1 and starts no valid UTF-8 sequence here.
    @pytest.mark.parametrize("command", ["check", "graph", "areas", "test"])
    def test_sheet(self, command, tmp_path, capsys):
        data = b'A1 = ?1\nA2 = "caf\xe9"\nA3 = =A1*2\n'
        sheet = tmp_path / "latin1.sheet"
        sheet.write_bytes(data)
        spec = tmp_path / "ok.intervals"
        spec.write_text("input A1 in [0, 2]\n")
        argv = [command, str(sheet)] + ([str(spec)] if command == "test" else [])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        offset = data.index(b"\xe9")
        assert captured.err == f"sheetlint: error: {sheet}: not UTF-8 text (byte {offset})\n"

    def test_intervals(self, tmp_path, capsys):
        sheet = tmp_path / "ok.sheet"
        sheet.write_text("A1 = ?1\nA2 = =A1*2\n")
        data = b"input A1 in [0, 2]\n; caf\xe9\nexpect A2 in [0, 4]\n"
        spec = tmp_path / "latin1.intervals"
        spec.write_bytes(data)
        assert main(["test", str(sheet), str(spec)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        offset = data.index(b"\xe9")
        assert captured.err == f"sheetlint: error: {spec}: not UTF-8 text (byte {offset})\n"


class TestByteOrderMark:
    """A UTF-8 byte-order mark is skipped; reported offsets stay the file's."""

    BOM = b"\xef\xbb\xbf"

    def test_files_with_a_mark_load(self, tmp_path, capsys):
        sheet = tmp_path / "bom.sheet"
        sheet.write_bytes(self.BOM + b"A1 = ?1\nA2 = =A1*2\n")
        spec = tmp_path / "bom.intervals"
        spec.write_bytes(self.BOM + b"input A1 in [0, 2]\nexpect A2 in [0, 4]\n")
        assert main(["test", str(sheet), str(spec)]) == 0
        captured = capsys.readouterr()
        assert "A2: no_symptom  d=2  E=[0, 4]  B=[0, 4]" in captured.out
        assert captured.err == ""

    @pytest.mark.parametrize("kind", ["sheet", "intervals"])
    def test_bad_byte_after_a_mark(self, kind, tmp_path, capsys):
        texts = {"sheet": b"A1 = ?1\nA2 = =A1*2\n", "intervals": b"input A1 in [0, 2]\n"}
        texts[kind] = self.BOM + (
            b'A1 = ?1\nA2 = "caf\xe9"\n' if kind == "sheet" else b"; caf\xe9\n"
        )
        paths = {}
        for name, data in texts.items():
            paths[name] = tmp_path / f"file.{name}"
            paths[name].write_bytes(data)
        assert main(["test", str(paths["sheet"]), str(paths["intervals"])]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        offset = texts[kind].index(b"\xe9")
        assert captured.err == (
            f"sheetlint: error: {paths[kind]}: not UTF-8 text (byte {offset})\n"
        )


class TestNonFiniteNumbers:
    def test_overflow_is_a_fault_not_a_crash(self, tmp_path, capsys):
        sheet = tmp_path / "big.sheet"
        sheet.write_text("A1 = ?1e308\nA2 = =A1*10-A1*10\nA3 = =A1*10\n")
        spec = tmp_path / "big.intervals"
        spec.write_text("expect A2 in [0, 0]\nexpect A3 in [0, 0]\n")
        assert main(["check", str(sheet)]) == 0
        assert main(["test", str(sheet), str(spec)]) == 1
        out, err = capsys.readouterr()
        assert "A2: both  d=fault(propagated)  E=[0, 0]  B=fault(propagated)" in out
        assert "A3: both  d=fault(overflow)  E=[0, 0]  B=fault(overflow)" in out
        assert err == ""
        assert main(["test", str(sheet), str(spec), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, SCHEMA)
        values = {row["cell"]: row["value"] for row in payload["interval_test"]["rows"]}
        assert values["A3"] == {"kind": "fault", "fault": "overflow"}

    @pytest.mark.parametrize(
        "sheet_text,spec_text",
        [
            ("A1 = ?1e400\nA2 = =A1-A1\n", None),
            ("A1 = #1\nA2 = =A1*1e400\n", None),
            ("A1 = ?1\nA2 = =A1-A1\n", "input A1 in [0, 1e400]\n"),
        ],
    )
    def test_non_finite_literal_exits_two(self, tmp_path, capsys, sheet_text, spec_text):
        sheet = tmp_path / "inf.sheet"
        sheet.write_text(sheet_text)
        if spec_text is None:
            argv = ["check", str(sheet)]
        else:
            spec = tmp_path / "inf.intervals"
            spec.write_text(spec_text)
            argv = ["test", str(sheet), str(spec)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("sheetlint: error: line ")
        assert "out of range" in err


class TestLongRows:
    """A row of more digits than Python reads into an int from a string
    (4300 by default) is a load error naming its line, in a formula, as
    a cell's own address and in an .intervals file."""

    ROW = "1" * 5000

    @pytest.mark.parametrize(
        "sheet_text,spec_text,message",
        [
            (
                f"A1 = #1\nB1 = =A1+A{ROW}\n",
                None,
                "line 2: cell B1: row number too long: 5000 digits (at offset 3)",
            ),
            (f"A1 = #1\nA{ROW} = #2\n", None, "line 2: row number too long: 5000 digits"),
            (
                "A1 = ?1\nB1 = =A1\n",
                f"input A1 in [0, 1]\nexpect B{ROW} in [0, 1]\n",
                "line 2: row number too long: 5000 digits",
            ),
        ],
        ids=["formula", "cell", "intervals"],
    )
    def test_exits_two_naming_the_line(self, tmp_path, capsys, sheet_text, spec_text, message):
        sheet = tmp_path / "long.sheet"
        sheet.write_text(sheet_text)
        if spec_text is None:
            argv = ["check", str(sheet)]
        else:
            spec = tmp_path / "long.intervals"
            spec.write_text(spec_text)
            argv = ["test", str(sheet), str(spec)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"sheetlint: error: {message}\n"


class TestCyclicPrograms:
    @pytest.fixture()
    def cyclic(self, tmp_path):
        path = tmp_path / "loop.sheet"
        path.write_text("A1 = =B1+1\nB1 = =A1+1\n")
        return str(path)

    def test_check_still_reports(self, cyclic, capsys):
        assert main(["check", cyclic]) == 1
        assert "G_CYCLE" in capsys.readouterr().out

    def test_test_cannot_run_and_exits_two(self, cyclic, tmp_path, capsys):
        spec = tmp_path / "loop.intervals"
        spec.write_text("expect A1 in [0, 1]\n")
        assert main(["test", cyclic, str(spec)]) == 2
        assert "cyclic dependency" in capsys.readouterr().err


def _dot_node(host, fill):
    return (
        f'  "{host}" [label="{host}\\n=<body>"'
        + (', style="filled", fillcolor="#cfe8ff"' if fill else "")
        + "];\n"
    )


_DOT_HEAD = 'digraph sheet {\n  node [shape=box, fontname="Helvetica"];\n  "A1" [label="A1\\n?1"];\n'


class TestDeepFormulas:
    """Formulas far deeper than the recursion limit analyse in full."""

    # Each shape: the formula cells, the formula they hold, and its
    # text where the output shows it.
    SHAPES = {
        "plus_chain": ("B1", "=" + "+".join(["A1"] * 3000), "+".join(["A1"] * 3000)),
        "parentheses": ("B1", "=" + "(" * 2000 + "A1" + ")" * 2000, "A1"),
        "copies_400": ("B1 C1", "=" + "+".join(["$A$1"] * 400), "+".join(["$A$1"] * 400)),
        "copies_3000": (
            "B1 C1 D1", "=" + "+".join(["$A$1"] * 3000), "+".join(["$A$1"] * 3000)
        ),
    }

    # (shape, command) -> exit code and stdout, with <sheet>, <spec>
    # and <body> standing for the paths and the formula text.
    EXPECTED = {
        # A chain that adds one cell over and over names no area.
        ("plus_chain", "check"): (0, "<sheet>: 2 cells\n0 warning(s), 0 error(s)\n"),
        ("plus_chain", "graph"): (
            0,
            _DOT_HEAD + _dot_node("B1", False) + '  "A1" -> "B1";\n}\n',
        ),
        ("plus_chain", "areas"): (0, "<sheet>: 0 physical area(s), 0 logical area(s)\n"),
        ("plus_chain", "test"): (
            0,
            "<sheet> against <spec>\n"
            "B1: not_judged  d=3000  B=[0, 6000]\n"
            "0 symptom(s) in 0 judged cell(s), 1 not judged\n",
        ),
        ("parentheses", "check"): (0, "<sheet>: 2 cells\n0 warning(s), 0 error(s)\n"),
        ("parentheses", "graph"): (
            0,
            _DOT_HEAD + '  "B1" [label="B1\\n=A1"];\n  "A1" -> "B1";\n}\n',
        ),
        ("parentheses", "areas"): (0, "<sheet>: 0 physical area(s), 0 logical area(s)\n"),
        ("parentheses", "test"): (
            0,
            "<sheet> against <spec>\n"
            "B1: not_judged  d=1  B=[0, 2]\n"
            "0 symptom(s) in 0 judged cell(s), 1 not judged\n",
        ),
        ("copies_400", "check"): (0, "<sheet>: 3 cells\n0 warning(s), 0 error(s)\n"),
        ("copies_400", "graph"): (
            0,
            _DOT_HEAD
            + _dot_node("B1", True)
            + _dot_node("C1", True)
            + '  "A1" -> "B1";\n  "A1" -> "C1";\n}\n',
        ),
        ("copies_400", "areas"): (
            0,
            "<sheet>: 0 physical area(s), 1 logical area(s)\n"
            "logical: 2 copies in B1:C1: B1 C1\n",
        ),
        ("copies_400", "test"): (
            0,
            "<sheet> against <spec>\n"
            "B1: not_judged  d=400  B=[0, 800]\n"
            "C1: not_judged  d=400  B=[0, 800]\n"
            "0 symptom(s) in 0 judged cell(s), 2 not judged\n",
        ),
        ("copies_3000", "check"): (0, "<sheet>: 4 cells\n0 warning(s), 0 error(s)\n"),
        ("copies_3000", "graph"): (
            0,
            _DOT_HEAD
            + _dot_node("B1", True)
            + _dot_node("C1", True)
            + _dot_node("D1", True)
            + '  "A1" -> "B1";\n  "A1" -> "C1";\n  "A1" -> "D1";\n}\n',
        ),
        ("copies_3000", "areas"): (
            0,
            "<sheet>: 0 physical area(s), 1 logical area(s)\n"
            "logical: 3 copies in B1:D1: B1 C1 D1\n",
        ),
        ("copies_3000", "test"): (
            0,
            "<sheet> against <spec>\n"
            "B1: not_judged  d=3000  B=[0, 6000]\n"
            "C1: not_judged  d=3000  B=[0, 6000]\n"
            "D1: not_judged  d=3000  B=[0, 6000]\n"
            "0 symptom(s) in 0 judged cell(s), 3 not judged\n",
        ),
    }

    @pytest.mark.parametrize("command", ["check", "graph", "areas", "test"])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_analyses_at_recursion_limit_200(
        self, shape, command, tmp_path, capsys, low_recursion_limit
    ):
        hosts, formula, body = self.SHAPES[shape]
        sheet = tmp_path / "deep.sheet"
        sheet.write_text("A1 = ?1\n" + "".join(f"{h} = {formula}\n" for h in hosts.split()))
        spec = tmp_path / "deep.intervals"
        spec.write_text("input A1 in [0, 2]\n")
        argv = [command, str(sheet)] + ([str(spec)] if command == "test" else [])
        code, stdout = self.EXPECTED[shape, command]
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == (
            stdout.replace("<sheet>", str(sheet))
            .replace("<spec>", str(spec))
            .replace("<body>", body)
        )

    # A 500-term chain, which the former recursive walkers could follow too.
    @pytest.mark.parametrize(
        "command, code", [("check", 0), ("graph", 0), ("areas", 0), ("test", 0)]
    )
    def test_five_hundred_terms_analyse(self, command, code, tmp_path, capsys):
        sheet = tmp_path / "deep.sheet"
        sheet.write_text("A1 = ?1\nB1 = =" + "+".join(["A1"] * 500) + "\n")
        spec = tmp_path / "deep.intervals"
        spec.write_text("input A1 in [0, 2]\n")
        argv = [command, str(sheet)] + ([str(spec)] if command == "test" else [])
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.err == ""
        if command == "check":
            assert captured.out.splitlines()[1:] == ["0 warning(s), 0 error(s)"]


class TestFarApartCopies:
    """A run of copies whose ends lie millions of rows apart is checked
    through the occupied cells, never address by address."""

    SHEET = "B1 = =A1+1\nB2 = =A2+1\nB5 = #7\nB3000000 = =A3000000+1\n"
    EXPECTED = {
        "check": (
            1,
            "<sheet>: 4 cells\n"
            "A1: warning D1_BLANK_REF: B1 reads empty cell A1\n"
            "A2: warning D1_BLANK_REF: B2 reads empty cell A2\n"
            "A3000000: warning D1_BLANK_REF: B3000000 reads empty cell A3000000\n"
            "B5: warning D5_CONSTANT_OVERWRITE: B5 holds a fixed number inside "
            "B1:B3000000, a run of 3 copies of one formula\n"
            "4 warning(s), 0 error(s)\n",
        ),
        "graph": (
            0,
            'digraph sheet {\n  node [shape=box, fontname="Helvetica"];\n'
            '  "A1" [label="A1\\n(empty)\\nD1_BLANK_REF", style="dashed", '
            'color="#cc2222", penwidth=2];\n'
            '  "B1" [label="B1\\n=A1+1", style="filled", fillcolor="#cfe8ff"];\n'
            '  "A2" [label="A2\\n(empty)\\nD1_BLANK_REF", style="dashed", '
            'color="#cc2222", penwidth=2];\n'
            '  "B2" [label="B2\\n=A2+1", style="filled", fillcolor="#cfe8ff"];\n'
            '  "B5" [label="B5\\n#7\\nD5_CONSTANT_OVERWRITE", color="#cc2222", '
            "penwidth=2];\n"
            '  "A3000000" [label="A3000000\\n(empty)\\nD1_BLANK_REF", style="dashed", '
            'color="#cc2222", penwidth=2];\n'
            '  "B3000000" [label="B3000000\\n=A3000000+1", style="filled", '
            'fillcolor="#cfe8ff"];\n'
            '  "A1" -> "B1";\n  "A2" -> "B2";\n  "A3000000" -> "B3000000";\n}\n',
        ),
    }

    @pytest.mark.parametrize("command", sorted(EXPECTED))
    def test_hull_is_not_walked(self, command, tmp_path, capsys, monkeypatch):
        def walked(rect):
            raise AssertionError(f"walked every address of {rect}")

        monkeypatch.setattr(RangeRef, "cells", walked)
        sheet = tmp_path / "far.sheet"
        sheet.write_text(self.SHEET)
        code, stdout = self.EXPECTED[command]
        assert main([command, str(sheet)]) == code
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == stdout.replace("<sheet>", str(sheet))


class TestSparseRanges:
    """Huge ranges around few cells are read through the occupied cells
    and the empty runs between them, never address by address: each
    command runs with ``RangeRef.cells`` patched to raise, and prints a
    few lines per cell and per column of each range argument, since an
    empty run is one column's worth of empty cells."""

    SHEETS = {
        # A range of 10**8 addresses around two cells.
        "huge": (
            'A5 = #1\nA7 = "x"\nB1 = =SUM(A1:A99999999)\n',
            "expect B1 in [5, 6]\n",
            3 + 1,
        ),
        # Two formulas over the same 2.6 million addresses.
        "wide": (
            "C3 = #2\nAA1 = =SUM(A1:Z100000)\nAB1 = =SUM(A1:Z100000)\n",
            "expect AA1 in [3, 4]\n",
            3 + 26 + 26,
        ),
        # Copies whose hull spans three million rows.
        "far": (TestFarApartCopies.SHEET, "expect B3000000 in [5, 6]\n", 4),
    }
    LINES_PER_UNIT = 5
    PINNED = {
        ("huge", "check"): [
            "A1:A4: warning D1_BLANK_REF: B1 reads empty cells A1:A4",
            "A6: warning D1_BLANK_REF: B1 reads empty cell A6",
            "A8:A99999999: warning D1_BLANK_REF: B1 reads empty cells A8:A99999999",
            "A7: warning D2_WRONG_TYPE_IN_RANGE: label at A7 lies inside SUM range "
            "A1:A99999999 of B1; a number typed there would silently join the aggregate",
        ],
        ("huge", "test"): [
            "B1: both  d=1  E=[5, 6]  B=[1, 1]  suspects: A1:A4 A5 A6 A7 A8:A99999999",
        ],
        ("huge", "graph"): [
            '    "A8:A99999999" [label="A8:A99999999\\n(empty)\\nD1_BLANK_REF", '
            'style="dashed", color="#cc2222", penwidth=2];',
            '  "A8:A99999999" -> "B1";',
        ],
        ("huge", "areas"): ["physical: SUM A1:A99999999 -> B1 (mostly constant)"],
        ("wide", "check"): [
            "C1:C2: warning D1_BLANK_REF: AA1 reads empty cells C1:C2",
            "C4:C100000: warning D1_BLANK_REF: AB1 reads empty cells C4:C100000",
        ],
        ("wide", "test"): [
            "AA1: both  d=2  E=[3, 4]  B=[2, 2]  suspects: "
            + " ".join(f"{c}1:{c}100000" if c != "C" else "C1:C2" for c in string.ascii_uppercase)
            + " C3 C4:C100000"
        ],
        ("far", "test"): ["B3000000: both  d=1  E=[5, 6]  B=[1, 1]  suspects: A3000000"],
    }

    @pytest.fixture(autouse=True)
    def no_range_walks(self, monkeypatch):
        def walked(rect):
            raise AssertionError(f"walked every address of {rect}")

        monkeypatch.setattr(RangeRef, "cells", walked)

    def write(self, tmp_path, name):
        sheet_text, spec_text, _ = self.SHEETS[name]
        sheet, spec = tmp_path / f"{name}.sheet", tmp_path / f"{name}.intervals"
        sheet.write_text(sheet_text)
        spec.write_text(spec_text)
        return str(sheet), str(spec)

    @pytest.mark.parametrize("command", ["check", "test", "graph", "areas"])
    @pytest.mark.parametrize("name", sorted(SHEETS))
    def test_output_follows_the_cells(self, name, command, tmp_path, capsys):
        sheet, spec = self.write(tmp_path, name)
        argv = [command, sheet] + ([spec] if command == "test" else [])
        assert main(argv) == (0 if command in ("graph", "areas") else 1)
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert len(lines) <= self.LINES_PER_UNIT * self.SHEETS[name][2]
        for line in self.PINNED.get((name, command), []):
            assert line in lines

    @pytest.mark.parametrize("command", ["check", "test"])
    @pytest.mark.parametrize("name", sorted(SHEETS))
    def test_runs_fit_the_schema(self, name, command, tmp_path, capsys):
        sheet, spec = self.write(tmp_path, name)
        argv = [command, sheet] + ([spec] if command == "test" else []) + ["--format", "json"]
        assert main(argv) == 1
        jsonschema.validate(json.loads(capsys.readouterr().out), SCHEMA)


# A reference as the formula grammar spells it: marker, letters,
# marker, digits.
REFERENCE = re.compile(r"(\$?)([A-Za-z]+)(\$?)([0-9]+)")


def copy_class_count(text: str) -> int:
    """How many copy classes the formulas of a .sheet text form: bodies
    that agree once each reference is spelled as its markers and its
    coordinates, a relative axis counted from the host cell."""
    spelled = set()
    for line in text.splitlines():
        addr_text, _, content = strip_comment(line).partition("=")
        content = content.strip()
        if content.startswith("="):
            host = parse_address(addr_text.strip())

            def coordinates(m):
                col_mark, letters, row_mark, digits = m.groups()
                col, row = column_number(letters), int(digits)
                col = col if col_mark else col - host.col
                row = row if row_mark else row - host.row
                return f"<{col_mark}{col} {row_mark}{row}>"

            spelled.add(REFERENCE.sub(coordinates, content[1:]))
    return len(spelled)


class TestBuildOnce:
    """Each command builds each derived structure at most once per run."""

    # Counted per code object, as pstats merges functions that share a
    # file, line and name; a per_program function by the one it wraps,
    # which runs only when the program's memo misses, and the topo
    # order by its sort, however often `topo_order` is called.
    BUILDERS = {
        "DependencyGraph.__init__": DependencyGraph.__init__.__code__,
        "DependencyGraph._sorted": DependencyGraph._sorted.func.__code__,
        "infer_physical_areas": infer_physical_areas.__wrapped__.__code__,
        "infer_logical_areas": infer_logical_areas.__wrapped__.__code__,
        "structural_groups": structural_groups.__wrapped__.__code__,
        "copy_keys": copy_keys.__wrapped__.__code__,
        "skeletons": skeletons.__wrapped__.__code__,
        "cell_index": cell_index.__wrapped__.__code__,
        "formula_reads": formula_reads.__wrapped__.__code__,
    }
    # What each command builds; it builds nothing else.
    BUILT = {
        "check": set(BUILDERS),
        "graph": set(BUILDERS),
        "areas": {
            "infer_physical_areas", "infer_logical_areas", "copy_keys", "cell_index",
            "formula_reads",
        },
        "test": {
            "DependencyGraph.__init__", "DependencyGraph._sorted", "cell_index",
            "formula_reads",
        },
    }
    # B4 lies outside the logical area B1:B3, but in D6's group with it.
    DEVIANT = (
        "A1 = ?1\nA2 = ?2\nA3 = ?3\nA4 = ?4\n"
        "B1 = =A1*2\nB2 = =A2*2\nB3 = =A3*2\nB4 = =$A$4*2\n"
    )

    @staticmethod
    def calls(argv):
        profile = cProfile.Profile()
        with contextlib.redirect_stdout(io.StringIO()):
            profile.runcall(main, argv)
        calls = Counter()
        for entry in profile.getstats():
            calls[entry.code] += entry.callcount
        return calls

    # On the cyclic sheet the cycle that stops evaluation is reported
    # as G_CYCLE without building the graph again.  No sheet here can
    # divide by zero, so only `test` evaluates, once, points and ranges
    # in one walk, whether or not its spec ranges an input.  Counted by
    # the loop that `evaluate` and `evaluate_lanes` both run.
    @pytest.mark.parametrize(
        "argv, evaluations",
        [
            (["check", RUNNING], 0),
            (["graph", RUNNING], 0),
            (["graph", RUNNING, "--resolution", "area"], 0),
            (["check", CYCLIC], 0),
            (["graph", CYCLIC], 0),
            (["areas", RUNNING], 0),
            (["test", QUARTERLY, QUARTERLY_IV], 1),
            (["test", BUDGET, BUDGET_IV], 1),
        ],
        ids=[
            "check", "graph", "graph-area", "check-cyclic", "graph-cyclic", "areas", "test",
            "test-ranged",
        ],
    )
    def test_each_structure_built_once(self, argv, evaluations):
        calls = self.calls(argv)
        assert calls[_evaluate.__code__] == evaluations
        built = self.BUILT[argv[0]]
        counts = {name: calls[code] for name, code in self.BUILDERS.items()}
        assert counts == {name: int(name in built) for name in self.BUILDERS}
        # D6 takes the copy keys logical-area inference made.
        classes = copy_class_count(pathlib.Path(argv[1]).read_text())
        assert calls[copy_key.__code__] == (classes if "copy_keys" in built else 0)
        assert calls[skeleton.__code__] == (classes if "skeletons" in built else 0)

    @pytest.mark.parametrize(
        "sheet", sorted(p.name for p in FIXTURES.glob("*.sheet")) + ["deviant"]
    )
    def test_normalize_once_per_formula(self, sheet, tmp_path):
        if sheet == "deviant":
            path = tmp_path / "deviant.sheet"
            path.write_text(self.DEVIANT)
        else:
            path = FIXTURES / sheet
        # copy_key normalizes a formula's leaves as it lists them, once
        # per copy class: the loader shares one tree among the copies.
        calls = self.calls(["check", str(path)])
        classes = copy_class_count(path.read_text())
        assert calls[copy_key.__code__] == calls[skeleton.__code__] == classes


class TestJsonFormat:
    @pytest.mark.parametrize(
        "argv",
        [
            ["check", QUARTERLY],
            ["test", APPENDED, APPENDED_IV],
            ["areas", CLEAN],
        ],
    )
    def test_json_output_fits_the_schema(self, argv, capsys):
        main(argv + ["--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, SCHEMA)
        assert payload["command"] == argv[0]

    @pytest.mark.parametrize(
        "argv",
        [["check", "/dev/stdin"], ["areas", "/dev/stdin"], ["test", "/dev/stdin", QUARTERLY_IV]],
        ids=["check", "areas", "test"],
    )
    def test_piped_input_is_digested(self, argv, capsys):
        # A pipe can be read once: the digest is of the bytes analysed,
        # not of the emptied pipe a second read would see.
        if not os.path.exists("/dev/stdin"):
            pytest.skip("no /dev/stdin")
        sheet = pathlib.Path(QUARTERLY)
        proc = console([*argv, "--format", "json"], input=sheet.read_bytes(), capture_output=True)
        piped = json.loads(proc.stdout)
        main([argv[0], QUARTERLY, *argv[2:], "--format", "json"])
        expected = json.loads(capsys.readouterr().out)
        expected["inputs"][0]["path"] = "/dev/stdin"
        assert piped == expected

    def test_graph_emits_dot_not_json(self, capsys):
        main(["graph", QUARTERLY, "--format", "json"])
        out = capsys.readouterr().out
        assert out.startswith("digraph sheet {")

    def test_graph_area_resolution(self, capsys):
        main(["graph", CLEAN, "--resolution", "area"])
        out = capsys.readouterr().out
        assert out.startswith("digraph sheet_areas {")
        assert '"p0"' in out

    def test_check_diagnostics_appear_in_graph_output(self, capsys):
        main(["check", QUARTERLY, "--format", "json"])
        diagnostics = json.loads(capsys.readouterr().out)["diagnostics"]
        main(["graph", QUARTERLY])
        dot = capsys.readouterr().out
        for diag in diagnostics:
            assert diag["code"] in dot


class TestOutputFile:
    def test_output_flag_redirects_stdout(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = main(["check", QUARTERLY, "--format", "json", "--output", str(target)])
        assert code == 1
        assert capsys.readouterr().out == ""
        main(["check", QUARTERLY, "--format", "json"])
        assert target.read_text() == capsys.readouterr().out

    @pytest.mark.parametrize("case", ["malformed-spec", "cyclic", "missing-sheet"])
    def test_nothing_is_written_when_analysis_fails(self, case, tmp_path, capsys):
        # Every input is read and analysed before the output is opened.
        spec = tmp_path / "spec.intervals"
        if case == "malformed-spec":
            spec.write_text("input B2 [1, 2]\n")
            argv = ["test", QUARTERLY, str(spec)]
        elif case == "cyclic":
            spec.write_text("expect C1 in [0, 100]\n")
            argv = ["test", CYCLIC, str(spec)]
        else:
            argv = ["check", str(tmp_path / "no_such.sheet")]
        target = tmp_path / "report.out"
        assert main(argv) == 2
        assert capsys.readouterr().out == ""
        assert main(argv + ["--output", str(target)]) == 2
        assert capsys.readouterr().out == ""
        assert not target.exists()


class TestBoundedWrites:
    """A report goes to the output in batches while it renders: no write
    is larger than a batch, and writing holds no more than one."""

    # Every piece of JSON and every DOT line of these sheets' reports is
    # far shorter than 64 characters on average.
    WRITE_BOUND = 64 * report.BATCH
    # A batch's strings, their join, and what the writer keeps between
    # batches, in bytes.
    HEAP_BOUND = 256 * report.BATCH

    class Recorder:
        """An output that keeps the length of each write, and the heap
        at the first write with the peak reset there."""

        def __init__(self):
            self.sizes = []
            self.base = None

        def write(self, text):
            if self.base is None:
                self.base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            self.sizes.append(len(text))
            return len(text)

        def flush(self):
            pass

    def written(self, argv, monkeypatch):
        """(largest write, peak heap between the first and the last write
        over the heap at the first, heap at the first write) for one run
        of main."""
        recorder = self.Recorder()
        monkeypatch.setattr(sys, "stdout", recorder)
        tracemalloc.start()
        try:
            main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return max(recorder.sizes), peak - recorder.base, recorder.base

    def filled_down(self, tmp_path, n):
        sheet, spec = tmp_path / f"filled{n}.sheet", tmp_path / f"filled{n}.intervals"
        sheet.write_text("".join(f"A{r} = ?{r % 7 + 1}\nB{r} = =A{r}*2\n" for r in range(1, n + 1)))
        spec.write_text(
            "".join(f"input A{r} in [0, 9]\nexpect B{r} in [0, 20]\n" for r in range(1, n + 1))
        )
        return ["test", str(sheet), str(spec), "--format", "json"]

    def running_totals(self, tmp_path, n):
        sheet = tmp_path / f"running{n}.sheet"
        sheet.write_text(
            'A1 = "amount"\n'
            + "".join(f"A{r} = #{r % 97}\nB{r} = =SUM(A$2:A{r})\n" for r in range(2, n + 2))
        )
        return ["graph", str(sheet)]

    @pytest.mark.parametrize(
        "report_of, n", [("filled_down", 500), ("running_totals", 200)], ids=["test-json", "graph"]
    )
    def test_writes_stay_bounded_as_the_sheet_doubles(self, report_of, n, tmp_path, monkeypatch):
        for rows in (n, 2 * n):
            largest, held, _ = self.written(getattr(self, report_of)(tmp_path, rows), monkeypatch)
            assert largest <= self.WRITE_BOUND, rows
            assert held <= self.HEAP_BOUND, rows

    def test_cell_view_edges_share_the_program_addresses(self, tmp_path, monkeypatch):
        # 600 running totals read 1 + 2 + ... + 600 = 180,300 amounts.
        # Each edge's source is an address the program already holds,
        # so the heap at the first write is a few pointers per edge,
        # not a new address tuple for each.
        edges = 600 * 601 // 2
        _, _, base = self.written(self.running_totals(tmp_path, 600), monkeypatch)
        assert base <= 48 * edges, base / edges

    def test_test_json_holds_the_report_rows(self, tmp_path, monkeypatch):
        # The renderer of 1,000 filled-down rows holds each row's
        # CellTest, with its value, bounds and address, not four dicts
        # per row: the heap at the first write is about 0.9 KB per row,
        # where the dicts made it about 1.5 KB.
        rows = 1000
        _, _, base = self.written(self.filled_down(tmp_path, rows), monkeypatch)
        assert base <= 1200 * rows, base / rows


def invocations(sheet, spec=None):
    """Every command in every format on one sheet."""
    yield ["check", str(sheet)]
    yield ["check", str(sheet), "--format", "json"]
    yield ["areas", str(sheet)]
    yield ["areas", str(sheet), "--format", "json"]
    yield ["graph", str(sheet)]
    yield ["graph", str(sheet), "--resolution", "area"]
    if spec is not None:
        yield ["test", str(sheet), str(spec)]
        yield ["test", str(sheet), str(spec), "--format", "json"]


def fixture_invocations():
    for sheet in sorted(FIXTURES.glob("*.sheet")):
        spec = sheet.with_suffix(".intervals")
        yield from invocations(sheet, spec if spec.exists() else None)


class TestDeterminism:
    def test_every_invocation_is_byte_stable(self, capsys):
        for argv in fixture_invocations():
            first_code = main(argv)
            first = capsys.readouterr().out
            second_code = main(argv)
            second = capsys.readouterr().out
            assert first_code == second_code, argv
            assert first == second, argv
            assert first.endswith("\n"), argv


def corpus_invocations(tmp_path, count):
    """Every command on ``count`` generated programs, each with its
    input ranges as an .intervals file."""
    for cp in corpus.corpus(count):
        sheet = tmp_path / f"corpus-{cp.seed}.sheet"
        sheet.write_text(cp.text, encoding="utf-8")
        spec = tmp_path / f"corpus-{cp.seed}.intervals"
        spec.write_text(
            "".join(
                f"input {addr} in [{format_number(iv.lo)}, {format_number(iv.hi)}]\n"
                for addr, iv in cp.input_ranges.items()
            ),
            encoding="utf-8",
        )
        yield from invocations(sheet, spec)


def _origin(obj) -> str:
    """Where an object was defined: a function's own module and name,
    any other object's type's."""
    owner = obj if isinstance(obj, types.FunctionType) else type(obj)
    return f"{getattr(owner, '__module__', None)}.{owner.__qualname__}"


class TestNoCyclicGarbage:
    """The console process runs without the cyclic collector
    (``cli.run``), which frees nothing as long as a run makes no
    reference cycle of sheetlint objects."""

    @staticmethod
    def cyclic_garbage(argvs) -> list[str]:
        """The package's objects the runs leave only the collector could free."""
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                for argv in argvs:
                    main(argv)
            gc.collect()
            return sorted({o for o in map(_origin, gc.garbage) if o.startswith("sheetlint.")})
        finally:
            gc.set_debug(0)
            gc.garbage.clear()

    def test_fixtures(self, tmp_path):
        # Error paths too: a missing file, a cycle that stops `test`,
        # and an expectation on a cell that is not a formula.
        cycle_spec = tmp_path / "cyclic.intervals"
        cycle_spec.write_text("expect C1 in [0, 100]\n")
        argvs = list(fixture_invocations())
        argvs += [
            ["check", str(FIXTURES / "no_such.sheet")],
            ["test", CYCLIC, str(cycle_spec)],
            ["test", CYCLIC, QUARTERLY_IV],
        ]
        assert self.cyclic_garbage(argvs) == []

    def test_corpus(self, tmp_path):
        assert self.cyclic_garbage(corpus_invocations(tmp_path, 50)) == []

    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_leaves_the_collector_as_found(self, enabled, capsys):
        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            assert main(["check", QUARTERLY]) == 1
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was else gc.disable()

    def test_run_turns_the_collector_off(self, monkeypatch):
        codes = []
        out = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
        monkeypatch.setattr(sys, "argv", ["sheetlint", "check", CLEAN])
        monkeypatch.setattr(sys, "exit", codes.append)
        monkeypatch.setattr(sys, "stdout", out)
        was = gc.isenabled()
        try:
            cli.run()
            assert not gc.isenabled()
            # Frozen before the exit, so teardown's collections skip it.
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()
            gc.enable() if was else gc.disable()
        assert codes == [0]
        assert out.encoding == "utf-8"


class TestUtf8Stdout:
    """stdout is UTF-8 whatever the locale says, as --output is."""

    LABELLED = 'A1 = "Überschuss"\nA2 = #1\nA3 = =SUM(A1:A2)\n'
    CLEAN_SUM = "A1 = ?1\nA2 = ?2\nA3 = =SUM(A1:A2)\n"

    @pytest.mark.parametrize(
        "argv, name, text",
        [
            (["graph"], "labelled.sheet", LABELLED),
            (["check"], "Überschuss.sheet", CLEAN_SUM),
        ],
        ids=["graph-label", "check-path"],
    )
    def test_ascii_locale(self, argv, name, text, tmp_path):
        sheet = tmp_path / name
        sheet.write_text(text, encoding="utf-8")
        target = tmp_path / "report.out"
        env = {**os.environ, "PYTHONPATH": str(HERE.parent / "src"), "PYTHONIOENCODING": "ascii"}
        command = [sys.executable, "-m", "sheetlint.cli", *argv, str(sheet)]
        proc = subprocess.run(command, capture_output=True, env=env)
        assert (proc.returncode, proc.stderr) == (0, b"")
        saved = subprocess.run([*command, "--output", str(target)], capture_output=True, env=env)
        assert saved.returncode == 0
        assert proc.stdout == target.read_bytes()
        assert "Überschuss".encode("utf-8") in proc.stdout


class TestUtf8Stderr:
    """The error line names a non-ASCII path in UTF-8 whatever the
    locale, as stdout does."""

    def test_ascii_locale(self, tmp_path):
        sheet = tmp_path / "Überschuss_bad.sheet"
        sheet.write_bytes(b'A1 = "\xff"\n')
        env = {**os.environ, "PYTHONPATH": str(HERE.parent / "src"), "PYTHONIOENCODING": "ascii"}
        proc = subprocess.run(
            [sys.executable, "-m", "sheetlint.cli", "check", str(sheet)],
            capture_output=True,
            env=env,
        )
        assert (proc.returncode, proc.stdout) == (2, b"")
        expected = f"sheetlint: error: {sheet}: not UTF-8 text (byte 6)\n"
        assert proc.stderr == expected.encode("utf-8")


class TestEntryPoints:
    def test_module_invocation(self, capsys):
        # Every command in both formats and both graph resolutions, and
        # a load error: the console process gives main's stdout, stderr
        # and exit code byte for byte.
        argvs = [*invocations(QUARTERLY, QUARTERLY_IV), ["check", str(FIXTURES / "no_such.sheet")]]
        for argv in argvs:
            proc = console(argv, capture_output=True)
            code = main(argv)
            out, err = capsys.readouterr()
            assert (proc.returncode, proc.stdout, proc.stderr) == (
                code,
                out.encode("utf-8"),
                err.encode("utf-8"),
            ), argv

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    def test_full_stdout_is_one_error_line(self, buffered):
        # A buffered stdout fails only when flushed; the bytes it still
        # holds must not fail a second time at exit.
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "wb") as full:
            proc = console(["check", QUARTERLY], env=env, stdout=full, stderr=subprocess.PIPE)
        lines = proc.stderr.decode("utf-8").splitlines()
        assert proc.returncode == 2
        assert len(lines) == 1 and lines[0].startswith("sheetlint: error: "), lines

    @pytest.mark.parametrize("output", [False, True], ids=["stdout", "output-file"])
    def test_closed_stdout(self, output, tmp_path):
        # The shell's '>&-' starts the child with no stdout at all.  The
        # report has nowhere to go, unless --output names a file.
        shell = shutil.which("sh")
        if shell is None:
            pytest.skip("no POSIX shell")
        target = tmp_path / "report.txt"
        argv = [sys.executable, "-m", "sheetlint.cli", "check", QUARTERLY]
        if output:
            argv += ["--output", str(target)]
        env = {**os.environ, "PYTHONPATH": str(HERE.parent / "src")}
        script = " ".join(shlex.quote(arg) for arg in argv) + " >&-"
        proc = subprocess.run([shell, "-c", script], env=env, capture_output=True)
        lines = proc.stderr.decode("utf-8").splitlines()
        if output:
            assert (proc.returncode, lines) == (1, [])
            assert target.read_text(encoding="utf-8").endswith("3 warning(s), 0 error(s)\n")
        else:
            assert proc.returncode == 2
            assert lines == ["sheetlint: error: standard output is closed"]

    @pytest.mark.parametrize("sheet", ["missing", "malformed"])
    def test_closed_stderr_keeps_exit_two(self, sheet, tmp_path):
        # The shell's '2>&-' starts the child with stderr closed.  The
        # error line has nowhere to go, but the status still tells it.
        shell = shutil.which("sh")
        if shell is None:
            pytest.skip("no POSIX shell")
        path = tmp_path / f"{sheet}.sheet"
        if sheet == "malformed":
            path.write_text("A1 = #1\nB1 = =(\n", encoding="utf-8")
        argv = [sys.executable, "-m", "sheetlint.cli", "check", str(path)]
        env = {**os.environ, "PYTHONPATH": str(HERE.parent / "src")}
        script = " ".join(shlex.quote(arg) for arg in argv) + " 2>&-"
        proc = subprocess.run([shell, "-c", script], env=env, capture_output=True)
        assert (proc.returncode, proc.stdout) == (2, b"")

    def test_no_stderr_drops_the_error_line(self, monkeypatch, capsys):
        # A stream the interpreter could not open is None: print would
        # write the line to stdout instead.
        monkeypatch.setattr(sys, "stderr", None)
        assert main(["check", str(FIXTURES / "no_such.sheet")]) == 2
        assert capsys.readouterr().out == ""

    def test_console_script(self):
        exe = shutil.which("sheetlint")
        if exe is None:
            pytest.skip("console script not installed")
        proc = subprocess.run(
            [exe, "areas", CLEAN], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "2 physical area(s)" in proc.stdout
