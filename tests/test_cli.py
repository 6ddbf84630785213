"""Command line behavior: arguments, exit codes, output channels."""

import json
import pathlib
import shutil
import subprocess
import sys

import jsonschema
import pytest

from sheetlint.cli import main

HERE = pathlib.Path(__file__).parent
FIXTURES = HERE.parent / "fixtures"
SCHEMA = json.loads((HERE.parent / "schema" / "report-v1.json").read_text())

QUARTERLY = str(FIXTURES / "quarterly_sums.sheet")
QUARTERLY_IV = str(FIXTURES / "quarterly_sums.intervals")
APPENDED = str(FIXTURES / "sales_appended.sheet")
APPENDED_IV = str(FIXTURES / "sales_appended.intervals")
CLEAN = str(FIXTURES / "subtotals_two_column.sheet")


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


class TestDeterminism:
    def all_invocations(self):
        for sheet in sorted(FIXTURES.glob("*.sheet")):
            yield ["check", str(sheet)]
            yield ["check", str(sheet), "--format", "json"]
            yield ["areas", str(sheet)]
            yield ["areas", str(sheet), "--format", "json"]
            yield ["graph", str(sheet)]
            yield ["graph", str(sheet), "--resolution", "area"]
            spec = sheet.with_suffix(".intervals")
            if spec.exists():
                yield ["test", str(sheet), str(spec)]
                yield ["test", str(sheet), str(spec), "--format", "json"]

    def test_every_invocation_is_byte_stable(self, capsys):
        for argv in self.all_invocations():
            first_code = main(argv)
            first = capsys.readouterr().out
            second_code = main(argv)
            second = capsys.readouterr().out
            assert first_code == second_code, argv
            assert first == second, argv
            assert first.endswith("\n"), argv


class TestEntryPoints:
    def test_module_invocation(self, capsys):
        proc = subprocess.run(
            [sys.executable, "-m", "sheetlint.cli", "check", QUARTERLY],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert main(["check", QUARTERLY]) == 1
        assert proc.stdout == capsys.readouterr().out

    def test_console_script(self):
        exe = shutil.which("sheetlint")
        if exe is None:
            pytest.skip("console script not installed")
        proc = subprocess.run(
            [exe, "areas", CLEAN], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "2 physical area(s)" in proc.stdout
