"""End-to-end acceptance checks.

Each test prints one `[acceptance] name: PASS|FAIL` line, bypassing
output capture so the verdicts always land in the run log.
"""

import contextlib
import json
import pathlib
import random
import subprocess
import sys
import time

import pytest

from corpus import corpus, sample_instance
from injection import INJECTORS
from sheetlint.detectors import detect_all
from sheetlint.dataflow import CyclicDependency
from sheetlint.evaluator import Fault, Number, eval_instance
from sheetlint.intervals import Interval, Verdict, eval_intervals, judge
from sheetlint.model import instantiate, load_program
from sheetlint.scl import parse_address

HERE = pathlib.Path(__file__).parent
ROOT = HERE.parent
FIXTURES = ROOT / "fixtures"


@pytest.fixture(scope="module")
def announce(pytestconfig):
    capman = pytestconfig.pluginmanager.getplugin("capturemanager")

    @contextlib.contextmanager
    def criterion(name):
        def emit(verdict):
            line = f"[acceptance] {name}: {verdict}"
            if capman is not None:
                with capman.global_and_fixture_disabled():
                    print(line, flush=True)
            else:
                print(line, flush=True)

        try:
            yield
        except BaseException:
            emit("FAIL")
            raise
        emit("PASS")

    return criterion


def fixture_program(name):
    return load_program((FIXTURES / name).read_text())


def value_of(program, name):
    return eval_instance(instantiate(program)).values[parse_address(name)]


def codes_of(program):
    result = eval_instance(instantiate(program))
    return detect_all(program, result)


def test_quarterly_sum_reproduction(announce):
    with announce("quarterly sum pinned diagnostics"):
        start = time.perf_counter()
        program = fixture_program("quarterly_sums.sheet")
        result = eval_instance(instantiate(program))
        diagnostics = detect_all(program, result)
        elapsed = time.perf_counter() - start
        assert result.values[parse_address("B12")] == Number(1020.0)
        found = [(d.code.value, tuple(str(c) for c in d.cells)) for d in diagnostics]
        assert found == [
            ("D1_BLANK_REF", ("B3",)),
            ("D2_WRONG_TYPE_IN_RANGE", ("B2",)),
            ("D2_WRONG_TYPE_IN_RANGE", ("B7",)),
        ]
        assert elapsed < 1.0


def test_appended_row_beyond_range(announce):
    with announce("appended row beyond range"):
        initial = fixture_program("sales_initial.sheet")
        assert value_of(initial, "C6") == Number(3000.0)

        expanded = fixture_program("sales_expanded.sheet")
        assert value_of(expanded, "C7") == Number(3300.0)
        assert not any(d.code.value == "D3_INCORRECT_RANGE" for d in codes_of(expanded))

        appended = fixture_program("sales_appended.sheet")
        assert value_of(appended, "C8") == Number(3300.0)
        full_text = (FIXTURES / "sales_appended.sheet").read_text().replace(
            "=SUM(C2:C6)", "=SUM(C2:C7)"
        )
        assert value_of(load_program(full_text), "C8") == Number(3900.0)
        d3 = [d for d in codes_of(appended) if d.code.value == "D3_INCORRECT_RANGE"]
        assert [tuple(str(c) for c in d.cells) for d in d3] == [("C7",)]


def test_subtotal_chain_layouts(announce):
    with announce("subtotal chain layouts"):
        two_col = fixture_program("subtotals_two_column.sheet")
        assert value_of(two_col, "D6") == Number(2400.0)
        assert value_of(two_col, "D10") == Number(2500.0)
        assert value_of(two_col, "D11") == Number(4900.0)
        assert codes_of(two_col) == []

        one_col = fixture_program("subtotals_one_column.sheet")
        d4 = [d for d in codes_of(one_col) if d.code.value == "D4_AREA_MIXUP"]
        assert any("H15" in [str(c) for c in d.cells] for d in d4)


def test_verdict_table(announce):
    with announce("verdict table"):
        box = Interval(0.0, 10.0)
        assert judge(Number(5.0), Interval(4.0, 6.0), box) is Verdict.NO_SYMPTOM
        assert judge(Number(7.0), Interval(4.0, 6.0), box) is Verdict.SYMPTOM_VALUE_OUTSIDE
        assert judge(Number(5.0), Interval(4.0, 12.0), box) is Verdict.SYMPTOM_MODEL_MISMATCH
        assert judge(Number(13.0), Interval(4.0, 12.0), box) is Verdict.SYMPTOM_BOTH


def test_interval_containment(announce):
    with announce("interval containment"):
        start = time.perf_counter()
        rng = random.Random(2026)
        violations = 0
        for cp in corpus(50):
            bounds = eval_intervals(cp.program, cp.spec())
            formulas = [addr for addr, _ in cp.program.formula_cells()]
            for _ in range(1000):
                values = eval_instance(sample_instance(cp, rng)).values
                for addr in formulas:
                    d = values[addr]
                    if isinstance(d, Fault):
                        continue
                    box = bounds[addr]
                    if not (isinstance(box, Interval) and box.lo <= d.value <= box.hi):
                        violations += 1
        elapsed = time.perf_counter() - start
        assert violations == 0
        assert elapsed < 60.0


def test_degenerate_collapse(announce):
    with announce("degenerate collapse"):
        for cp in corpus(50):
            values = eval_instance(instantiate(cp.program)).values
            bounds = eval_intervals(cp.program, cp.degenerate_spec())
            for addr, _ in cp.program.formula_cells():
                d, box = values[addr], bounds[addr]
                if isinstance(d, Number):
                    assert box == Interval(d.value, d.value), (cp.seed, addr)
                else:
                    assert box == d, (cp.seed, addr)


def test_injection_recall(announce):
    with announce("injection recall"):

        def diagnostics(text):
            program = load_program(text)
            try:
                result = eval_instance(instantiate(program))
            except CyclicDependency:
                result = None
            return detect_all(program, result)

        for code, injector in INJECTORS.items():
            for k in range(20):
                case = injector(5000 + k)
                assert case.code == code
                clean_codes = {d.code.value for d in diagnostics(case.clean)}
                assert code not in clean_codes, (code, k)
                hits = [d for d in diagnostics(case.faulty) if d.code.value == code]
                assert any(case.target in d.cells for d in hits), (code, k)


def test_cli_determinism(announce):
    with announce("cli determinism"):

        def invocations():
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

        def run(argv, hash_seed):
            return subprocess.run(
                [sys.executable, "-m", "sheetlint.cli", *argv],
                capture_output=True,
                cwd=str(ROOT),
                env={
                    "PYTHONHASHSEED": hash_seed,
                    "PATH": "/usr/bin:/bin",
                    "PYTHONPATH": str(ROOT / "src"),
                },
            )

        for argv in invocations():
            first = run(argv, "0")
            second = run(argv, "1")
            assert first.returncode == second.returncode, argv
            assert first.returncode in (0, 1), (argv, first.stderr)
            assert first.stdout == second.stdout, argv
            assert first.stdout, argv
            if argv[-1] == "json":
                json.loads(first.stdout)
