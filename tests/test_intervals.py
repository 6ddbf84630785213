"""Interval arithmetic, bounding evaluation, judging, suspects, specs."""

import pathlib
import tracemalloc

import pytest

from sheetlint.dataflow import CyclicDependency, build_graph
from sheetlint.evaluator import (
    DivisorContainsZero,
    EmptyAggregate,
    Fault,
    FaultKind,
    Number,
    eval_instance,
    evaluate,
    iv_aggregate,
    iv_binop,
    iv_negate,
)
from sheetlint.intervals import (
    Interval,
    IntervalSpec,
    IntervalSpecError,
    NotAFormulaCell,
    Verdict,
    eval_intervals,
    judge,
    load_interval_spec,
    run_interval_test,
)
from sheetlint.model import LoadError, NotAnInputCell, cell_index, instantiate, load_program
from sheetlint.scl import parse_address
from test_scaling import filled_down, filled_down_spec

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"


def iv(lo, hi):
    return Interval(lo, hi)


class TestInterval:
    def test_endpoints_belong_to_the_interval(self):
        box = iv(4.0, 6.0)
        assert box.contains(4.0)
        assert box.contains(6.0)
        assert not box.contains(6.0000001)

    def test_encloses_is_inclusive(self):
        assert iv(0, 10).encloses(iv(0, 10))
        assert iv(0, 10).encloses(iv(4, 6))
        assert not iv(0, 10).encloses(iv(4, 12))

    def test_degenerate(self):
        assert Interval.degenerate(3.0) == iv(3.0, 3.0)

    def test_rendering(self):
        assert str(iv(918.0, 1122.0)) == "[918, 1122]"
        assert str(iv(0.5, 2.0)) == "[0.5, 2]"

    def test_rejects_empty_and_undefined(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)
        with pytest.raises(ValueError):
            Interval(float("nan"), 1.0)


class TestBinop:
    def test_addition(self):
        assert iv_binop("+", iv(1, 2), iv(10, 20)) == iv(11, 22)

    def test_subtraction_flips_the_other_side(self):
        assert iv_binop("-", iv(1, 2), iv(10, 20)) == iv(-19, -8)

    def test_multiplication_takes_endpoint_extremes(self):
        assert iv_binop("*", iv(-2, 3), iv(4, 5)) == iv(-10, 15)
        assert iv_binop("*", iv(-3, -2), iv(-5, -4)) == iv(8, 15)

    def test_division(self):
        assert iv_binop("/", iv(1, 2), iv(4, 5)) == iv(0.2, 0.5)
        assert iv_binop("/", iv(1, 2), iv(-2, -1)) == iv(-2.0, -0.5)

    def test_division_by_zero_spanning_interval_raises(self):
        for divisor in [iv(0, 1), iv(-1, 1), iv(-1, 0), iv(0, 0)]:
            with pytest.raises(DivisorContainsZero):
                iv_binop("/", iv(1, 2), divisor)

    def test_negation(self):
        assert iv_negate(iv(-2, 3)) == iv(-3, 2)


class TestAggregate:
    def test_sum_is_componentwise(self):
        assert iv_aggregate("SUM", [iv(1, 2), iv(10, 20)]) == iv(11, 22)

    def test_avg_divides_by_the_count(self):
        assert iv_aggregate("AVG", [iv(1, 2), iv(10, 20)]) == iv(5.5, 11.0)

    def test_min_max_go_endpoint_by_endpoint(self):
        assert iv_aggregate("MIN", [iv(1, 5), iv(2, 3)]) == iv(1, 3)
        assert iv_aggregate("MAX", [iv(1, 5), iv(2, 3)]) == iv(2, 5)

    def test_count_is_degenerate(self):
        assert iv_aggregate("COUNT", [iv(1, 5), iv(2, 3)]) == iv(2, 2)
        assert iv_aggregate("COUNT", []) == iv(0, 0)

    def test_empty_aggregate_raises(self):
        for name in ["SUM", "AVG", "MIN", "MAX"]:
            with pytest.raises(EmptyAggregate):
                iv_aggregate(name, [])


class TestEvalIntervals:
    def test_plain_cells(self):
        prog = load_program('A1 = #3\nA2 = ?5\nA3 = "x"\nB1 = =A1+A2\n')
        spec = IntervalSpec({parse_address("A2"): iv(4, 6)}, {})
        bounds = eval_intervals(prog, spec)
        assert bounds[parse_address("A1")] == iv(3, 3)
        assert bounds[parse_address("A2")] == iv(4, 6)
        assert parse_address("A3") not in bounds
        assert bounds[parse_address("B1")] == iv(7, 9)

    def test_unlisted_input_is_degenerate_at_its_default(self):
        prog = load_program("A1 = ?5\nB1 = =A1*2\n")
        bounds = eval_intervals(prog, IntervalSpec({}, {}))
        assert bounds[parse_address("B1")] == iv(10, 10)

    def test_quarterly_budget_bound(self):
        prog = load_program(
            'B2 = "1. Quarter"\nB4 = ?140\nB5 = ?200\nB6 = ?170\n'
            'B7 = "2. Quarter"\nB8 = ?180\nB9 = ?230\nB10 = ?100\n'
            "B12 = =SUM(B2:B10)\n"
        )
        ranges = {
            parse_address("B4"): iv(126, 154),
            parse_address("B5"): iv(180, 220),
            parse_address("B6"): iv(153, 187),
            parse_address("B8"): iv(162, 198),
            parse_address("B9"): iv(207, 253),
            parse_address("B10"): iv(90, 110),
        }
        bounds = eval_intervals(prog, IntervalSpec(ranges, {}))
        assert bounds[parse_address("B12")] == iv(918.0, 1122.0)

    def test_blank_reads_as_zero_point(self):
        prog = load_program("A2 = =A1+1\n")
        bounds = eval_intervals(prog, IntervalSpec({}, {}))
        assert bounds[parse_address("A2")] == iv(1, 1)

    def test_text_in_arithmetic_is_a_fault(self):
        prog = load_program('A1 = "x"\nA2 = =A1+1\n')
        bounds = eval_intervals(prog, IntervalSpec({}, {}))
        assert bounds[parse_address("A2")] == Fault(FaultKind.TYPE_ERROR)

    def test_divisor_interval_spanning_zero(self):
        prog = load_program("A1 = ?1\nB1 = =1/A1\nC1 = =B1+1\n")
        spec = IntervalSpec({parse_address("A1"): iv(-1, 2)}, {})
        bounds = eval_intervals(prog, spec)
        assert bounds[parse_address("B1")] == Fault(FaultKind.DIVISOR_CONTAINS_ZERO)
        assert bounds[parse_address("C1")] == Fault(FaultKind.PROPAGATED)

    def test_degenerate_zero_divisor_mirrors_concrete_fault(self):
        prog = load_program("A1 = #0\nB1 = =1/A1\n")
        bounds = eval_intervals(prog, IntervalSpec({}, {}))
        assert bounds[parse_address("B1")] == Fault(FaultKind.DIV_BY_ZERO)

    def test_fault_kinds_mirror_the_concrete_run(self):
        # Degenerate spec: every bounding fault must match the concrete
        # fault kind cell for cell, bare-reference roots included.
        prog = load_program("A1 = #0\nB1 = =1/A1\nC1 = =B1\nD1 = =B1+1\n")
        concrete = eval_instance(instantiate(prog)).values
        bounds = eval_intervals(prog, IntervalSpec({}, {}))
        for name in ["B1", "C1", "D1"]:
            addr = parse_address(name)
            assert bounds[addr] == concrete[addr]
        assert bounds[parse_address("C1")] == Fault(FaultKind.DIV_BY_ZERO)
        assert bounds[parse_address("D1")] == Fault(FaultKind.PROPAGATED)

    def test_empty_aggregates_mirror_concrete_faults(self):
        prog = load_program("B1 = =SUM(D1:D2)\nB2 = =AVG(D1:D2)\nB3 = =COUNT(D1:D2)\n")
        bounds = eval_intervals(prog, IntervalSpec({}, {}))
        assert bounds[parse_address("B1")] == Fault(FaultKind.TYPE_ERROR)
        assert bounds[parse_address("B2")] == Fault(FaultKind.DIV_BY_ZERO)
        assert bounds[parse_address("B3")] == iv(0, 0)

    def test_overflow_is_a_fault_in_both_runs(self):
        prog = load_program(
            "A1 = ?1e308\nA2 = =A1*10-A1*10\nA3 = =A1*10\nA4 = =SUM(A1,A1)\nA5 = =-A3\n"
        )
        concrete = eval_instance(instantiate(prog)).values
        bounds = eval_intervals(prog, IntervalSpec({}, {}))
        expected = {
            "A2": Fault(FaultKind.PROPAGATED),
            "A3": Fault(FaultKind.OVERFLOW),
            "A4": Fault(FaultKind.OVERFLOW),
            "A5": Fault(FaultKind.PROPAGATED),
        }
        for name, fault in expected.items():
            addr = parse_address(name)
            assert concrete[addr] == fault, name
            assert bounds[addr] == fault, name

    def test_overflow_at_one_endpoint_faults_the_bound(self):
        prog = load_program("A1 = ?1\nB1 = =A1*1e300\n")
        spec = IntervalSpec({parse_address("A1"): iv(0, 1e10)}, {})
        assert eval_intervals(prog, spec)[parse_address("B1")] == Fault(FaultKind.OVERFLOW)
        assert eval_instance(instantiate(prog)).values[parse_address("B1")] == Number(1e300)

    def test_range_on_non_input_rejected(self):
        prog = load_program("A1 = #3\nB1 = =A1+1\n")
        with pytest.raises(NotAnInputCell):
            eval_intervals(prog, IntervalSpec({parse_address("A1"): iv(0, 1)}, {}))


class TestJudge:
    def test_verdict_quartet(self):
        box = iv(0, 10)
        assert judge(Number(5.0), iv(4, 6), box) is Verdict.NO_SYMPTOM
        assert judge(Number(7.0), iv(4, 6), box) is Verdict.SYMPTOM_VALUE_OUTSIDE
        assert judge(Number(5.0), iv(4, 12), box) is Verdict.SYMPTOM_MODEL_MISMATCH
        assert judge(Number(13.0), iv(4, 12), box) is Verdict.SYMPTOM_BOTH

    def test_boundaries_are_inclusive(self):
        assert judge(Number(4.0), iv(4, 6), iv(4, 6)) is Verdict.NO_SYMPTOM
        assert judge(Number(6.0), iv(4, 6), iv(0, 6)) is Verdict.NO_SYMPTOM

    def test_faulty_value_is_both(self):
        assert judge(Fault(FaultKind.DIV_BY_ZERO), iv(4, 6), iv(0, 10)) is Verdict.SYMPTOM_BOTH

    def test_faulty_bound_fails_the_model_check(self):
        fault = Fault(FaultKind.DIVISOR_CONTAINS_ZERO)
        assert judge(Number(5.0), iv(4, 6), fault) is Verdict.SYMPTOM_MODEL_MISMATCH
        assert judge(Number(7.0), iv(4, 6), fault) is Verdict.SYMPTOM_BOTH


class TestRunIntervalTest:
    def appended_sales(self):
        prog = load_program(
            "C2 = ?500\nC3 = ?1000\nC4 = ?300\nC5 = ?600\nC6 = ?900\n"
            "C7 = ?600\nC8 = =SUM(C2:C6)\n"
        )
        ranges = {
            parse_address(name): iv(0, 2000)
            for name in ["C2", "C3", "C4", "C5", "C6", "C7"]
        }
        spec = IntervalSpec(ranges, {parse_address("C8"): iv(3500, 4500)})
        return instantiate(prog), spec

    def test_escaped_row_shows_as_value_outside(self):
        inst, spec = self.appended_sales()
        report = run_interval_test(inst, spec)
        assert len(report.rows) == 1
        row = report.rows[0]
        assert str(row.cell) == "C8"
        assert row.value == Number(3300.0)
        assert row.bounding == iv(0.0, 10000.0)
        assert row.verdict is Verdict.SYMPTOM_VALUE_OUTSIDE
        assert [str(a) for a in row.suspects] == ["C2", "C3", "C4", "C5", "C6"]
        assert report.any_symptom()

    def test_cells_without_expectations_are_not_judged(self):
        prog = load_program("A1 = ?5\nB1 = =A1*2\nB2 = =A1*3\n")
        spec = IntervalSpec({}, {parse_address("B1"): iv(10, 10)})
        report = run_interval_test(instantiate(prog), spec)
        by_cell = {str(row.cell): row for row in report.rows}
        assert by_cell["B1"].verdict is Verdict.NO_SYMPTOM
        assert by_cell["B2"].verdict is Verdict.NOT_JUDGED
        assert by_cell["B2"].suspects == ()
        assert not report.any_symptom()

    def test_unlisted_inputs_hold_their_bound_value(self):
        prog = load_program("A1 = ?5\nB1 = =A1*2\n")
        inst = instantiate(prog, {parse_address("A1"): 8.0})
        spec = IntervalSpec({}, {parse_address("B1"): iv(16, 16)})
        report = run_interval_test(inst, spec)
        assert report.rows[0].bounding == iv(16.0, 16.0)
        assert report.rows[0].verdict is Verdict.NO_SYMPTOM

    def test_suspects_rank_symptomatic_before_clean_at_equal_distance(self):
        # D1 reads A9 (symptomatic formula) and B1 (clean constant);
        # row-major alone would put B1 first.
        prog = load_program("B1 = #2\nA9 = =Z1+1\nD1 = =A9+B1\n")
        spec = IntervalSpec(
            {},
            {parse_address("A9"): iv(5, 5), parse_address("D1"): iv(9, 9)},
        )
        report = run_interval_test(instantiate(prog), spec)
        by_cell = {str(row.cell): row for row in report.rows}
        assert by_cell["A9"].verdict is Verdict.SYMPTOM_BOTH
        assert by_cell["D1"].verdict is Verdict.SYMPTOM_BOTH
        assert [str(a) for a in by_cell["D1"].suspects] == ["A9", "B1", "Z1"]
        assert [str(a) for a in by_cell["A9"].suspects] == ["Z1"]

    def test_rows_come_in_row_major_order(self):
        prog = load_program("A1 = ?1\nC1 = =A1+1\nB2 = =A1+2\nA3 = =A1+3\n")
        report = run_interval_test(instantiate(prog), IntervalSpec({}, {}))
        assert [str(row.cell) for row in report.rows] == ["C1", "B2", "A3"]

    def test_expectation_on_non_formula_rejected(self):
        prog = load_program("A1 = ?5\nB1 = =A1*2\n")
        spec = IntervalSpec({}, {parse_address("A1"): iv(0, 10)})
        with pytest.raises(NotAFormulaCell):
            run_interval_test(instantiate(prog), spec)

    def test_peak_heap_stays_small_per_cell(self):
        # Points and ranges share one map, and a cell holds a (point,
        # ranged) pair only where its lanes differ; two full maps, one
        # per lane, take about 250 B per cell here.  The graph and
        # the occupied-cell index are the program's, shared by every
        # command, so they are built before tracing starts.
        program = load_program(filled_down(1000))
        spec = load_interval_spec(filled_down_spec(1000), program)
        instance = instantiate(program)
        build_graph(program).topo_order()
        cell_index(program)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            report = run_interval_test(instance, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(report.rows) == 1002
        assert (peak - base) / len(program.cells) <= 200


class TestRangeOnNonInput:
    """Specs built by hand, since the loader rejects such a range itself."""

    def spec_on(self, name):
        return IntervalSpec({parse_address(name): iv(0, 1)}, {})

    def test_a_cycle_is_raised_first(self):
        # B4 is a constant, and B1 -> B2 -> B3 -> B1 a loop.
        prog = load_program((FIXTURES / "cyclic.sheet").read_text())
        with pytest.raises(CyclicDependency):
            eval_intervals(prog, self.spec_on("B4"))
        with pytest.raises(CyclicDependency):
            run_interval_test(instantiate(prog), self.spec_on("B4"))

    def test_a_constant_is_rejected_by_every_caller(self):
        prog = load_program("A1 = #3\nA2 = ?4\nB1 = =A1+A2\n")
        spec = self.spec_on("A1")
        with pytest.raises(NotAnInputCell):
            run_interval_test(instantiate(prog), spec)
        with pytest.raises(NotAnInputCell):
            evaluate(instantiate(prog), spec.input_ranges, [])
        # The input beside it takes its range.
        bounds = evaluate(instantiate(prog), self.spec_on("A2").input_ranges, [])
        assert bounds[parse_address("B1")] == iv(3, 4)


class TestLoadIntervalSpec:
    PROGRAM = load_program("A1 = ?5\nA2 = ?6\nB1 = =A1+A2\n")

    def test_parses_inputs_and_expectations(self):
        spec = load_interval_spec(
            "; both inputs swing\ninput A1 in [4, 6]\n\n"
            "input A2 in [5.5, 7]\nexpect B1 in [9.5, 13]\n",
            self.PROGRAM,
        )
        assert spec.input_ranges == {
            parse_address("A1"): iv(4.0, 6.0),
            parse_address("A2"): iv(5.5, 7.0),
        }
        assert spec.expected == {parse_address("B1"): iv(9.5, 13.0)}

    def test_signed_and_exponent_endpoints(self):
        spec = load_interval_spec("input A1 in [-2e2, +1e3]\n", self.PROGRAM)
        assert spec.input_ranges[parse_address("A1")] == iv(-200.0, 1000.0)

    @pytest.mark.parametrize("endpoints", ["\u0661, 2", "1, \u0663", "\u0661e2, 3e2"])
    def test_other_scripts_digits_are_not_endpoints(self, endpoints):
        with pytest.raises(IntervalSpecError) as info:
            load_interval_spec(f"input A1 in [{endpoints}]\n", self.PROGRAM)
        assert str(info.value) == f"line 1: bad interval endpoints [{endpoints}]"

    def test_malformed_lines_carry_line_numbers(self):
        for bad in [
            "input A1 in [1 2]",
            "input A1 [1, 2]",
            "expect B1 in [1, 2",
            "check B1 in [1, 2]",
            "input A1 in [x, 2]",
        ]:
            with pytest.raises(IntervalSpecError) as info:
                load_interval_spec("; lead-in\n" + bad + "\n", self.PROGRAM)
            assert info.value.line == 2
            assert isinstance(info.value, LoadError)
            assert str(info.value).startswith("line 2: ")

    def test_non_finite_endpoints_rejected_with_line(self):
        for bad in ["input A1 in [0, 1e400]", "expect B1 in [-1e999, 0]"]:
            with pytest.raises(IntervalSpecError) as info:
                load_interval_spec("input A2 in [1, 2]\n" + bad + "\n", self.PROGRAM)
            assert info.value.line == 2
            assert "out of range" in str(info.value)

    def test_readme_examples_with_trailing_comments(self):
        program = load_program(
            "C2 = ?500\nC3 = ?1000\nC8 = =SUM(C2:C3)\n"
        )
        spec = load_interval_spec(
            "; bands for the interval test\n"
            "input C2 in [0, 2000]       ; C2 must be an input cell\n"
            "expect C8 in [3500, 4500]   ; C8 must be a formula cell\n",
            program,
        )
        assert spec.input_ranges == {parse_address("C2"): iv(0, 2000)}
        assert spec.expected == {parse_address("C8"): iv(3500, 4500)}

    def test_empty_interval_rejected(self):
        with pytest.raises(IntervalSpecError):
            load_interval_spec("input A1 in [3, 2]\n", self.PROGRAM)

    def test_duplicates_rejected(self):
        with pytest.raises(IntervalSpecError):
            load_interval_spec(
                "input A1 in [1, 2]\ninput A1 in [1, 3]\n", self.PROGRAM
            )
        with pytest.raises(IntervalSpecError):
            load_interval_spec(
                "expect B1 in [1, 2]\nexpect B1 in [1, 3]\n", self.PROGRAM
            )

    def test_wrong_cell_kinds_rejected(self):
        with pytest.raises(NotAnInputCell):
            load_interval_spec("input B1 in [1, 2]\n", self.PROGRAM)
        with pytest.raises(NotAFormulaCell):
            load_interval_spec("expect A1 in [1, 2]\n", self.PROGRAM)
