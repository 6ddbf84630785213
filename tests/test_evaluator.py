"""Concrete evaluator tests: coercions, faults, grouping semantics."""

import pytest

from sheetlint.dataflow import CyclicDependency
from sheetlint.detectors import Code, detect_all
from sheetlint.evaluator import (
    EvalResult,
    Fault,
    FaultKind,
    Interval,
    NoteKind,
    Number,
    RuntimeNote,
    Text,
    eval_instance,
    evaluate_lanes,
)
from sheetlint.model import CellIndex, instantiate, load_program
from sheetlint.scl import parse_address


def run(text, bindings=None):
    prog = load_program(text)
    addr_bindings = None
    if bindings:
        addr_bindings = {parse_address(a): v for a, v in bindings.items()}
    return eval_instance(instantiate(prog, addr_bindings))


def value(result: EvalResult, name: str):
    return result.values[parse_address(name)]


class TestPlainCells:
    def test_each_kind_evaluates_to_its_value(self):
        result = run('A1 = #1.5\nA2 = ?2\nA3 = "note"\nA4 = =A1+A2\n')
        assert value(result, "A1") == Number(1.5)
        assert value(result, "A2") == Number(2.0)
        assert value(result, "A3") == Text("note")
        assert value(result, "A4") == Number(3.5)

    def test_bindings_override_input_defaults(self):
        result = run("A1 = ?2\nA2 = =A1*10\n", bindings={"A1": 7.0})
        assert value(result, "A2") == Number(70.0)

    def test_values_cover_exactly_the_non_empty_cells(self):
        result = run("A1 = #1\nC9 = =A1+A2\n")
        assert sorted(str(a) for a in result.values) == ["A1", "C9"]


class TestScalarArithmetic:
    def test_operator_meanings(self):
        result = run(
            "A1 = #9\nA2 = #2\n"
            "B1 = =A1+A2\nB2 = =A1-A2\nB3 = =A1*A2\nB4 = =A1/A2\nB5 = =-A1\n"
        )
        assert value(result, "B1") == Number(11.0)
        assert value(result, "B2") == Number(7.0)
        assert value(result, "B3") == Number(18.0)
        assert value(result, "B4") == Number(4.5)
        assert value(result, "B5") == Number(-9.0)

    def test_blank_coerces_to_zero_silently(self):
        # D1 reports the empty cell read; evaluation notes nothing.
        result = run("A2 = =A1+1\n")
        assert value(result, "A2") == Number(1.0)
        assert result.notes == ()

    def test_text_in_arithmetic_is_a_type_fault(self):
        result = run('A1 = "x"\nA2 = =A1+1\n')
        assert value(result, "A2") == Fault(FaultKind.TYPE_ERROR)
        kinds = [n.kind for n in result.notes]
        assert NoteKind.TYPE_ERROR in kinds

    def test_division_by_zero_faults(self):
        result = run("A1 = #1\nA2 = =A1/0\n")
        assert value(result, "A2") == Fault(FaultKind.DIV_BY_ZERO)
        assert result.notes == (
            RuntimeNote(NoteKind.DIV_BY_ZERO, parse_address("A2"), None),
        )

    def test_division_by_zero_valued_cell(self):
        result = run("A1 = #0\nA2 = =1/A1\nA3 = =1/A1+9\n")
        assert value(result, "A2") == Fault(FaultKind.DIV_BY_ZERO)
        # The fault arises in the subterm; the enclosing + propagates it.
        assert value(result, "A3") == Fault(FaultKind.PROPAGATED)

    def test_faults_propagate(self):
        result = run("A1 = #1\nA2 = =A1/0\nA3 = =A2+1\nA4 = =-A3\n")
        assert value(result, "A3") == Fault(FaultKind.PROPAGATED)
        assert value(result, "A4") == Fault(FaultKind.PROPAGATED)

    def test_left_operand_fault_wins(self):
        result = run('A1 = "x"\nA2 = =A1+1/0\n')
        assert value(result, "A2") == Fault(FaultKind.TYPE_ERROR)


class TestGroupingFunctions:
    def test_sum_skips_blank_and_text_silently(self):
        # D1 and D2 report the empty cell and the labels; evaluation
        # notes nothing.
        result = run(
            'B2 = "1. Quarter"\nB4 = #140\nB5 = #200\nB6 = #170\n'
            'B7 = "2. Quarter"\nB8 = #180\nB9 = #230\nB10 = #100\n'
            "B12 = =SUM(B2:B10)\n"
        )
        assert value(result, "B12") == Number(1020.0)
        assert result.notes == ()

    def test_avg_min_max_count(self):
        text = 'A1 = #10\nA2 = "gap"\nA4 = #30\n'
        result = run(
            text + "B1 = =AVG(A1:A4)\nB2 = =MIN(A1:A4)\n"
            "B3 = =MAX(A1:A4)\nB4 = =COUNT(A1:A4)\n"
        )
        assert value(result, "B1") == Number(20.0)
        assert value(result, "B2") == Number(10.0)
        assert value(result, "B3") == Number(30.0)
        assert value(result, "B4") == Number(2.0)

    def test_scalar_args_join_the_aggregate(self):
        result = run("A1 = #1\nA2 = #2\nB1 = =SUM(A1:A2,A1,10)\n")
        assert value(result, "B1") == Number(14.0)

    def test_count_counts_numbers_only(self):
        result = run('A1 = #1\nA2 = "x"\nB1 = =COUNT(A1:A3)\n')
        assert value(result, "B1") == Number(1.0)

    def test_empty_avg_is_a_division_fault(self):
        result = run("B1 = =AVG(A1:A3)\n")
        assert value(result, "B1") == Fault(FaultKind.DIV_BY_ZERO)

    def test_empty_sum_min_max_are_type_faults(self):
        result = run("B1 = =SUM(A1:A3)\nB2 = =MIN(A1:A3)\nB3 = =MAX(A1:A3)\n")
        for name in ["B1", "B2", "B3"]:
            assert value(result, name) == Fault(FaultKind.TYPE_ERROR)

    def test_empty_count_is_zero(self):
        result = run("B1 = =COUNT(A1:A3)\n")
        assert value(result, "B1") == Number(0.0)

    def test_fault_in_range_propagates(self):
        result = run("A1 = #1\nA2 = =1/0+A1\nB1 = =SUM(A1:A2)\n")
        assert value(result, "B1") == Fault(FaultKind.PROPAGATED)

    def test_multi_column_sum_adds_row_by_row(self):
        # These six numbers sum to different floats in row-major and in
        # column-major order, under plain and compensated summation alike.
        grid = [[1e50, 3.0, 1e16], [-1e50, 3.0, 7.0]]
        text = "".join(
            f"{col}{row} = #{grid[row - 1][k]!r}\n"
            for row in (1, 2)
            for k, col in enumerate("ABC")
        )
        result = run(text + "D1 = =SUM(A1:C2)\nD2 = =AVG(A1:C2)\n")
        row_major = [x for line in grid for x in line]
        column_major = [line[k] for k in range(3) for line in grid]
        assert sum(row_major) != sum(column_major)
        assert value(result, "D1") == Number(sum(row_major))
        assert value(result, "D2") == Number(sum(row_major) / 6)


class TestNoteOrder:
    # Only a fault that starts is noted, never a blank or a label read:
    # these cases pin the values of formulas that read them.
    def test_notes_follow_the_post_order_of_their_node(self):
        result = run("C1 = =SUM(A1, B1+1)\n")
        assert value(result, "C1") == Number(1.0)

    def test_range_notes_by_top_left_cell(self):
        # Column A holds a label over a run of three empty cells, column
        # B a run of one, a number, and a run of two.
        result = run('A1 = "x"\nB2 = #1\nC1 = =SUM(A1:B4)\n')
        assert value(result, "C1") == Number(1.0)

    def test_empty_run_is_one_note(self):
        result = run("B1 = =COUNT(A1:A99999999)\n")
        assert value(result, "B1") == Number(0.0)

    def test_operands_then_operator(self):
        result = run("C1 = =(A1+1)*(B1+1)/A2\n")
        assert value(result, "C1") == Fault(FaultKind.DIV_BY_ZERO)
        assert result.notes == (
            RuntimeNote(NoteKind.DIV_BY_ZERO, parse_address("C1"), parse_address("A2")),
        )


class TestRootCoercion:
    def test_bare_reference_to_constant(self):
        result = run("A1 = #5\nA2 = =A1\n")
        assert value(result, "A2") == Number(5.0)

    def test_bare_reference_to_blank_is_zero(self):
        result = run("A2 = =A1\n")
        assert value(result, "A2") == Number(0.0)

    def test_bare_reference_to_a_fault_keeps_its_kind(self):
        # Only Blank and Text are coerced at the root: B2 holds B1's
        # fault as it is, not PROPAGATED, and only B1 divides by zero.
        text = "A1 = #0\nA2 = #3\nB1 = =A2/A1\nB2 = =B1\n"
        result = run(text)
        assert value(result, "B1") == value(result, "B2") == Fault(FaultKind.DIV_BY_ZERO)
        found = detect_all(load_program(text), result)
        assert [(d.code, d.cells) for d in found] == [
            (Code.G_DIV_ZERO, (parse_address("B1"),))
        ]

    def test_bare_reference_to_label_is_a_type_fault(self):
        result = run('A1 = "x"\nA2 = =A1\n')
        assert value(result, "A2") == Fault(FaultKind.TYPE_ERROR)


class TestEvalInstance:
    def test_cycle_raises(self):
        prog = load_program("A1 = =B1+1\nB1 = =A1+1\n")
        with pytest.raises(CyclicDependency):
            eval_instance(instantiate(prog))

    def test_chained_formulas_evaluate_in_dependency_order(self):
        result = run("A3 = =A2*2\nA2 = =A1*2\nA1 = #3\n")
        assert value(result, "A3") == Number(12.0)


class TestOccupiedCellsOnly:
    """A range reads its occupied cells alone: evaluation never asks
    the index for the empty runs between them."""

    # Six numbers spread over 2.6 million addresses, which sum to
    # different floats in row-major and in column-major order, a label
    # among them, and a range of two columns over a label and a fault.
    SHEET = (
        "A1 = #1e50\nM1 = #3\nZ1 = #1e16\n"
        'M50000 = "gap"\n'
        "A99999 = #-1e50\nM99999 = ?3\nZ99999 = #7\n"
        "AA1 = =SUM(A1:Z100000)\nAA2 = =COUNT(A1:Z100000)\n"
        'AB7 = =M1/0\nAC9 = "x"\nAD1 = =SUM(AB1:AC100000)\n'
        "AE1 = =COUNT(BA1:ZZZ1000000)\n"
    )
    ROW_MAJOR = [1e50, 3.0, 1e16, -1e50, 3.0, 7.0]

    @pytest.fixture(autouse=True)
    def no_empty_runs(self, monkeypatch):
        def walked(index, rect):
            raise AssertionError(f"read the empty runs of {rect}")

        monkeypatch.setattr(CellIndex, "empty_runs", walked)
        monkeypatch.setattr(CellIndex, "parts", walked)

    def test_concrete_run(self):
        result = eval_instance(instantiate(load_program(self.SHEET)))
        column_major = [1e50, -1e50, 3.0, 3.0, 1e16, 7.0]
        assert sum(self.ROW_MAJOR) != sum(column_major)
        assert value(result, "AA1") == Number(sum(self.ROW_MAJOR))
        assert value(result, "AA2") == Number(6.0)
        assert value(result, "AD1") == Fault(FaultKind.PROPAGATED)
        assert value(result, "AE1") == Number(0.0)

    def test_two_lane_run(self):
        program = load_program(self.SHEET)
        held = evaluate_lanes(instantiate(program), {parse_address("M99999"): Interval(2.0, 4.0)})
        total = sum(self.ROW_MAJOR)
        low, high = (sum([*self.ROW_MAJOR[:4], x, 7.0]) for x in (2.0, 4.0))
        six = Interval(6.0, 6.0)
        at = parse_address
        assert held[at("AA1")] == (Interval(total, total), Interval(low, high))
        assert held[at("AA2")] == (six, six)
        assert held[at("AD1")] == Fault(FaultKind.PROPAGATED)
        assert held[at("AE1")] == Interval(0.0, 0.0)
