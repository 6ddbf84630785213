"""Concrete evaluator tests: coercions, faults, grouping semantics."""

import pytest

from sheetlint.dataflow import CyclicDependency
from sheetlint.evaluator import (
    EvalResult,
    Fault,
    FaultKind,
    NoteKind,
    Number,
    RuntimeNote,
    Text,
    eval_instance,
)
from sheetlint.model import instantiate, load_program
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

    def test_blank_coerces_to_zero_with_note(self):
        result = run("A2 = =A1+1\n")
        assert value(result, "A2") == Number(1.0)
        assert result.notes == (
            RuntimeNote(
                NoteKind.BLANK_IN_ARITHMETIC,
                parse_address("A2"),
                parse_address("A1"),
            ),
        )

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
    def test_sum_skips_blank_and_text_with_notes(self):
        result = run(
            'B2 = "1. Quarter"\nB4 = #140\nB5 = #200\nB6 = #170\n'
            'B7 = "2. Quarter"\nB8 = #180\nB9 = #230\nB10 = #100\n'
            "B12 = =SUM(B2:B10)\n"
        )
        host = parse_address("B12")
        assert value(result, "B12") == Number(1020.0)
        assert result.notes == (
            RuntimeNote(NoteKind.SKIPPED_NON_NUMERIC, host, parse_address("B2")),
            RuntimeNote(NoteKind.SKIPPED_NON_NUMERIC, host, parse_address("B3")),
            RuntimeNote(NoteKind.SKIPPED_NON_NUMERIC, host, parse_address("B7")),
        )

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


class TestRootCoercion:
    def test_bare_reference_to_constant(self):
        result = run("A1 = #5\nA2 = =A1\n")
        assert value(result, "A2") == Number(5.0)

    def test_bare_reference_to_blank_is_zero(self):
        result = run("A2 = =A1\n")
        assert value(result, "A2") == Number(0.0)
        assert result.notes[0].kind is NoteKind.BLANK_IN_ARITHMETIC

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
