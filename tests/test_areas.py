"""Area inference tests: physical ranges, copy groups, shape groups."""

import pickle

import pytest

from sheetlint.areas import (
    copy_keys,
    infer_logical_areas,
    infer_physical_areas,
    skeletons,
    structural_groups,
)
from sheetlint.cli import main
from sheetlint.model import SpreadsheetProgram, load_program
from sheetlint.scl import CellAddress, copy_key

ONE_COLUMN_SUBTOTALS = (
    "H3 = #500\nH4 = #1000\nH5 = #900\nH6 = =SUM(H3:H5)\n"
    "H7 = #600\nH8 = #900\nH9 = #1000\nH10 = =SUM(H7:H9)\n"
    "H11 = #700\nH12 = #800\nH13 = #500\nH14 = =SUM(H11:H13)\n"
    "H15 = =H6+H10+H14\n"
)


def addrs(items):
    return [str(a) for a in items]


class TestPhysicalAreas:
    def test_one_grouping_call_one_area(self):
        prog = load_program(
            'B2 = "1. Quarter"\nB4 = #140\nB5 = #200\nB12 = =SUM(B2:B10)\n'
        )
        areas = infer_physical_areas(prog)
        assert len(areas) == 1
        area = areas[0]
        assert str(area.rect) == "B2:B10"
        assert str(area.consumer) == "B12"
        assert area.function == "SUM"
        assert str(area) == "SUM B2:B10 -> B12"

    def test_two_ranges_in_one_formula(self):
        prog = load_program(
            "A1 = #1\nA2 = #2\nB1 = #3\nB2 = #4\nC1 = =SUM(A1:A2)/SUM(B1:B2)\n"
        )
        areas = infer_physical_areas(prog)
        assert [str(a.rect) for a in areas] == ["A1:A2", "B1:B2"]
        assert all(str(a.consumer) == "C1" for a in areas)

    def test_nested_calls_list_by_call_then_argument(self, tmp_path, capsys):
        # Calls top-down, each call's range arguments left to right: the
        # inner SUM comes after MAX's own range, though it is written first.
        sheet = tmp_path / "nested.sheet"
        sheet.write_text(
            "A1 = ?1\nB1 = ?2\nC1 = ?3\nZ1 = =SUM(A1:A3)+MAX(SUM(B1:B2),C1:C4)\n"
        )
        assert main(["areas", str(sheet)]) == 0
        assert capsys.readouterr().out == (
            f"{sheet}: 3 physical area(s), 0 logical area(s)\n"
            "physical: SUM A1:A3 -> Z1 (mostly input)\n"
            "physical: MAX C1:C4 -> Z1 (mostly input)\n"
            "physical: SUM B1:B2 -> Z1 (mostly input)\n"
        )

    def test_shared_rectangle_yields_one_area_per_consumer(self):
        prog = load_program(
            "A1 = #1\nA2 = #2\nB1 = =SUM(A1:A2)\nB2 = =AVG(A1:A2)\n"
        )
        areas = infer_physical_areas(prog)
        assert [(str(a.consumer), a.function) for a in areas] == [
            ("B1", "SUM"),
            ("B2", "AVG"),
        ]

    def test_scalar_only_call_has_no_area(self):
        prog = load_program("A1 = #1\nA2 = #2\nB1 = =SUM(A1,A2)\n")
        assert infer_physical_areas(prog) == []

    def test_majority_type_counts_content_kinds(self):
        prog = load_program(
            'B2 = "1. Quarter"\nB4 = #140\nB5 = #200\nB7 = "2. Quarter"\n'
            "B8 = #180\nB12 = =SUM(B2:B10)\n"
        )
        assert infer_physical_areas(prog)[0].majority_type == "constant"

    def test_majority_tie_prefers_data_kinds(self):
        prog = load_program('A1 = #1\nA2 = "x"\nB1 = =SUM(A1:A2)\n')
        assert infer_physical_areas(prog)[0].majority_type == "constant"
        prog = load_program("A1 = ?1\nA2 = =A1+1\nB1 = =SUM(A1:A2)\n")
        assert infer_physical_areas(prog)[0].majority_type == "input"

    def test_majority_of_empty_range_is_none(self):
        prog = load_program("B1 = =COUNT(D1:D4)\n")
        assert infer_physical_areas(prog)[0].majority_type is None


class TestLogicalAreas:
    def test_subtotal_copies_form_one_area(self):
        areas = infer_logical_areas(load_program(ONE_COLUMN_SUBTOTALS))
        assert len(areas) == 1
        assert addrs(areas[0].members) == ["H6", "H10", "H14"]
        assert str(areas[0].hull) == "H6:H14"
        assert str(areas[0]) == "3 copies in H6:H14"

    def test_members_need_not_be_adjacent(self):
        prog = load_program("A1 = #1\nA9 = #2\nC1 = =A1*2\nC9 = =A9*2\n")
        areas = infer_logical_areas(prog)
        assert len(areas) == 1
        assert addrs(areas[0].members) == ["C1", "C9"]
        assert str(areas[0].hull) == "C1:C9"

    def test_same_text_different_meaning_is_not_a_copy(self):
        # Both cells read A1, but relative offsets differ.
        prog = load_program("A1 = #1\nC1 = =A1*2\nC2 = =A1*2\n")
        assert infer_logical_areas(prog) == []

    def test_absolute_references_pin_copies_together(self):
        prog = load_program("A1 = #1\nC1 = =$A$1*2\nD5 = =$A$1*2\n")
        areas = infer_logical_areas(prog)
        assert len(areas) == 1
        assert addrs(areas[0].members) == ["C1", "D5"]
        assert str(areas[0].hull) == "C1:D5"

    def test_areas_ordered_by_first_member(self):
        prog = load_program(
            "A1 = #1\nA2 = #2\n"
            "B1 = =A1*2\nB2 = =A2*2\n"
            "C1 = =$A$1+1\nD1 = =$A$1+1\n"
        )
        areas = infer_logical_areas(prog)
        assert [addrs(a.members) for a in areas] == [["B1", "B2"], ["C1", "D1"]]

    def test_interleaved_areas_ordered_by_first_member(self):
        # C1 and C3 are copies, and so are C2 and C4.
        prog = load_program("A1 = #1\nA3 = #3\nC1 = =A1*2\nC2 = =A1+2\nC3 = =A3*2\nC4 = =A3+2\n")
        # Built from a dict in reverse row-major order, with no copy classes.
        by_hand = SpreadsheetProgram(dict(reversed(prog.cells.items())))
        assert by_hand.copy_classes == {}
        for program in (prog, by_hand):
            areas = infer_logical_areas(program)
            assert [addrs(a.members) for a in areas] == [["C1", "C3"], ["C2", "C4"]]


class TestStructuralGroups:
    def test_shape_alike_formulas_group(self):
        prog = load_program("A1 = #1\nB7 = #2\nC1 = =A1*2\nC9 = =B7*3\n")
        groups = structural_groups(prog)
        assert len(groups) == 1
        assert addrs(groups[0].members) == ["C1", "C9"]

    def test_groups_ordered_by_first_member(self):
        prog = load_program("A1 = #1\nA2 = #2\nC1 = =A1*2\nC2 = =A1+2\nC3 = =A2*3\nC4 = =A2+3\n")
        # Built from a dict in reverse row-major order, with no copy classes.
        by_hand = SpreadsheetProgram(dict(reversed(prog.cells.items())))
        assert by_hand.copy_classes == {}
        for program in (prog, by_hand):
            groups = structural_groups(program)
            assert [addrs(g.members) for g in groups] == [["C1", "C3"], ["C2", "C4"]]

    def test_different_operator_splits_the_group(self):
        prog = load_program("A1 = #1\nC1 = =A1+2\nC2 = =A1*2\n")
        assert structural_groups(prog) == []

    def test_copies_share_a_group_with_near_misses(self):
        prog = load_program(
            "A1 = #1\nA2 = #2\nA3 = #3\n"
            "C1 = =A1*2\nC2 = =A2*2\nC3 = =$A$3*9\n"
        )
        groups = structural_groups(prog)
        assert len(groups) == 1
        assert addrs(groups[0].members) == ["C1", "C2", "C3"]
        # The exact copies also form a logical area inside the group.
        areas = infer_logical_areas(prog)
        assert len(areas) == 1
        assert addrs(areas[0].members) == ["C1", "C2"]


class TestCopyKeys:
    def test_one_key_per_formula_cell(self):
        prog = load_program(ONE_COLUMN_SUBTOTALS)
        keys = copy_keys(prog)
        assert addrs(keys) == ["H6", "H10", "H14", "H15"]
        assert keys[CellAddress(8, 15)] == copy_key(
            prog.content(CellAddress(8, 15)).ast, CellAddress(8, 15)
        )

    def test_copies_spelled_alike_share_one_key_and_skeleton(self):
        prog = load_program("A1 = ?1\nA2 = ?2\nA3 = ?3\nB1 = =A1*2\nB2 = =a2*2\nB3 = =A3 *2\n")
        keys, shapes = copy_keys(prog), skeletons(prog)
        b1, b2, b3 = (CellAddress(2, row) for row in (1, 2, 3))
        assert keys[b2] is keys[b1] and shapes[b2] is shapes[b1]
        # Spelled otherwise, a copy starts a class of its own.
        assert keys[b3] == keys[b1] and keys[b3] is not keys[b1]
        # A program built from its cells has one class per formula.
        rebuilt = SpreadsheetProgram(prog.cells)
        assert rebuilt.copy_classes == {}
        assert copy_keys(rebuilt) == keys and copy_keys(rebuilt)[b2] is not copy_keys(rebuilt)[b1]


@pytest.mark.parametrize(
    "build", [infer_physical_areas, infer_logical_areas, structural_groups, copy_keys, skeletons]
)
class TestBuiltOncePerProgram:
    def test_second_call_returns_the_same_object(self, build):
        prog = load_program(ONE_COLUMN_SUBTOTALS)
        assert build(prog) is build(prog)

    def test_equal_program_builds_its_own(self, build):
        prog, other = load_program(ONE_COLUMN_SUBTOTALS), load_program(ONE_COLUMN_SUBTOTALS)
        assert prog == other
        first = build(prog)
        assert build(other) is not first
        assert build(other) == first

    def test_program_pickles_after_building(self, build):
        prog = load_program(ONE_COLUMN_SUBTOTALS)
        first = build(prog)
        copy = pickle.loads(pickle.dumps(prog))
        assert copy == prog and build(copy) == first
