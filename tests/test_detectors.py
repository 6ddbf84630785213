"""Detector tests: one class per code, plus the combined stable listing."""

import random

import pytest

from sheetlint.areas import LogicalArea, PhysicalArea, infer_physical_areas
from sheetlint.detectors import (
    Code,
    Diagnostic,
    Severity,
    detect_all,
    detect_area_mixup,
    detect_blank_ref,
    detect_constant_overwrite,
    detect_copy_misreference,
    detect_incorrect_range,
    detect_wrong_type_in_range,
)
from sheetlint.evaluator import eval_instance
from sheetlint.model import instantiate, load_program
from sheetlint.scl import CellAddress, CellRef, RangeRef, row_major

QUARTERLY = (
    'B2 = "1. Quarter"\nB4 = #140\nB5 = #200\nB6 = #170\n'
    'B7 = "2. Quarter"\nB8 = #180\nB9 = #230\nB10 = #100\n'
    "B12 = =SUM(B2:B10)\n"
)

ONE_COLUMN_SUBTOTALS = (
    "H3 = #500\nH4 = #1000\nH5 = #900\nH6 = =SUM(H3:H5)\n"
    "H7 = #600\nH8 = #900\nH9 = #1000\nH10 = =SUM(H7:H9)\n"
    "H11 = #700\nH12 = #800\nH13 = #500\nH14 = =SUM(H11:H13)\n"
    "H15 = =H6+H10+H14\n"
)


def fired(diags):
    return [(d.code.value, [str(c) for c in d.cells]) for d in diags]


class TestBlankRef:
    def test_covered_empty_cell(self):
        diags = detect_blank_ref(load_program(QUARTERLY))
        assert fired(diags) == [("D1_BLANK_REF", ["B3"])]
        assert diags[0].severity is Severity.WARNING

    def test_direct_reference_to_empty(self):
        diags = detect_blank_ref(load_program("A2 = =D4+1\n"))
        assert fired(diags) == [("D1_BLANK_REF", ["D4"])]

    def test_repeated_reads_report_once_per_formula(self):
        diags = detect_blank_ref(load_program("A2 = =A1+A1*SUM(A1:A1)\n"))
        assert fired(diags) == [("D1_BLANK_REF", ["A1"])]

    def test_each_reading_formula_reports(self):
        diags = detect_blank_ref(load_program("A2 = =D4+1\nA3 = =D4*2\n"))
        assert fired(diags) == [
            ("D1_BLANK_REF", ["D4"]),
            ("D1_BLANK_REF", ["D4"]),
        ]

    def test_dense_range_is_quiet(self):
        prog = load_program("A1 = #1\nA2 = #2\nB1 = =SUM(A1:A2)\n")
        assert detect_blank_ref(prog) == []


class TestWrongTypeInRange:
    def test_labels_inside_grouping_range(self):
        diags = detect_wrong_type_in_range(load_program(QUARTERLY))
        assert fired(diags) == [
            ("D2_WRONG_TYPE_IN_RANGE", ["B2"]),
            ("D2_WRONG_TYPE_IN_RANGE", ["B7"]),
        ]

    def test_message_states_the_hazard(self):
        diags = detect_wrong_type_in_range(load_program(QUARTERLY))
        assert "silently join the aggregate" in diags[0].message

    def test_carries_the_physical_area(self):
        diags = detect_wrong_type_in_range(load_program(QUARTERLY))
        assert isinstance(diags[0].area, PhysicalArea)
        assert str(diags[0].area) == "SUM B2:B10 -> B12"

    def test_label_outside_any_range_is_fine(self):
        prog = load_program('A1 = "Sales"\nB1 = #1\nB2 = #2\nB3 = =SUM(B1:B2)\n')
        assert detect_wrong_type_in_range(prog) == []

    def test_label_read_by_scalar_reference_is_not_this_code(self):
        prog = load_program('A1 = "x"\nA2 = =A1+1\n')
        assert detect_wrong_type_in_range(prog) == []


class TestIncorrectRange:
    def test_appended_row_beyond_the_range(self):
        prog = load_program(
            "C2 = #500\nC3 = #1000\nC4 = #300\nC5 = #600\nC6 = #900\n"
            "C7 = #600\nC8 = =SUM(C2:C6)\n"
        )
        diags = detect_incorrect_range(prog)
        assert fired(diags) == [("D3_INCORRECT_RANGE", ["C7"])]
        assert str(diags[0].area) == "SUM C2:C6 -> C8"

    def test_value_above_the_range_counts_too(self):
        prog = load_program(
            "C1 = #100\nC2 = #500\nC3 = #1000\nD1 = =SUM(C2:C3)\n"
        )
        assert fired(detect_incorrect_range(prog)) == [("D3_INCORRECT_RANGE", ["C1"])]

    def test_consumer_next_to_its_own_range_is_fine(self):
        prog = load_program("C2 = #500\nC3 = #1000\nC4 = =SUM(C2:C3)\n")
        assert detect_incorrect_range(prog) == []

    def test_different_kind_next_to_range_is_fine(self):
        prog = load_program(
            'C1 = "Sales"\nC2 = #500\nC3 = #1000\nD1 = =SUM(C2:C3)\n'
        )
        assert detect_incorrect_range(prog) == []

    def test_wide_range_checks_columns(self):
        prog = load_program(
            "A1 = #1\nB1 = #2\nC1 = #3\nD1 = #4\nA3 = =SUM(A1:C1)\n"
        )
        assert fired(detect_incorrect_range(prog)) == [("D3_INCORRECT_RANGE", ["D1"])]

    def test_square_range_checks_rows(self):
        prog = load_program(
            "A2 = #1\nB2 = #2\nA3 = #3\nB3 = #4\nB4 = #5\nD9 = =SUM(A2:B3)\n"
        )
        assert fired(detect_incorrect_range(prog)) == [("D3_INCORRECT_RANGE", ["B4"])]

    def test_gap_beyond_the_end_is_fine(self):
        # One step only: a value two rows past the range does not count.
        prog = load_program("C2 = #500\nC3 = #1000\nC5 = #900\nD1 = =SUM(C2:C3)\n")
        assert detect_incorrect_range(prog) == []


class TestAreaMixup:
    def test_overlapping_ranges(self):
        prog = load_program(
            "B2 = #1\nB3 = #2\nB8 = #3\nB9 = #4\nB10 = #5\nB11 = #6\nB12 = #7\n"
            "D1 = =SUM(B2:B10)\nD2 = =SUM(B8:B12)\n"
        )
        diags = detect_area_mixup(prog)
        assert fired(diags) == [("D4_AREA_MIXUP", ["D1", "D2"])]
        assert "B8:B10" in diags[0].message

    def test_three_term_chain_in_one_column(self):
        diags = detect_area_mixup(load_program(ONE_COLUMN_SUBTOTALS))
        assert fired(diags) == [("D4_AREA_MIXUP", ["H15"])]
        assert "SUM(H6:H14)" in diags[0].message

    def test_two_term_chain_is_fine(self):
        prog = load_program(
            "C3 = #500\nC4 = #1000\nD6 = =SUM(C3:C4)\n"
            "C7 = #600\nC8 = #900\nD10 = =SUM(C7:C8)\nD11 = =D6+D10\n"
        )
        assert detect_area_mixup(prog) == []

    def test_chain_threshold_is_configurable(self):
        prog = load_program(ONE_COLUMN_SUBTOTALS)
        assert detect_area_mixup(prog, chain_threshold=4) == []
        assert len(detect_area_mixup(prog, chain_threshold=3)) == 1

    def test_row_chain_names_the_row(self):
        prog = load_program("A1 = #1\nB1 = #2\nC1 = #3\nA3 = =A1+B1+C1\n")
        diags = detect_area_mixup(prog)
        assert fired(diags) == [("D4_AREA_MIXUP", ["A3"])]
        assert "row 1" in diags[0].message

    def test_diagonal_chain_is_fine(self):
        prog = load_program("A1 = #1\nB2 = #2\nC3 = #3\nE1 = =A1+B2+C3\n")
        assert detect_area_mixup(prog) == []

    def test_mixed_operators_break_the_chain(self):
        prog = load_program(
            "H6 = #1\nH10 = #2\nH14 = #3\n"
            "H15 = =H6-H10-H14\nH16 = =H6+H10+H14*2\n"
        )
        assert detect_area_mixup(prog) == []


class TestConstantOverwrite:
    def test_constant_inside_a_run_of_copies(self):
        prog = load_program(
            "A1 = #1\nA2 = #2\nA3 = #3\nA4 = #4\n"
            "C1 = =A1+1\nC2 = =A2+1\nC3 = #99\nC4 = =A4+1\n"
        )
        diags = detect_constant_overwrite(prog)
        assert fired(diags) == [("D5_CONSTANT_OVERWRITE", ["C3"])]
        assert isinstance(diags[0].area, LogicalArea)
        assert str(diags[0].area.hull) == "C1:C4"

    def test_input_stranger_flags_too(self):
        prog = load_program(
            "A1 = #1\nA2 = #2\nA4 = #4\n"
            "C1 = =A1+1\nC2 = =A2+1\nC3 = ?99\nC4 = =A4+1\n"
        )
        assert fired(detect_constant_overwrite(prog)) == [
            ("D5_CONSTANT_OVERWRITE", ["C3"])
        ]

    def test_label_stranger_is_fine(self):
        prog = load_program(
            'A1 = #1\nA2 = #2\nA4 = #4\n'
            'C1 = =A1+1\nC2 = =A2+1\nC3 = "Subtotal"\nC4 = =A4+1\n'
        )
        assert detect_constant_overwrite(prog) == []

    def test_two_copies_are_not_enough(self):
        prog = load_program(
            "A1 = #1\nA3 = #3\nC1 = =A1+1\nC2 = #99\nC3 = =A3+1\n"
        )
        assert detect_constant_overwrite(prog) == []

    def test_subtotal_sheet_flags_the_sales_between_subtotals(self):
        diags = detect_constant_overwrite(load_program(ONE_COLUMN_SUBTOTALS))
        assert fired(diags) == [
            ("D5_CONSTANT_OVERWRITE", ["H7"]),
            ("D5_CONSTANT_OVERWRITE", ["H8"]),
            ("D5_CONSTANT_OVERWRITE", ["H9"]),
            ("D5_CONSTANT_OVERWRITE", ["H11"]),
            ("D5_CONSTANT_OVERWRITE", ["H12"]),
            ("D5_CONSTANT_OVERWRITE", ["H13"]),
        ]

    def test_wide_hull_is_fine(self):
        # Three copies spread over two columns bound no single row or
        # column, so the constant between them stays unflagged.
        prog = load_program(
            "A1 = #1\n"
            "C1 = =$A$1+1\nC3 = =$A$1+1\nD2 = =$A$1+1\nC2 = #99\n"
        )
        assert detect_constant_overwrite(prog) == []


class TestCopyMisreference:
    def test_flipped_markers_flag_the_deviant(self):
        prog = load_program(
            "A1 = #1\nA2 = #2\nA3 = #3\nA4 = #4\nB1 = #9\nB2 = #9\nB4 = #9\n"
            "C1 = =A1*B1\nC2 = =A2*B2\nC3 = =A3*$B$1\nC4 = =A4*B4\n"
        )
        diags = detect_copy_misreference(prog)
        assert fired(diags) == [("D6_COPY_MISREFERENCE", ["C3"])]
        assert diags[0].severity is Severity.WARNING

    def test_literal_deviation_flags(self):
        prog = load_program(
            "A1 = #1\nA2 = #2\nA3 = #3\nA4 = #4\n"
            "C1 = =A1*2\nC2 = =A2*2\nC3 = =A3*9\nC4 = =A4*2\n"
        )
        assert fired(detect_copy_misreference(prog)) == [
            ("D6_COPY_MISREFERENCE", ["C3"])
        ]

    def test_even_split_is_fine(self):
        prog = load_program(
            "A1 = #1\nA2 = #2\n"
            "C1 = =A1*2\nC2 = =A2*2\nC3 = =$A$1*2\nC4 = =$A$1*2\n"
        )
        assert detect_copy_misreference(prog) == []

    def test_offset_deviation_is_not_this_code(self):
        # Same markers, different target: a different formula, not a
        # marker slip.
        prog = load_program(
            "A1 = #1\nA2 = #2\nA4 = #4\n"
            "C1 = =A1*2\nC2 = =A2*2\nC3 = =A4*2\n"
        )
        assert detect_copy_misreference(prog) == []

    def test_two_members_are_not_enough(self):
        prog = load_program("A1 = #1\nC1 = =A1*2\nC2 = =$A$1*2\n")
        assert detect_copy_misreference(prog) == []

    def test_range_marker_deviation_flags(self):
        prog = load_program(
            "A1 = #1\nA2 = #1\nB1 = #2\nB2 = #2\nC1 = #3\nC2 = #3\n"
            "A4 = =SUM(A1:A2)\nB4 = =SUM(B1:B2)\nC4 = =SUM($C$1:$C$2)\n"
        )
        assert fired(detect_copy_misreference(prog)) == [
            ("D6_COPY_MISREFERENCE", ["C4"])
        ]


class TestDetectAll:
    def test_pinned_set_for_the_quarterly_sheet(self):
        diags = detect_all(load_program(QUARTERLY))
        assert fired(diags) == [
            ("D1_BLANK_REF", ["B3"]),
            ("D2_WRONG_TYPE_IN_RANGE", ["B2"]),
            ("D2_WRONG_TYPE_IN_RANGE", ["B7"]),
        ]

    def test_output_ignores_source_line_order(self):
        lines = QUARTERLY.strip().splitlines()
        forward = detect_all(load_program("\n".join(lines)))
        backward = detect_all(load_program("\n".join(reversed(lines))))
        assert forward == backward

    def test_clean_sheet_is_empty(self):
        prog = load_program(
            "C3 = #500\nC4 = #1000\nC5 = #900\nD6 = =SUM(C3:C5)\n"
            "C7 = #600\nC8 = #900\nC9 = #1000\nD10 = =SUM(C7:C9)\n"
            "D11 = =D6+D10\n"
        )
        assert detect_all(prog) == []

    def test_cycle_is_an_error_without_a_result(self):
        diags = detect_all(load_program("A1 = =B1+1\nB1 = =A1+1\n"))
        assert fired(diags) == [("G_CYCLE", ["A1", "B1"])]
        assert diags[0].severity is Severity.ERROR
        assert "A1 -> B1 -> A1" in diags[0].message

    def test_division_by_zero_needs_a_result(self):
        prog = load_program("A1 = #0\nA2 = =1/A1\nA3 = =2/A1\n")
        assert detect_all(prog) == []
        result = eval_instance(instantiate(prog))
        diags = detect_all(prog, result)
        assert fired(diags) == [
            ("G_DIV_ZERO", ["A2"]),
            ("G_DIV_ZERO", ["A3"]),
        ]
        assert all(d.severity is Severity.WARNING for d in diags)

    def test_codes_sort_before_cells(self):
        prog = load_program(
            'Z1 = "x"\nA2 = =D9+1\nB1 = #1\nB2 = #2\n'
            "C1 = =SUM(Z1:Z1)+SUM(B1:B2)\n"
        )
        diags = detect_all(prog)
        codes = [d.code.value for d in diags]
        assert codes == sorted(codes)


class TestAreaMixupPairs:
    """The row sweep in D4 against the plain all-pairs loop."""

    @staticmethod
    def all_pairs(areas):
        out = []
        for i, first in enumerate(areas):
            for second in areas[i + 1 :]:
                shared = first.rect.overlap(second.rect)
                if shared is None:
                    continue
                subjects = sorted({first.consumer, second.consumer}, key=row_major)
                out.append(
                    Diagnostic(
                        Code.D4_AREA_MIXUP,
                        Severity.WARNING,
                        tuple(subjects),
                        f"ranges {first.rect} (of {first.consumer}) and "
                        f"{second.rect} (of {second.consumer}) overlap at {shared}",
                        area=first,
                    )
                )
        out.sort(
            key=lambda d: (d.code.value, tuple(row_major(a) for a in d.cells), d.message)
        )
        return out

    @staticmethod
    def random_rect(rng):
        c1, c2 = sorted(rng.randint(1, 5) for _ in range(2))
        r1, r2 = sorted(rng.randint(1, 14) for _ in range(2))
        return RangeRef(CellRef(c1, r1), CellRef(c2, r2))

    @classmethod
    def random_areas(cls, rng, count):
        # Half the rectangles come from a pool of three, and there are
        # few consumers and two functions, so equal messages from
        # different areas (ties under the sort key) occur too.
        pool = [cls.random_rect(rng) for _ in range(3)]
        areas = []
        for _ in range(count):
            areas.append(
                PhysicalArea(
                    rect=rng.choice(pool) if rng.random() < 0.5 else cls.random_rect(rng),
                    consumer=CellAddress(rng.randint(6, 7), rng.randint(1, 3)),
                    function=rng.choice(["SUM", "AVG"]),
                    majority_type=None,
                )
            )
        return areas

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_all_pairs(self, seed):
        rng = random.Random(seed)
        areas = self.random_areas(rng, rng.randint(0, 40))
        got = detect_area_mixup(load_program(""), physical=areas)
        assert got == self.all_pairs(areas)
        assert [d.area for d in got] == [d.area for d in self.all_pairs(areas)]

    def test_given_areas_match_inferred(self):
        prog = load_program(
            "A1 = #1\nA2 = #2\nA3 = #3\nB1 = =SUM(A1:A2)+AVG(A1:A3)\nB2 = =SUM(A2:A3)\n"
        )
        physical = infer_physical_areas(prog)
        assert detect_area_mixup(prog, physical=physical) == detect_area_mixup(prog)
        assert len(detect_area_mixup(prog)) == 3
