"""Detector tests: one class per code, plus the combined stable listing."""

import pathlib
import random
import re

import pytest

import corpus
import injection
from sheetlint.areas import (
    LogicalArea,
    PhysicalArea,
    infer_logical_areas,
    infer_physical_areas,
    intended_areas,
)
from sheetlint.dataflow import CyclicDependency
from sheetlint.detectors import (
    Code,
    Diagnostic,
    Severity,
    _DETECTORS,
    _overlapping_pairs,
    _sort_key,
    detect_all,
    detect_area_mixup,
    detect_blank_ref,
    detect_constant_overwrite,
    detect_copy_misreference,
    detect_incorrect_range,
    detect_wrong_type_in_range,
)
from sheetlint.evaluator import eval_instance
from sheetlint.model import content_kind, instantiate, load_program
from sheetlint.scl import (
    BinaryOp,
    CellAddress,
    CellRef,
    RangeRef,
    Reference,
    column_letters,
    iter_nodes,
    row_major,
)

QUARTERLY = (
    'B2 = "1. Quarter"\nB4 = #140\nB5 = #200\nB6 = #170\n'
    'B7 = "2. Quarter"\nB8 = #180\nB9 = #230\nB10 = #100\n'
    "B12 = =SUM(B2:B10)\n"
)

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"
README = pathlib.Path(__file__).parent.parent / "README.md"

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

    # A chain names an area once it adds three distinct cells of one
    # column; adding a cell again does not count it twice.
    @pytest.mark.parametrize(
        "chain, message",
        [
            ("A1+A2", None),
            ("A1+A2+A1+A2", None),
            ("A1+A3+A2", "B1 adds 3 cells of column A one at a time; "
             "a grouping call such as SUM(A1:A3) would name the area outright"),
            ("A2+A1+A2+A3+A1", "B1 adds 3 cells of column A one at a time; "
             "a grouping call such as SUM(A1:A3) would name the area outright"),
        ],
        ids=["two-cells", "two-cells-repeated", "three-cells", "three-cells-repeated"],
    )
    def test_chain_counts_distinct_cells(self, chain, message):
        prog = load_program(f"A1 = #1\nA2 = #2\nA3 = #3\nB1 = ={chain}\n")
        diags = detect_area_mixup(prog)
        assert [d.message for d in diags] == ([message] if message else [])

    def test_deep_chain_of_distinct_cells(self, low_recursion_limit):
        chain = "+".join(f"A{row}" for row in range(3000, 0, -1))
        diags = detect_area_mixup(load_program(f"B1 = ={chain}\n"))
        assert [d.message for d in diags] == [
            "B1 adds 3000 cells of column A one at a time; "
            "a grouping call such as SUM(A1:A3000) would name the area outright"
        ]

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


def plus_chain(node):
    """The distinct cells a pure '+' tree of references adds, or None
    for anything else, found by walking the tree as D4 did before it
    read the copy keys."""
    cells = set()
    for n in iter_nodes(node):
        if type(n) is Reference and type(n.ref) is CellRef:
            cells.add(n.ref.address())
        elif type(n) is not BinaryOp or n.op != "+":
            return None
    return cells


def chain_findings(program):
    """D4's one-at-a-time findings as (cells, message), by the oracle."""
    out = []
    for addr, cell in program.formula_cells():
        cells = plus_chain(cell.ast)
        if cells is None or len(cells) < 3:
            continue
        cols = {a.col for a in cells}
        rows = {a.row for a in cells}
        if len(cols) > 1 and len(rows) > 1:
            continue
        axis = f"column {column_letters(min(cols))}" if len(cols) == 1 else f"row {min(rows)}"
        lo, hi = min(cells, key=row_major), max(cells, key=row_major)
        out.append(((addr,), f"{addr} adds {len(cells)} cells of {axis} one at a time; "
                             f"a grouping call such as SUM({lo}:{hi}) would name the "
                             f"area outright"))
    return out


CHAIN_FORMULAS = [
    "A1+A1+A2", "A1+A2+3", "-A1+A2+A3", "(A1+A2)+A3", "A1+A2-A3",
    "SUM(A1:A1)+A2+A3", "$A$1+A2+A$3", "A1+B1+C1", "A1+(A2+(A3+A1))",
]


def _chain_sources():
    cells = "A1 = #1\nA2 = #2\nA3 = #3\nB1 = #4\nC1 = #5\n"
    injected = []
    for k, case in enumerate(injection.cases(20)):
        injected.append((f"{case.code}-{k}-clean", load_program(case.clean)))
        injected.append((f"{case.code}-{k}-faulty", load_program(case.faulty)))
    return {
        "corpus": [(f"corpus-{cp.seed}", cp.program) for cp in corpus.corpus(300)],
        "injection": injected,
        "fixtures": [(p.name, load_program(p.read_text())) for p in sorted(FIXTURES.glob("*.sheet"))],
        "crafted": [(f"={f}", load_program(f"{cells}E9 = ={f}\n")) for f in CHAIN_FORMULAS],
    }


CHAIN_SOURCES = _chain_sources()


class TestPlusChainOracle:
    """D4 tells a '+' chain from its copy key and reference list; the
    oracle walks the tree.  Both must name the same formulas."""

    @pytest.mark.parametrize("source", sorted(CHAIN_SOURCES))
    def test_matches_the_tree_walk(self, source):
        for name, program in CHAIN_SOURCES[source]:
            got = [(d.cells, d.message) for d in detect_area_mixup(program) if d.area is None]
            assert got == chain_findings(program), name

    def test_crafted_formulas_that_chain(self):
        named = [name for name, program in CHAIN_SOURCES["crafted"] if detect_area_mixup(program)]
        assert named == ["=(A1+A2)+A3", "=$A$1+A2+A$3", "=A1+B1+C1", "=A1+(A2+(A3+A1))"]


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


class TestSeverity:
    @pytest.mark.parametrize("code", list(Code), ids=lambda code: code.value)
    def test_only_a_cycle_is_an_error(self, code):
        expected = Severity.ERROR if code is Code.G_CYCLE else Severity.WARNING
        assert code.severity is expected

    def test_readme_table_matches_codes(self):
        rows = re.findall(r"^\| `(\w+)` \| (\w+) \|", README.read_text(), re.M)
        assert rows == [(code.value, code.severity.value) for code in Code]

    def test_every_finding_carries_its_codes_severity(self):
        prog = load_program(TestDetectAll.running_totals(60))
        for diag in detect_all(prog, eval_instance(instantiate(prog))):
            assert diag.severity is diag.code.severity


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

    def test_division_by_zero_without_a_result(self):
        prog = load_program("A1 = #0\nA2 = =1/A1\nA3 = =2/A1\n")
        diags = detect_all(prog)
        assert diags == detect_all(prog, eval_instance(instantiate(prog)))
        assert fired(diags) == [
            ("G_DIV_ZERO", ["A2"]),
            ("G_DIV_ZERO", ["A3"]),
        ]
        assert all(d.severity is Severity.WARNING for d in diags)

    @staticmethod
    def running_totals(rows):
        # Running totals with one fault per code planted: a label in the
        # ranges (D2), a total typed over (D5), a lost '$' (D6) and a
        # division by an empty cell (D1, G_DIV_ZERO); the lost '$' also
        # takes B40 out of the copies, so its range meets theirs (D4)
        # and leaves out A41 (D3).
        lines = [f"A{r} = #{r}" for r in range(2, rows + 2)]
        lines += [f"B{r} = =SUM(A$2:A{r})" for r in range(2, rows + 2)]
        lines[5] = 'A7 = "note"'
        lines[rows + 28] = "B30 = #5"
        lines[rows + 38] = "B40 = =SUM(A2:A40)"
        lines.append("C2 = =A2/D2")
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize(
        "name", sorted(p.name for p in FIXTURES.glob("*.sheet")) + ["running60"]
    )
    def test_listing_is_sorted(self, name):
        # detect_all concatenates the detectors' sorted lists in code
        # order instead of sorting the whole listing again.
        if name == "running60":
            prog = load_program(self.running_totals(60))
        else:
            prog = load_program((FIXTURES / name).read_text())
        try:
            result = eval_instance(instantiate(prog))
        except CyclicDependency as err:
            result = err
        for given in (None, result):
            diags = detect_all(prog, given)
            assert diags == sorted(diags, key=_sort_key)
        for detect in _DETECTORS:
            diags = detect(prog)
            assert isinstance(diags, list)
            assert diags == sorted(diags, key=_sort_key)

    def test_codes_sort_before_cells(self):
        prog = load_program(
            'Z1 = "x"\nA2 = =D9+1\nB1 = #1\nB2 = #2\n'
            "C1 = =SUM(Z1:Z1)+SUM(B1:B2)\n"
        )
        diags = detect_all(prog)
        codes = [d.code.value for d in diags]
        assert codes == sorted(codes)


def overlap(a, b):
    """The shared rectangle of two ranges, or None when disjoint."""
    c1 = max(a.start.col, b.start.col)
    c2 = min(a.end.col, b.end.col)
    r1 = max(a.start.row, b.start.row)
    r2 = min(a.end.row, b.end.row)
    if c1 > c2 or r1 > r2:
        return None
    return RangeRef(CellRef(c1, r1), CellRef(c2, r2))


class TestAreaMixupPairs:
    """The row sweep in D4 against the plain all-pairs loop."""

    def test_overlap_oracle(self):
        a = RangeRef(CellRef(2, 2), CellRef(2, 10))
        b = RangeRef(CellRef(2, 8), CellRef(2, 12))
        assert str(overlap(a, b)) == "B8:B10"
        c = RangeRef(CellRef(3, 1), CellRef(3, 4))
        assert overlap(a, c) is None

    @staticmethod
    def all_pairs(areas):
        out = []
        for i, first in enumerate(areas):
            for second in areas[i + 1 :]:
                shared = overlap(first.rect, second.rect)
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
        # A '$' on each axis of each corner at random: an area is
        # spelled with its markers, the shared rectangle without.
        c1, c2 = sorted(rng.randint(1, 5) for _ in range(2))
        r1, r2 = sorted(rng.randint(1, 14) for _ in range(2))
        marks = [rng.random() < 0.5 for _ in range(4)]
        return RangeRef(CellRef(c1, r1, *marks[:2]), CellRef(c2, r2, *marks[2:]))

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

    @staticmethod
    def program_of(areas):
        """A program whose physical areas are ``areas``: each consumer's
        formula has one term per area it reads, in the order given."""
        terms = {}
        for area in areas:
            terms.setdefault(area.consumer, []).append(f"{area.function}({area.rect})")
        return load_program(
            "".join(f"{consumer} = ={'+'.join(t)}\n" for consumer, t in terms.items())
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_all_pairs(self, seed):
        rng = random.Random(seed)
        areas = self.random_areas(rng, rng.randint(0, 40))
        prog = self.program_of(areas)
        physical = infer_physical_areas(prog)
        # Inference lists the areas by consumer, row-major, and keeps
        # each consumer's own order.
        assert physical == sorted(areas, key=lambda area: row_major(area.consumer))
        got = detect_area_mixup(prog)
        assert got == self.all_pairs(physical)
        assert [d.area for d in got] == [d.area for d in self.all_pairs(physical)]


def running_column(rows, below=None):
    """Running totals `B_r = SUM(A$2:A_r)` over rows 2..rows+1, with
    a header, and ``below`` in the cell under the amounts if given."""
    lines = ['A1 = "Amount"']
    for r in range(2, rows + 2):
        lines += [f"A{r} = #{r}", f"B{r} = =SUM(A$2:A{r})"]
    if below is not None:
        lines.append(f"A{rows + 2} = {below}")
    return "\n".join(lines) + "\n"


def spelled_boxes(program):
    return [
        (f"{column_letters(b.c1)}{b.r1}:{column_letters(b.c2)}{b.r2}", b.area, len(b.ranges))
        for b in intended_areas(program).boxes
    ]


class TestIntendedAreas:
    """The ranges one copy group reads at one argument position form
    one intended area; D2, D3 and D4 report per area."""

    def test_running_column_is_one_box(self):
        assert spelled_boxes(load_program(running_column(8))) == [("A2:A9", 0, 8)]

    def test_running_row_is_one_box(self):
        cells = "".join(f"{c}1 = #1\n{c}2 = =SUM($B1:{c}1)\n" for c in "BCDEFG")
        assert spelled_boxes(load_program(cells)) == [("B1:G1", 0, 6)]

    def test_disjoint_copies_keep_their_boxes(self):
        prog = load_program(
            "C3 = #500\nC4 = #1000\nD5 = =SUM(C3:C4)\n"
            "C7 = #600\nC8 = #900\nD9 = =SUM(C7:C8)\nD11 = =D5+D9\n"
        )
        assert spelled_boxes(prog) == [("C3:C4", 0, 1), ("C7:C8", 0, 1)]

    def test_positions_and_single_formulas_are_areas_of_their_own(self):
        # Two copies with two ranges each, and one formula outside them.
        prog = load_program(
            "C1 = =SUM(A1:A2)+MAX(B1:B2)\nC2 = =SUM(A2:A3)+MAX(B2:B3)\n"
            "D1 = =SUM(A1:A3)\n"
        )
        assert spelled_boxes(prog) == [("A1:A3", 0, 2), ("B1:B3", 1, 2), ("A1:A3", 2, 1)]
        box_of = intended_areas(prog).box_of
        assert [box.area for box in box_of] == [0, 1, 2, 0, 1]  # C1, D1, C2

    def test_copies_raise_nothing_among_themselves(self):
        assert detect_all(load_program(running_column(30))) == []

    def test_boxes_of_one_area_may_overlap(self):
        # Copied one step diagonally, the two ranges share neither their
        # columns nor their rows, so they stay two boxes, which overlap.
        prog = load_program(
            "A1 = #1\nB1 = #1\nA2 = #1\nB2 = #1\nC2 = #1\nA3 = #1\nB3 = #1\nC3 = #1\n"
            "E1 = =SUM($A1:B2)\nF2 = =SUM($A2:C3)\n"
        )
        assert spelled_boxes(prog) == [("A1:B2", 0, 1), ("A2:C3", 0, 1)]
        assert detect_area_mixup(prog) == []

    def test_label_is_reported_once_with_the_count(self):
        diags = detect_wrong_type_in_range(load_program(RUNNING_FIXTURE))
        assert [d.message for d in diags] == [
            "label at A6 lies inside SUM range A$2:A6 of B6 and 3 other ranges; "
            "a number typed there would silently join the aggregate"
        ]
        assert str(diags[0].area) == "SUM A$2:A6 -> B6"

    def test_one_other_range(self):
        prog = load_program('A1 = "x"\nA2 = #1\nB1 = =SUM(A1:A2)\nC1 = =MAX(A1:A2)\n')
        assert [d.message for d in detect_wrong_type_in_range(prog)] == [
            "label at A1 lies inside SUM range A1:A2 of B1 and 1 other range; "
            "a number typed there would silently join the aggregate"
        ]

    def test_cell_no_copy_reads_is_left_out(self):
        # The next copy reads the cell below each range but the last.
        diags = detect_incorrect_range(load_program(running_column(5, below="#7")))
        assert [d.message for d in diags] == [
            "A7 adjoins SUM range A$2:A6 of B6 and holds the same kind of "
            "content, but the range leaves it out"
        ]

    def test_overlap_with_copies_is_one_finding(self):
        # The worked example of the README.
        prog = load_program(running_column(4) + "A6 = =SUM(A2:A5)\n")
        assert fired(detect_all(prog)) == [("D4_AREA_MIXUP", ["B2", "A6"])]
        assert [d.message for d in detect_area_mixup(prog)] == [
            "ranges A$2:A2 (of B2, one of 4 copies) and A2:A5 (of A6) overlap at A2:A2"
        ]
        readme = README.read_text()
        assert "B2,A6: warning D4_AREA_MIXUP: " + detect_area_mixup(prog)[0].message in readme

    @staticmethod
    def random_program(rng):
        """Copy groups and single formulas over a small grid: each
        group copies one range template down or right, so relative
        corners move and '$' corners stay, over data in A1:D9."""
        formulas = {}
        for _ in range(rng.randint(1, 6)):
            c1, c2 = sorted(rng.randint(1, 4) for _ in range(2))
            r1, r2 = sorted(rng.randint(1, 8) for _ in range(2))
            marks = [rng.random() < 0.4 for _ in range(4)]
            host_col, host_row = rng.randint(6, 9), rng.randint(1, 6)
            down = rng.random() < 0.5
            for step in range(rng.choice([1, 1, 2, 3, 5])):
                dc, dr = (0, step) if down else (step, 0)
                corners = [
                    c1 if marks[0] else c1 + dc, r1 if marks[1] else r1 + dr,
                    c2 if marks[2] else c2 + dc, r2 if marks[3] else r2 + dr,
                ]
                if corners[0] > corners[2] or corners[1] > corners[3]:
                    break
                start = CellRef(corners[0], corners[1], marks[0], marks[1])
                end = CellRef(corners[2], corners[3], marks[2], marks[3])
                host = CellAddress(host_col + dc, host_row + dr)
                formulas.setdefault(host, f"SUM({RangeRef(start, end)})")
        data = [
            f"{column_letters(c)}{r} = #1\n"
            for c in range(1, 5)
            for r in range(1, 10)
            if rng.random() < 0.7
        ]
        formulas = "".join(f"{host} = ={text}\n" for host, text in formulas.items())
        return load_program("".join(data) + formulas)

    @pytest.mark.parametrize("seed", range(40))
    def test_pairs_against_all_ranges(self, seed):
        # Oracle: the intended area of each range, by the definition,
        # and every pair of overlapping ranges from two such areas.
        prog = self.random_program(random.Random(seed))
        physical = infer_physical_areas(prog)
        group = {a: k for k, la in enumerate(infer_logical_areas(prog)) for a in la.members}
        seen = {}
        owner = []
        for area in physical:
            position = seen[area.consumer] = seen.get(area.consumer, -1) + 1
            owner.append((group.get(area.consumer, area.consumer), position))
        expected = set()
        for i, first in enumerate(physical):
            for j in range(i + 1, len(physical)):
                if owner[i] != owner[j] and overlap(first.rect, physical[j].rect):
                    expected.add(frozenset((owner[i], owner[j])))
        hits = _overlapping_pairs(physical, intended_areas(prog).boxes)
        assert {frozenset((owner[i], owner[j])) for i, j, _ in hits} == expected
        assert len(hits) == len(expected)
        for i, j, shared in hits:
            assert i < j
            assert str(overlap(physical[i].rect, physical[j].rect)) == shared
        # D3 leaves out exactly the adjoining cells that a range of the
        # same intended area reads.
        def read_by(k, col, row):
            return any(
                owner[m] == owner[k]
                and other.rect.start.col <= col <= other.rect.end.col
                and other.rect.start.row <= row <= other.rect.end.row
                for m, other in enumerate(physical)
            )

        expected_d3 = []
        for k, area in enumerate(physical):
            rect = area.rect
            if area.majority_type is None:
                continue
            if rect.height() >= rect.width():
                ends = (rect.start.row - 1, rect.end.row + 1)
                beyond = [(c, r) for c in range(rect.start.col, rect.end.col + 1) for r in ends]
            else:
                ends = (rect.start.col - 1, rect.end.col + 1)
                beyond = [(c, r) for r in range(rect.start.row, rect.end.row + 1) for c in ends]
            for col, row in beyond:
                if col < 1 or row < 1 or (col, row) == area.consumer or read_by(k, col, row):
                    continue
                content = prog.content(CellAddress(col, row))
                if content is not None and content_kind(content) == area.majority_type:
                    expected_d3.append(((CellAddress(col, row),), area))
        got = [(d.cells, d.area) for d in detect_incorrect_range(prog)]
        assert sorted(got, key=repr) == sorted(expected_d3, key=repr)


RUNNING_FIXTURE = (FIXTURES / "running_totals.sheet").read_text()
