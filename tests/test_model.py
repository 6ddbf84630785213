"""Program and instance model tests, including the .sheet reader."""

import signal

import pytest

from sheetlint.evaluator import Number, eval_instance
from sheetlint.model import (
    CellFormulaError,
    Constant,
    DuplicateCell,
    Formula,
    Input,
    Label,
    MalformedLine,
    NotAnInputCell,
    SpreadsheetProgram,
    content_kind,
    instantiate,
    load_program,
    render_content,
)
from sheetlint.scl import parse_address, parse_formula

QUARTERLY = """
; two labels, six constants, one empty covered row
B2 = "1. Quarter"
B4 = #140
B5 = #200
B6 = #170
B7 = "2. Quarter"
B8 = #180
B9 = #230
B10 = #100
B12 = =SUM(B2:B10)
"""


class TooSlow(BaseException):
    """Raised by the alarm."""


def _too_slow(signum, frame):
    raise TooSlow()


class TestLoadProgram:
    def test_loads_each_content_kind(self):
        prog = load_program(
            'A1 = #1.5\nA2 = ?2\nA3 = =A1+A2\nA4 = "note"\n'
        )
        assert prog.content(parse_address("A1")) == Constant(1.5)
        assert prog.content(parse_address("A2")) == Input(2.0)
        assert prog.content(parse_address("A3")) == Formula(parse_formula("A1+A2"))
        assert prog.content(parse_address("A4")) == Label("note")

    def test_empty_cells_are_absent(self):
        prog = load_program(QUARTERLY)
        assert prog.content(parse_address("B3")) is None
        assert prog.content(parse_address("B11")) is None
        assert len(prog.cells) == 9

    def test_comments_and_blank_lines_ignored(self):
        prog = load_program("; intro\n\nA1 = #1\n  ; indented comment\n")
        assert len(prog.cells) == 1

    def test_cells_kept_in_row_major_order(self):
        prog = load_program("B2 = #2\nA1 = #1\nA2 = #3\n")
        assert [str(a) for a in prog.cells] == ["A1", "A2", "B2"]

    def test_extent(self):
        prog = load_program(QUARTERLY)
        assert prog.extent == (2, 12)
        assert load_program("").extent == (0, 0)

    def test_signed_and_exponent_numbers(self):
        prog = load_program("A1 = #-2.5\nA2 = ?+10\nA3 = #1e3\n")
        assert prog.content(parse_address("A1")) == Constant(-2.5)
        assert prog.content(parse_address("A2")) == Input(10.0)
        assert prog.content(parse_address("A3")) == Constant(1000.0)

    def test_malformed_lines_carry_line_numbers(self):
        with pytest.raises(MalformedLine) as info:
            load_program("A1 = #1\njunk\n")
        assert info.value.line == 2
        with pytest.raises(MalformedLine):
            load_program("A0 = #1\n")
        with pytest.raises(MalformedLine):
            load_program("A\u0661 = #1\n")
        with pytest.raises(MalformedLine):
            load_program("A1 = 140\n")
        with pytest.raises(MalformedLine):
            load_program('A1 = "unterminated\n')

    def test_non_finite_numbers_rejected_with_line(self):
        for bad in ["A2 = #1e400", "A2 = ?1e400", "A2 = ?-1e309"]:
            with pytest.raises(MalformedLine) as info:
                load_program("A1 = #1\n" + bad + "\n")
            assert info.value.line == 2
            assert "out of range" in str(info.value)

    def test_non_finite_formula_literal_rejected_with_line(self):
        with pytest.raises(CellFormulaError) as info:
            load_program("A1 = #1\nA2 = =A1*1e999\n")
        assert info.value.line == 2
        assert "out of range" in str(info.value)

    def test_duplicate_cell_rejected(self):
        with pytest.raises(DuplicateCell) as info:
            load_program("A1 = #1\nA1 = #2\n")
        assert info.value.line == 2

    def test_formula_errors_name_cell_and_line(self):
        with pytest.raises(CellFormulaError) as info:
            load_program("A1 = #1\nA2 = =A1+\n")
        assert info.value.line == 2
        assert "A2" in str(info.value)


class TestTrailingComments:
    def test_readme_examples(self):
        prog = load_program(
            'A1 = "Sales"        ; label (text)\n'
            "B2 = #140           ; constant number\n"
            "B3 = ?100           ; input cell with default 100\n"
            "B4 = =SUM(B2:B3)    ; formula\n"
        )
        assert prog.content(parse_address("A1")) == Label("Sales")
        assert prog.content(parse_address("B2")) == Constant(140.0)
        assert prog.content(parse_address("B3")) == Input(100.0)
        assert prog.content(parse_address("B4")) == Formula(parse_formula("SUM(B2:B3)"))

    def test_semicolon_inside_a_label_is_text(self):
        prog = load_program('A1 = "a; b"  ; note "quoted"\nA2 = "c;d"\n')
        assert prog.content(parse_address("A1")) == Label("a; b")
        assert prog.content(parse_address("A2")) == Label("c;d")

    def test_comment_only_content_is_malformed(self):
        with pytest.raises(MalformedLine) as info:
            load_program("A1 = ; nothing here\n")
        assert info.value.line == 1

    def test_long_run_of_semicolons_in_a_label_loads_in_linear_time(self):
        # A scan that counts the quotes from the line's start for every
        # ';' is quadratic: 400,000 of them take most of a minute.
        label = ";" * 400_000
        text = f'A1 = "{label}"  ; a comment\nA2 = ?1 ; "quoted"\n'
        previous = signal.signal(signal.SIGALRM, _too_slow)
        signal.alarm(5)
        try:
            prog = load_program(text)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert prog == SpreadsheetProgram(
            {parse_address("A1"): Label(label), parse_address("A2"): Input(1.0)}
        )


class TestAsciiDigits:
    """Only 0-9 are digits: another script's digit is refused, as it is
    in an address, not read as the digit it stands for."""

    def test_in_a_number(self):
        with pytest.raises(MalformedLine) as info:
            load_program("A1 = ?1\nC1 = #\u0661\u0662\n")
        assert str(info.value) == "line 2: bad number in constant: '\u0661\u0662'"

    def test_in_an_input_default(self):
        with pytest.raises(MalformedLine) as info:
            load_program("A1 = ?\u0663\n")
        assert str(info.value) == "line 1: bad number in input default: '\u0663'"

    def test_in_a_reference(self):
        with pytest.raises(CellFormulaError) as info:
            load_program("A1 = ?1\nB1 = =A\u0661+1\n")
        assert str(info.value) == "line 2: cell B1: unexpected character '\u0661' (at offset 1)"


class TestRendering:
    def test_render_content_spellings(self):
        assert render_content(Constant(140.0)) == "#140"
        assert render_content(Input(2.5)) == "?2.5"
        assert render_content(Formula(parse_formula("SUM(B2:B10)"))) == "=SUM(B2:B10)"
        assert render_content(Label("1. Quarter")) == '"1. Quarter"'


class TestProgram:
    def test_formula_and_input_listings(self):
        prog = load_program("A1 = ?1\nA2 = #2\nA3 = =A1+A2\n")
        assert [str(a) for a, _ in prog.formula_cells()] == ["A3"]

    def test_content_kind_names(self):
        assert content_kind(Constant(1.0)) == "constant"
        assert content_kind(Input(1.0)) == "input"
        assert content_kind(Formula(parse_formula("A1+1"))) == "formula"
        assert content_kind(Label("x")) == "label"

    def test_equality_ignores_source_order(self):
        a = load_program("A1 = #1\nB1 = #2\n")
        b = load_program("B1 = #2\nA1 = #1\n")
        assert a == b

    def test_programs_are_immutable_views(self):
        prog = load_program("A1 = #1\n")
        with pytest.raises(TypeError):
            prog.cells[parse_address("A2")] = Constant(2.0)


class TestInstance:
    def test_defaults_apply_when_unbound(self):
        prog = load_program("A1 = ?5\nA2 = =A1*2\n")
        values = eval_instance(instantiate(prog)).values
        assert values[parse_address("A2")] == Number(10.0)

    def test_bindings_override_defaults(self):
        prog = load_program("A1 = ?5\nA2 = =A1*2\n")
        values = eval_instance(instantiate(prog, {parse_address("A1"): 9.0})).values
        assert values[parse_address("A2")] == Number(18.0)

    def test_binding_non_input_rejected(self):
        prog = load_program("A1 = #5\nA2 = =A1*2\n")
        with pytest.raises(NotAnInputCell):
            instantiate(prog, {parse_address("A1"): 1.0})

    def test_non_finite_binding_rejected(self):
        prog = load_program("A1 = ?1\n")
        with pytest.raises(ValueError):
            instantiate(prog, {parse_address("A1"): float("inf")})
        with pytest.raises(ValueError):
            instantiate(prog, {parse_address("A1"): float("nan")})

