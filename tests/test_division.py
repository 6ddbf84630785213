"""Divisions by zero, found by evaluating only sheets that can divide.

`check` and `graph` evaluate a sheet only when some formula can note a
division by zero.  Here both commands are held to the full evaluation:
on seeded sheets built around zero divisors and AVGs over labels and
gaps, and on crafted cases, their findings must equal `detect_all` over
`eval_instance`, and so must `detect_all` left to evaluate on its own.
A gate then requires that sheets with no division evaluate no formula
at all, and that a sheet with one division evaluates every formula.
"""

import contextlib
import io
import random

import pytest

from sheetlint import evaluator, report
from sheetlint.areas import infer_logical_areas, infer_physical_areas
from sheetlint.cli import main
from sheetlint.dataflow import build_graph
from sheetlint.detectors import detect_all
from sheetlint.evaluator import eval_instance
from sheetlint.model import Formula, instantiate, load_program
from sheetlint.scl import parse_address, render
from test_scaling import filled_down, running_totals, subtotal_blocks

SEEDS = range(300)
BATCH = 30


def division_sheet(seed: int) -> str:
    """A small acyclic sheet: a data block in columns A:B of zero and
    other constants and inputs, labels and gaps, then formulas in C:D
    that read the data and earlier formulas through '/', AVG over
    ranges, references and nested expressions, and other operations."""
    rng = random.Random(seed)
    lines, data, formulas, read = [], [], [], []
    for col in "AB":
        for row in range(1, rng.randint(3, 8)):
            addr, draw = f"{col}{row}", rng.random()
            if draw < 0.3:
                lines.append(f"{addr} = #{rng.choice([0, 0, 1, 2, 3])}")
            elif draw < 0.6:
                lines.append(f"{addr} = ?{rng.choice([0, 0, 1, -1])}")
            elif draw < 0.75:
                lines.append(f'{addr} = "note {row}"')
            else:
                continue
            data.append(addr)

    def reference() -> str:
        # A9 and B9 are always empty.
        read.append(rng.choice(data + formulas + ["A9", "B9"]))
        return read[-1]

    def range_arg() -> str:
        col, top = rng.choice("AB"), rng.randint(1, 7)
        read.append(f"{col}{top}:{col}{rng.randint(top, 9)}")
        return read[-1]

    def expression(depth: int) -> str:
        draw = rng.random()
        if depth > 2 or draw < 0.3:
            return reference() if rng.random() < 0.8 else str(rng.randint(0, 3))
        if draw < 0.55:
            return f"{expression(depth + 1)}/{expression(depth + 1)}"
        if draw < 0.7:
            return f"({expression(depth + 1)}{rng.choice('+-*')}{expression(depth + 1)})"
        if draw < 0.75:
            return f"-{expression(depth + 1)}"
        name = rng.choice(["AVG", "AVG", "SUM", "MIN", "COUNT"])
        args = [
            range_arg() if rng.random() < 0.4 else expression(depth + 1)
            for _ in range(rng.randint(1, 3))
        ]
        return f"{name}({', '.join(args)})"

    for col in "CD":
        for row in range(1, rng.randint(2, 7)):
            read.clear()
            body = expression(0)
            if not read:
                # A formula must reference a cell.
                body = f"{body}+{reference()}"
            lines.append(f"{col}{row} = ={body}")
            formulas.append(f"{col}{row}")
    return "\n".join(lines) + "\n"


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def full_evaluation(text: str):
    """The sheet's findings over an evaluation of every cell."""
    program = load_program(text)
    return program, detect_all(program, eval_instance(instantiate(program)))


def assert_matches_full_evaluation(text: str, path) -> None:
    path.write_text(text)
    program, diagnostics = full_evaluation(text)
    assert detect_all(program) == diagnostics, text
    code, out = run(["check", str(path), "--format", "json"])
    sheet = report.Input(str(path), text.encode())
    assert out == report.to_json(report.check_json(program, diagnostics, [sheet])), text
    assert code == (1 if diagnostics else 0)
    _, dot = run(["graph", str(path)])
    physical, logical = infer_physical_areas(program), infer_logical_areas(program)
    expected = report.cell_graph_dot(program, build_graph(program), physical, logical, diagnostics)
    assert dot == expected, text


def offenders(diagnostics) -> list[str]:
    return [str(d.cells[0]) for d in diagnostics if d.code.value == "G_DIV_ZERO"]


@pytest.mark.parametrize("first", SEEDS[::BATCH], ids=lambda s: f"seeds-{s}")
def test_check_and_graph_match_the_full_evaluation(first, tmp_path):
    for seed in SEEDS[first:first + BATCH]:
        assert_matches_full_evaluation(division_sheet(seed), tmp_path / f"{seed}.sheet")


def test_the_seeded_sheets_divide_by_zero_both_ways():
    # The oracle above is only as strong as its sheets: many must divide
    # by zero, and some only through an AVG over no number.
    dividing = averaging = 0
    for seed in SEEDS:
        text = division_sheet(seed)
        program, diagnostics = full_evaluation(text)
        found = offenders(diagnostics)
        dividing += bool(found)
        averaging += any(
            "/" not in render(program.content(parse_address(cell)).ast) for cell in found
        )
    assert dividing >= 150 and averaging >= 20, (dividing, averaging)


CRAFTED = {
    # A zero input, read through two formulas; the formula after the
    # division only takes its fault along.
    "zero-input-through-a-chain": (
        "A1 = ?0\nB1 = =A1\nC1 = =B1*3\nD1 = =5/C1\nE1 = =D1+1\n",
        ["D1"],
    ),
    "division-inside-avg": ("A1 = #0\nB1 = =AVG(A1, 3/A1)\n", ["B1"]),
    # B3 averages a number as well, and so does not divide by zero.
    "avg-over-labels-and-empty-cells": (
        'A1 = "x"\nA2 = "y"\nB1 = =AVG(A1:A4)\nB2 = =AVG(A1, A2)\nB3 = =AVG(A1:A2, 1)\n',
        ["B1", "B2"],
    ),
    # An AVG of a faulted formula takes the fault along; only the
    # division notes.
    "avg-of-a-faulted-formula": (
        "A1 = #0\nB1 = =1/A1\nC1 = =AVG(B1)\nC2 = =AVG(B1:B2)\n",
        ["B1"],
    ),
    "avg-of-a-reference-to-an-empty-cell": (
        "B1 = =AVG(A1)\nB2 = =AVG(A1:A9, C9)\n",
        ["B1", "B2"],
    ),
    "avg-nested-in-another-call": (
        'A1 = "t"\nB1 = =SUM(AVG(A1), 2)\nB2 = =AVG(AVG(A1))\n',
        ["B1", "B2"],
    ),
}


@pytest.mark.parametrize("name", CRAFTED)
def test_crafted_divisions(name, tmp_path):
    text, expected = CRAFTED[name]
    assert offenders(full_evaluation(text)[1]) == expected
    assert_matches_full_evaluation(text, tmp_path / "crafted.sheet")


@pytest.mark.parametrize("shape", [running_totals, filled_down, subtotal_blocks])
@pytest.mark.parametrize(
    "argv", [["check"], ["graph"], ["graph", "--resolution", "area"]],
    ids=["check", "graph", "graph-area"],
)
def test_no_formula_is_evaluated_without_a_division(shape, argv, tmp_path, monkeypatch):
    # The evaluator folds each formula's tree once, and nothing else.
    def refuse(ast, step):
        raise AssertionError(f"={render(ast)} was evaluated")

    monkeypatch.setattr(evaluator, "fold", refuse)
    sheet = tmp_path / "shape.sheet"
    sheet.write_text(shape(60))
    run([argv[0], str(sheet), *argv[1:]])


@pytest.mark.parametrize("argv", [["check"], ["graph"]])
def test_a_division_evaluates_every_formula(argv, tmp_path, monkeypatch):
    walked = []
    fold = evaluator.fold

    def record(ast, step):
        walked.append(ast)
        return fold(ast, step)

    monkeypatch.setattr(evaluator, "fold", record)
    sheet = tmp_path / "chain.sheet"
    text = filled_down(60) + "F1 = ?-1\nG1 = =F1+1\nG2 = =G1*2\nG3 = =7/G2\n"
    sheet.write_text(text)
    code, out = run([argv[0], str(sheet)])
    program = load_program(text)
    # Every formula's tree is folded once, in evaluation order.
    assert walked == [
        program.cells[addr].ast for addr in build_graph(program).topo_order()
        if type(program.cells[addr]) is Formula
    ]
    if argv[0] == "check":
        assert "G3: warning G_DIV_ZERO: G3 divides by zero" in out and code == 1
