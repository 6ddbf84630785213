"""Cost that follows the sheet: each command at size n and 2n.

Each shape is generated at two sizes, and a command runs on both
in-process under cProfile, with `--format json`.  Doubling the sheet
may at most about double the Python calls made and the bytes printed.
Call counts are deterministic, so this gate tells linear growth from
quadratic without timing anything, and it cannot flake on a busy
machine.  A shape joins the gate for a command once the command is
linear on it.  A shape it is not yet linear on may join as a strict
xfail naming its ROADMAP defect, which flips when the fix lands.
"""

import contextlib
import cProfile
import io
import re

import pytest

from sheetlint import report
from sheetlint.areas import infer_logical_areas, infer_physical_areas
from sheetlint.cli import main
from sheetlint.dataflow import build_graph
from sheetlint.detectors import detect_all
from sheetlint.model import load_program
from sheetlint.scl import fold, parse_formula, rect_key

# Doubling may cost a little more than twice: sorting is n log n.
MAX_GROWTH = 2.3


def running_totals(n: int) -> str:
    """n running totals `B_r = SUM(A$2:A_r)`; a note typed into the
    amounts sits inside every later range, and one total is typed over
    by a number."""
    lines = ['A1 = "amount"', 'B1 = "running"']
    for r in range(2, n + 2):
        lines.append(f'A{r} = "n/a"' if r == n // 2 else f"A{r} = ?{r % 97 + 1}")
        lines.append(f"B{r} = #{r}" if r == n // 3 else f"B{r} = =SUM(A$2:A{r})")
    return "\n".join(lines) + "\n"


def filled_down(n: int) -> str:
    """n ledger rows of quantity, price and `=B_r*C_r`, with totals."""
    lines = ['A1 = "item"', 'B1 = "qty"', 'C1 = "price"', 'D1 = "amount"']
    for r in range(2, n + 2):
        lines += [
            f'A{r} = "item {r - 1}"',
            f"B{r} = ?{r % 41 + 6}",
            f"C{r} = #{r % 19 + 1}",
            f"D{r} = =B{r}*C{r}",
        ]
    lines += [
        f'A{n + 3} = "total"',
        f"B{n + 3} = =SUM(B2:B{n + 1})",
        f"D{n + 3} = =SUM(D2:D{n + 1})",
    ]
    return "\n".join(lines) + "\n"


def subtotal_blocks(n: int) -> str:
    """n blocks of ten amounts, each closed by `=SUM` of its rows, a gap
    row after each, and a total of the subtotal column; every fifth
    block holds a note among its amounts."""
    lines = ['A1 = "amount"', 'B1 = "subtotal"']
    for k in range(n):
        top = 2 + 11 * k
        for r in range(top, top + 10):
            lines.append(f'A{r} = "n/a"' if k % 5 == 0 and r == top + 3 else f"A{r} = ?{r % 23 + 1}")
        lines.append(f"B{top + 9} = =SUM(A{top}:A{top + 9})")
    lines.append(f"B{2 + 11 * n} = =SUM(B2:B{11 * n})")
    return "\n".join(lines) + "\n"


def copied_subtotals(n: int) -> str:
    """`subtotal_blocks(n)` with a column of copies above the blocks,
    `C_k = =B_s` for each subtotal `B_s`, and a total of the copies.
    The copies read formulas below them, so the sheet is not in
    topological order row-major and its order takes the heap sort."""
    lines = [subtotal_blocks(n), 'C1 = "copy"\n']
    lines += [f"C{k + 2} = =B{11 * k + 11}\n" for k in range(n)]
    lines.append(f"C{n + 3} = =SUM(C2:C{n + 1})\n")
    return "".join(lines)


def chain(n: int) -> str:
    """n inputs `A_r = ?1` summed down a chain: `B1 = =A1`, then
    `B_r = =B_{r-1}+A_r`."""
    lines = ["A1 = ?1", "B1 = =A1"]
    for r in range(2, n + 1):
        lines += [f"A{r} = ?1", f"B{r} = =B{r - 1}+A{r}"]
    return "\n".join(lines) + "\n"


def filled_down_spec(n: int) -> str:
    """A range on every quantity of `filled_down(n)` and an expectation
    on every amount; every seventh expectation is unreachable, so its
    amount is a symptom with suspects."""
    lines = []
    for r in range(2, n + 2):
        qty, price = r % 41 + 6, r % 19 + 1
        lines.append(f"input B{r} in [{qty - 2}, {qty + 2}]")
        expected = (0, 1) if r % 7 == 0 else ((qty - 1) * price, (qty + 1) * price)
        lines.append(f"expect D{r} in [{expected[0]}, {expected[1]}]")
    return "\n".join(lines) + "\n"


def running_totals_spec(n: int) -> str:
    """A range on every amount of `running_totals(n)`, and on every
    total an expectation equal to its bound, but for the last total,
    whose expectation is unreachable.

    A symptom lists every amount above it as a suspect, so a spec with
    a symptom on every k-th total prints suspect lists that grow as
    n^2/k (`running_totals_symptoms_spec`).  One symptom keeps this
    gate on the cost of evaluating, bounding and judging every total."""
    lines = []
    bound = 0
    for r in range(2, n + 2):
        if r != n // 2:
            lines.append(f"input A{r} in [0, {r % 97 + 2}]")
            bound += r % 97 + 2
        if r == n + 1:
            lines.append(f"expect B{r} in [-1, -1]")
        elif r != n // 3:
            lines.append(f"expect B{r} in [0, {bound}]")
    return "\n".join(lines) + "\n"


def running_totals_symptoms_spec(n: int) -> str:
    """A range on every amount of `running_totals(n)`, and an
    unreachable expectation on every seventh total, so that each of
    those is a symptom whose suspects are every amount above it."""
    lines = []
    for r in range(2, n + 2):
        if r != n // 2:
            lines.append(f"input A{r} in [0, {r % 97 + 2}]")
        if r % 7 == 0 and r != n // 3:
            lines.append(f"expect B{r} in [-1, -1]")
    return "\n".join(lines) + "\n"


def chain_spec(n: int) -> str:
    """Every link of `chain(n)` expected in [0, 1], so that each link
    past the first is a symptom whose suspects are the links and inputs
    above it."""
    return "".join(f"expect B{r} in [0, 1]\n" for r in range(1, n + 1))


def subtotal_blocks_spec(n: int) -> str:
    """A range on every amount of `subtotal_blocks(n)`, and an
    unreachable expectation on every seventh subtotal, so that each of
    those is a symptom whose suspects are its block's amounts."""
    lines = []
    for k in range(n):
        top = 2 + 11 * k
        for r in range(top, top + 10):
            if not (k % 5 == 0 and r == top + 3):
                lines.append(f"input A{r} in [0, {r % 23 + 2}]")
        if k % 7 == 0:
            lines.append(f"expect B{top + 9} in [-2, -1]")
    return "\n".join(lines) + "\n"


def copied_subtotals_spec(n: int) -> str:
    """`subtotal_blocks_spec(n)`, and an unreachable expectation on
    every seventh copy, whose suspects run through its subtotal to the
    block's amounts."""
    lines = [subtotal_blocks_spec(n)]
    lines += [f"expect C{k + 2} in [-2, -1]\n" for k in range(3, n, 7)]
    return "".join(lines)


def profiled(argv: list[str]) -> tuple[int, int]:
    """Python calls made and bytes printed by one command."""
    out = io.StringIO()
    profile = cProfile.Profile()
    with contextlib.redirect_stdout(out):
        profile.runcall(main, argv)
    calls = sum(entry.callcount for entry in profile.getstats())
    return calls, len(out.getvalue().encode("utf-8"))


def growth(command: str, shape, n: int, tmp_path, spec=None, options=()) -> tuple[float, float]:
    """How many times over the Python calls and the bytes printed of
    `command --format json`, with ``options`` after the files, grow
    from the shape at n rows to the shape at 2n."""
    measured = []
    for size in (n, 2 * n):
        sheet = tmp_path / f"{size}.sheet"
        sheet.write_text(shape(size))
        argv = [command, str(sheet)]
        if spec is not None:
            intervals = tmp_path / f"{size}.intervals"
            intervals.write_text(spec(size))
            argv.append(str(intervals))
        measured.append(profiled([*argv, *options, "--format", "json"]))
    (calls, size), (calls2, size2) = measured
    return calls2 / calls, size2 / size


def assert_linear(command: str, shape, n: int, tmp_path, spec=None, options=()) -> None:
    """`command` on the shape at n and 2n rows grows at most
    MAX_GROWTH-fold in calls and in bytes (see ``growth``)."""
    calls, size = growth(command, shape, n, tmp_path, spec, options)
    assert calls <= MAX_GROWTH, calls
    assert size <= MAX_GROWTH, size


@pytest.mark.parametrize(
    "shape, n",
    [
        (running_totals, 300),
        (running_totals, 600),
        (filled_down, 500),
        (subtotal_blocks, 150),
        (copied_subtotals, 150),
    ],
    ids=["running-300", "running-600", "filled-down-500", "subtotal-blocks-150", "copied-subtotals-150"],
)
def test_check_grows_linearly(shape, n, tmp_path):
    assert_linear("check", shape, n, tmp_path)


@pytest.mark.parametrize("command", ["test", "graph", "areas"])
def test_commands_grow_linearly_on_filled_down(command, tmp_path):
    spec = filled_down_spec if command == "test" else None
    assert_linear(command, filled_down, 500, tmp_path, spec)


@pytest.mark.parametrize("command", ["test", "areas"])
def test_commands_grow_linearly_on_running_totals(command, tmp_path):
    spec = running_totals_spec if command == "test" else None
    assert_linear(command, running_totals, 300, tmp_path, spec)


@pytest.mark.parametrize("command", ["test", "graph", "areas"])
def test_commands_grow_linearly_on_subtotal_blocks(command, tmp_path):
    spec = subtotal_blocks_spec if command == "test" else None
    assert_linear(command, subtotal_blocks, 150, tmp_path, spec)


def test_cell_view_calls_grow_no_faster_than_its_bytes_on_running_totals(tmp_path):
    # n running totals draw n^2/2 edges, so the cell view's bytes grow
    # about fourfold as n doubles; its calls may grow as much, no more.
    calls, size = growth("graph", running_totals, 300, tmp_path)
    assert calls <= size, (calls, size)


def test_test_grows_linearly_on_copied_subtotals(tmp_path):
    assert_linear("test", copied_subtotals, 150, tmp_path, copied_subtotals_spec)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="defect 2: a chain's suspects")
def test_test_grows_linearly_on_a_chain(tmp_path):
    assert_linear("test", chain, 200, tmp_path, chain_spec)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="defect 2: a range's suspects")
def test_test_grows_linearly_on_running_totals_with_many_symptoms(tmp_path):
    assert_linear("test", running_totals, 300, tmp_path, running_totals_symptoms_spec)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="defect 3: the area view")
def test_area_graph_grows_linearly_on_running_totals(tmp_path):
    assert_linear("graph", running_totals, 300, tmp_path, options=("--resolution", "area"))


def test_filled_down_rows_parse_once_per_copy_class():
    # The 500 amounts `=B_r*C_r` are one copy class.  So are the two
    # totals: `=SUM(B2:B501)` at B503 and `=SUM(D2:D501)` at D503 read
    # the same offsets from their cells.  Amounts `=B_r*1e5` are one
    # class too: the number's exponent `e5` is no reference.
    priced = filled_down(500)
    scaled = re.sub(r"=B([0-9]+)\*C[0-9]+", r"=B\1*1e5", priced)
    for text in (priced, scaled):
        profile = cProfile.Profile()
        program = profile.runcall(load_program, text)
        calls = sum(
            entry.callcount for entry in profile.getstats() if entry.code is parse_formula.__code__
        )
        assert (calls, sum(1 for _ in program.formula_cells())) == (2, 502)


def test_filled_down_cell_view_sorts_no_cell_by_rect_key():
    # Every node of `filled_down(500)` is a cell, so the cell view takes
    # its node order from the program and sorts nothing by `rect_key`.
    program = load_program(filled_down(500))
    graph = build_graph(program)
    inputs = (program, graph, infer_physical_areas(program), infer_logical_areas(program))
    diagnostics = detect_all(program)
    profile = cProfile.Profile()
    profile.runcall(report.write_cell_graph_dot, *inputs, diagnostics, lambda text: None)
    calls = sum(entry.callcount for entry in profile.getstats() if entry.code is rect_key.__code__)
    others = len(graph.nodes - program.cells.keys())
    assert others == 0
    assert calls <= others


def test_test_folds_each_formula_once(tmp_path):
    # `test` takes d and B from one walk of each formula, holding both
    # lanes, even with every input of `filled_down(500)` ranged.
    text = filled_down(500)
    sheet, spec = tmp_path / "shape.sheet", tmp_path / "shape.intervals"
    sheet.write_text(text)
    spec.write_text(filled_down_spec(500))
    profile = cProfile.Profile()
    with contextlib.redirect_stdout(io.StringIO()):
        profile.runcall(main, ["test", str(sheet), str(spec), "--format", "json"])
    calls = sum(entry.callcount for entry in profile.getstats() if entry.code is fold.__code__)
    assert calls == sum(1 for _ in load_program(text).formula_cells()) == 502
