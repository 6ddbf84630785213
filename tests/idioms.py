"""Clean spreadsheet idioms: sheets on which `check` must stay silent.

Each sheet is a common, correct way of laying out a computation.  A
warning on any of them is a false positive, so together they gate the
detectors' precision, as the injection suite gates their recall.  The
data values vary with the seed; the layouts do not.
"""

from __future__ import annotations

import pathlib
import random

from sheetlint.scl import column_letters

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"


def running_column(rng: random.Random, rows: int = 8) -> str:
    """Running totals down a column: `B_r = SUM(A$2:A_r)`."""
    lines = ['A1 = "Amount"', 'B1 = "Running"']
    for r in range(2, rows + 2):
        lines.append(f"A{r} = #{rng.randint(1, 500)}")
        lines.append(f"B{r} = =SUM(A$2:A{r})")
    return "\n".join(lines) + "\n"


def running_row(rng: random.Random, cols: int = 6) -> str:
    """Running totals along a row: `=SUM($B1:C1)` copied right."""
    lines = ['A1 = "Amount"', 'A2 = "Running"']
    for c in range(2, cols + 2):
        col = column_letters(c)
        lines.append(f"{col}1 = #{rng.randint(1, 500)}")
        lines.append(f"{col}2 = =SUM($B1:{col}1)")
    return "\n".join(lines) + "\n"


def moving_window(rng: random.Random, windows: int = 17) -> str:
    """A three-row moving average: `B_r = AVG(A_{r-2}:A_r)`."""
    lines = ['A1 = "Reading"', 'B1 = "Average of 3"']
    for r in range(2, windows + 4):
        lines.append(f"A{r} = #{rng.randint(1, 500)}")
        if r >= 4:
            lines.append(f"B{r} = =AVG(A{r - 2}:A{r})")
    return "\n".join(lines) + "\n"


def filled_down(rng: random.Random, rows: int = 8) -> str:
    """`C_r = A_r*B_r` filled down, with a SUM total below."""
    lines = ['A1 = "Quantity"', 'B1 = "Price"', 'C1 = "Amount"']
    for r in range(2, rows + 2):
        lines.append(f"A{r} = ?{rng.randint(1, 50)}")
        lines.append(f"B{r} = #{rng.randint(1, 20)}")
        lines.append(f"C{r} = =A{r}*B{r}")
    lines.append(f'B{rows + 2} = "Total"')
    lines.append(f"C{rows + 2} = =SUM(C2:C{rows + 1})")
    return "\n".join(lines) + "\n"


def two_level_subtotals(rng: random.Random) -> str:
    """Subtotals per block in the next column, and a total of them."""
    return (FIXTURES / "subtotals_two_column.sheet").read_text()


def header_above_sum(rng: random.Random, rows: int = 6) -> str:
    """A label heads a column of numbers summed at its foot."""
    lines = ['A1 = "Sales"']
    lines += [f"A{r} = #{rng.randint(1, 500)}" for r in range(2, rows + 2)]
    lines.append(f"A{rows + 2} = =SUM(A2:A{rows + 1})")
    return "\n".join(lines) + "\n"


IDIOMS = {
    "running-column": running_column,
    "running-row": running_row,
    "moving-window": moving_window,
    "filled-down": filled_down,
    "two-level-subtotals": two_level_subtotals,
    "header-above-sum": header_above_sum,
}
