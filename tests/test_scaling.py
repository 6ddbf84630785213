"""Cost that follows the sheet: `check` at size n and 2n.

Each shape is generated at two sizes, and `check --format json` runs on
both in-process under cProfile.  Doubling the sheet may at most about
double the Python calls made and the bytes printed.  Call counts are
deterministic, so this gate tells linear growth from quadratic without
timing anything, and it cannot flake on a busy machine.  A shape joins
the gate once `check` is linear on it.
"""

import contextlib
import cProfile
import io

import pytest

from sheetlint.cli import main

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


def profiled_check(sheet) -> tuple[int, int]:
    """Python calls made and bytes printed by `check --format json`."""
    out = io.StringIO()
    profile = cProfile.Profile()
    with contextlib.redirect_stdout(out):
        profile.runcall(main, ["check", str(sheet), "--format", "json"])
    calls = sum(entry.callcount for entry in profile.getstats())
    return calls, len(out.getvalue().encode("utf-8"))


@pytest.mark.parametrize(
    "shape, n",
    [(running_totals, 300), (running_totals, 600), (filled_down, 500)],
    ids=["running-300", "running-600", "filled-down-500"],
)
def test_check_grows_linearly(shape, n, tmp_path):
    measured = []
    for size in (n, 2 * n):
        sheet = tmp_path / f"{size}.sheet"
        sheet.write_text(shape(size))
        measured.append(profiled_check(sheet))
    (calls, size), (calls2, size2) = measured
    assert calls2 <= MAX_GROWTH * calls, (calls, calls2)
    assert size2 <= MAX_GROWTH * size, (size, size2)
