"""Spreadsheet programs, instances, and the .sheet text format.

A program is a finite partial map from addresses to cell contents.  A
cell holds exactly one of four things:

    Constant  a fixed number, written  #140
    Input     a number a user may change, written  ?140  (the default)
    Formula   an expression, written  =SUM(B2:B10)
    Label     explanatory text, written  "1. Quarter"

Absence from the map is the fifth state, the empty cell.  A .sheet file
gives one cell per line as ``ADDR = CONTENT``.  A ';' outside a quoted
label starts a comment that runs to the end of the line; lines left
blank are skipped.  Numbers must be finite, and their digits, like an
address's, are the ASCII digits 0-9.
"""

from __future__ import annotations

import functools
import math
import re
from bisect import bisect_left, bisect_right
from itertools import repeat
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Union

from .errors import SheetLintError
from .scl import (
    CellAddress,
    CellRef,
    CopyClassReader,
    FormulaError,
    FormulaNode,
    MalformedAddress,
    RangeRef,
    column_number,
    format_number,
    parse_address,
    rect_key,
    render,
    row_major,
    value_type,
)


class LoadError(SheetLintError):
    """A .sheet or .intervals file could not be read; carries the
    1-based line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class MalformedLine(LoadError):
    """A line is not ADDR = CONTENT with recognizable content."""


class DuplicateCell(LoadError):
    """The same address was assigned twice."""

    def __init__(self, address: CellAddress, line: int):
        super().__init__(f"cell {address} assigned more than once", line)
        self.address = address


class CellFormulaError(LoadError):
    """A formula failed to parse; the cause is chained."""

    def __init__(self, address: CellAddress, line: int, cause: FormulaError):
        super().__init__(f"cell {address}: {cause}", line)
        self.address = address


class NotAnInputCell(SheetLintError):
    """A binding targeted a cell that is not an Input."""

    def __init__(self, address: CellAddress):
        super().__init__(f"cell {address} is not an input cell")
        self.address = address


class Constant(value_type("Constant", "value")):
    __slots__ = ()
    value: float


class Input(value_type("Input", "default")):
    __slots__ = ()
    default: float


class Formula(value_type("Formula", "ast")):
    __slots__ = ()
    ast: FormulaNode


class Label(value_type("Label", "text")):
    __slots__ = ()
    text: str


CellContent = Union[Constant, Input, Formula, Label]

_KINDS = {Constant: "constant", Input: "input", Formula: "formula", Label: "label"}


def content_kind(content: CellContent) -> str:
    """The state name of a non-empty cell."""
    try:
        return _KINDS[type(content)]
    except KeyError:
        raise TypeError(f"not cell content: {content!r}") from None


def render_content(content: CellContent) -> str:
    """The .sheet spelling of one cell's content."""
    if isinstance(content, Constant):
        return "#" + format_number(content.value)
    if isinstance(content, Input):
        return "?" + format_number(content.default)
    if isinstance(content, Formula):
        return "=" + render(content.ast)
    if isinstance(content, Label):
        return f'"{content.text}"'
    raise TypeError(f"not cell content: {content!r}")


class SpreadsheetProgram:
    """An immutable sheet: the template without any input overrides.

    ``copy_classes`` maps a formula cell to the first cell of its copy
    class, when the two formulas are known to be copies spelled alike,
    as ``load_program`` finds them; a formula cell it does not map is
    a class of its own.
    """

    def __init__(
        self,
        cells: Mapping[CellAddress, CellContent],
        copy_classes: Mapping[CellAddress, CellAddress] | None = None,
    ):
        self._cells: dict[CellAddress, CellContent] = {
            addr: cells[addr] for addr in sorted(cells, key=row_major)
        }
        self._copy_classes = dict(copy_classes or {})
        if self._cells:
            self._extent = (
                max(a.col for a in self._cells),
                max(a.row for a in self._cells),
            )
        else:
            self._extent = (0, 0)
        # What each per_program function built from this program.
        self._memo: dict = {}

    @property
    def cells(self) -> Mapping[CellAddress, CellContent]:
        """Read-only view, iterated in row-major address order."""
        return MappingProxyType(self._cells)

    @property
    def copy_classes(self) -> Mapping[CellAddress, CellAddress]:
        """Read-only view: formula cell -> first cell of its copy class,
        for each formula that shares a class with an earlier one."""
        return MappingProxyType(self._copy_classes)

    @property
    def extent(self) -> tuple[int, int]:
        """Largest occupied column and row, (0, 0) when empty."""
        return self._extent

    def content(self, addr: CellAddress) -> CellContent | None:
        """The content at an address, or None for an empty cell."""
        return self._cells.get(addr)

    def formula_cells(self) -> Iterator[tuple[CellAddress, Formula]]:
        """Formula cells in row-major order."""
        for addr, content in self._cells.items():
            if isinstance(content, Formula):
                yield addr, content

    def input_cells(self) -> Iterator[tuple[CellAddress, Input]]:
        """Input cells in row-major order."""
        for addr, content in self._cells.items():
            if isinstance(content, Input):
                yield addr, content

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpreadsheetProgram):
            return NotImplemented
        return self._cells == other._cells

    def __repr__(self) -> str:
        return f"SpreadsheetProgram({len(self._cells)} cells, extent {self._extent})"


def per_program(fn: Callable[[SpreadsheetProgram], object]) -> Callable:
    """Make ``fn(program)`` build once per program: the first call keeps
    the result on the program, and every later call returns that same
    object, so callers must not mutate it.  A program never changes, so
    the result never goes stale."""

    # Keyed by this wrapper, which the module's name refers to, so a
    # program still pickles after something is built from it.
    @functools.wraps(fn)
    def once(program: SpreadsheetProgram):
        if once not in program._memo:
            program._memo[once] = fn(program)
        return program._memo[once]

    return once


class CellIndex:
    """Where a program's content is: for each column, the sorted rows of
    its non-empty cells, overall and per content kind.

    A rectangle's occupied cells and empty runs are found by bisecting
    these lists, so the cost follows the cells there are and the runs
    between them, not the addresses a rectangle covers.
    """

    def __init__(self, program: SpreadsheetProgram):
        # kind (None for any) -> column -> rows, ascending
        self._rows: dict[str | None, dict[int, list[int]]] = {None: {}}
        self._rows.update((kind, {}) for kind in _KINDS.values())
        anything = self._rows[None]
        # The cells run row-major, so every list is built in order.
        for (col, row), content in program.cells.items():
            anything.setdefault(col, []).append(row)
            self._rows[_KINDS[type(content)]].setdefault(col, []).append(row)
        self._cols = {kind: sorted(rows) for kind, rows in self._rows.items()}

    def _spans(self, rect: RangeRef, kind: str | None) -> Iterator[tuple[int, list[int]]]:
        """Each column of ``rect`` holding ``kind``, with its rows there."""
        cols = self._cols[kind]
        top, bottom = rect.start.row, rect.end.row
        first = bisect_left(cols, rect.start.col)
        for col in cols[first:bisect_right(cols, rect.end.col, first)]:
            rows = self._rows[kind][col]
            lo = bisect_left(rows, top)
            yield col, rows[lo:bisect_right(rows, bottom, lo)]

    def count(self, rect: RangeRef, kind: str | None = None) -> int:
        """How many cells of ``rect`` hold content, of ``kind`` if given."""
        return sum(len(rows) for _, rows in self._spans(rect, kind))

    def occupied(self, rect: RangeRef, kind: str | None = None) -> list[CellAddress]:
        """The cells of ``rect`` that hold content, of ``kind`` if given,
        column by column and top-down within each."""
        # The rows and columns come from loaded cells, already checked,
        # so each address is built in C without CellAddress's checks.
        cells: list[CellAddress] = []
        for col, rows in self._spans(rect, kind):
            cells += map(tuple.__new__, repeat(CellAddress, len(rows)), zip(repeat(col), rows))
        return cells

    def empty_runs(self, rect: RangeRef) -> Iterator[CellAddress | RangeRef]:
        """The maximal runs of empty cells in each column of ``rect``,
        column by column and top-down within each: a run of one as its
        address, a longer run as the rectangle it spans."""
        top, bottom = rect.start.row, rect.end.row
        full = dict(self._spans(rect, None))
        for col in range(rect.start.col, rect.end.col + 1):
            rows = full.get(col, ())
            if len(rows) == bottom - top + 1:
                continue
            row = top
            for filled in (*rows, bottom + 1):
                if row == filled - 1:
                    yield tuple.__new__(CellAddress, (col, row))
                elif row < filled:
                    yield RangeRef(CellRef(col, row), CellRef(col, filled - 1))
                row = filled + 1

    def parts(self, rect: RangeRef) -> list[CellAddress | RangeRef]:
        """What ``rect`` reads, one item per occupied cell and one per
        empty run, in row-major order of each item's top-left cell."""
        parts: list[CellAddress | RangeRef] = self.occupied(rect)
        if len(parts) < rect.width() * rect.height():
            parts += self.empty_runs(rect)
            parts.sort(key=rect_key)
        elif rect.start.col != rect.end.col:
            parts.sort(key=row_major)
        return parts


@per_program
def cell_index(program: SpreadsheetProgram) -> CellIndex:
    """The program's occupied-cell index."""
    return CellIndex(program)


class SpreadsheetInstance:
    """A program together with concrete values for its inputs.

    Inputs without an explicit binding fall back to their declared
    default.  Two instances are equal when their programs agree and
    every input carries the same effective value.
    """

    def __init__(
        self,
        program: SpreadsheetProgram,
        bindings: Mapping[CellAddress, float] | None = None,
    ):
        bindings = dict(bindings or {})
        for addr, value in bindings.items():
            if not isinstance(program.content(addr), Input):
                raise NotAnInputCell(addr)
            if not math.isfinite(value):
                raise ValueError(f"input {addr} bound to non-finite {value!r}")
        self.program = program
        self._bindings = {
            addr: float(value)
            for addr, value in sorted(bindings.items(), key=lambda item: row_major(item[0]))
        }

    @property
    def bindings(self) -> Mapping[CellAddress, float]:
        """Read-only view of the explicit bindings, in row-major order."""
        return MappingProxyType(self._bindings)

    def input_value(self, addr: CellAddress) -> float:
        """The effective value of an input cell."""
        content = self.program.content(addr)
        if not isinstance(content, Input):
            raise NotAnInputCell(addr)
        return self._bindings.get(addr, content.default)

    def _effective(self) -> dict[CellAddress, float]:
        return {addr: self.input_value(addr) for addr, _ in self.program.input_cells()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpreadsheetInstance):
            return NotImplemented
        return self.program == other.program and self._effective() == other._effective()

    def __repr__(self) -> str:
        return f"SpreadsheetInstance({self.program!r}, {len(self._bindings)} bindings)"


def instantiate(
    program: SpreadsheetProgram,
    bindings: Mapping[CellAddress, float] | None = None,
) -> SpreadsheetInstance:
    """Bind input values to a program.

    Raises NotAnInputCell when a binding targets anything but an Input,
    and ValueError when a bound value is not finite.
    """
    return SpreadsheetInstance(program, bindings)


# ---------------------------------------------------------------------------
# The .sheet format

# A number as both formats write it.  Digits are ASCII only, as in
# formulas: \d would also take other scripts'.
_NUMBER = r"[+-]?(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)(?:[eE][+-]?[0-9]+)?"

# The one reader of a well-formed ``ADDR = CONTENT`` line, in one
# match: the address's letters and digits, then a '#' or '?' with its
# number, a label's text or a formula's body.  \s agrees with
# str.isspace, so it skips the whitespace ``_line_error`` strips; that
# explainer only names what is wrong with a line this rejects.
_CELL_LINE_RE = re.compile(
    rf'\s*([A-Za-z]+)([0-9]+)\s*=\s*(?:([#?])\s*({_NUMBER})\s*|"(.*)"\s*|=(.*))\Z'
)


def split_lines(text: str) -> list[str]:
    """The lines of a .sheet or .intervals text.  Only '\\n', '\\r\\n'
    and a lone '\\r' end a line: ``str.splitlines`` also breaks at a
    form feed, U+0085, U+2028 and others, which a line may hold."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def strip_comment(line: str) -> str:
    """The line up to its first ';' that is not inside double quotes."""
    # One pass: the quotes before each ';' are counted from where the
    # last count stopped, and a quoted ';' resumes past its closing quote.
    start = 0
    while True:
        semi = line.find(";", start)
        if semi < 0:
            return line
        if line.count('"', start, semi) % 2 == 0:
            return line[:semi]
        close = line.find('"', semi)
        if close < 0:
            return line
        start = close + 1


def _line_error(line: str, lineno: int, cells: Mapping[CellAddress, CellContent]) -> LoadError:
    """What is wrong with a line that is not blank, when the one-match
    reading rejects it or its row or number fails the checks after."""
    addr_text, sep, text = line.partition("=")
    if not sep:
        return MalformedLine("expected ADDR = CONTENT", lineno)
    try:
        addr = parse_address(addr_text.strip())
    except MalformedAddress as err:
        error = MalformedLine(str(err), lineno)
        error.__cause__ = err
        return error
    if addr in cells:
        return DuplicateCell(addr, lineno)
    # Its address read, a formula's line always matches, and a number's
    # or a label's matches unless it holds what is named below.
    text = text.strip()
    first = text[:1]
    if first == "#" or first == "?":
        what = "constant" if first == "#" else "input default"
        body = text[1:].strip()
        problem = "number out of range" if re.fullmatch(_NUMBER, body) else "bad number"
        return MalformedLine(f"{problem} in {what}: {body!r}", lineno)
    if first == '"':
        return MalformedLine(f"unterminated label: {text!r}", lineno)
    return MalformedLine(f"unrecognized cell content: {text!r}", lineno)


def load_program(text: str) -> SpreadsheetProgram:
    """Parse .sheet text.

    Raises MalformedLine, DuplicateCell, or CellFormulaError, each
    carrying the offending 1-based line number.
    """
    cells: dict[CellAddress, CellContent] = {}
    classes: dict[CellAddress, CellAddress] = {}
    read_formula = CopyClassReader().read
    match = _CELL_LINE_RE.match
    isfinite = math.isfinite
    # Built in C: the row is checked below, and letters decode to a
    # column of 1 or more.
    new = tuple.__new__
    for lineno, raw in enumerate(split_lines(text), 1):
        line = strip_comment(raw) if ";" in raw else raw
        m = match(line)
        if m is None:
            if not line.strip():
                continue
            raise _line_error(line, lineno, cells)
        letters, digits, sigil, number, label, body = m.groups()
        try:
            row = int(digits)
        except ValueError:  # more digits than ``int`` reads from a string
            row = 0
        value = float(number) if sigil else 0.0
        if row < 1 or not isfinite(value):
            # Row 0, an overlong row or a number beyond the floats: the
            # explainer names the error, or any that comes first.
            raise _line_error(line, lineno, cells)
        addr = new(CellAddress, (column_number(letters), row))
        if addr in cells:
            raise DuplicateCell(addr, lineno)
        if sigil == "#":
            cells[addr] = new(Constant, (value,))
        elif sigil == "?":
            cells[addr] = new(Input, (value,))
        elif label is not None:
            cells[addr] = new(Label, (label,))
        else:
            try:
                tree, first = read_formula(body.rstrip(), addr)
            except FormulaError as err:
                raise CellFormulaError(addr, lineno, err) from err
            cells[addr] = new(Formula, (tree,))
            if first is not addr:
                classes[addr] = first
    return SpreadsheetProgram(cells, classes)


def render_program(program: SpreadsheetProgram) -> str:
    """Write a program back out, one cell per line in row-major order.

    Loading the result reproduces the program.  Raises ValueError,
    naming the cell, for a label the format cannot spell: one holding a
    line end, or a ';' that the loader would take as a comment's start.
    """
    lines = []
    for addr, content in program.cells.items():
        line = f"{addr} = {render_content(content)}"
        if type(content) is Label and (
            "\n" in content.text or "\r" in content.text or strip_comment(line) != line
        ):
            raise ValueError(f"{addr}: label {content.text!r} has no .sheet spelling")
        lines.append(line)
    return "\n".join(lines) + ("\n" if lines else "")
