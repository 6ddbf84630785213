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
blank are skipped.  Numbers must be finite.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Mapping, Union

from .errors import SheetLintError
from .scl import (
    CellAddress,
    FormulaError,
    FormulaNode,
    MalformedAddress,
    format_number,
    parse_address,
    parse_formula,
    render,
    row_major,
)


class LoadError(SheetLintError):
    """A .sheet file could not be read; carries the 1-based line."""

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


@dataclass(frozen=True)
class Constant:
    value: float


@dataclass(frozen=True)
class Input:
    default: float


@dataclass(frozen=True)
class Formula:
    ast: FormulaNode


@dataclass(frozen=True)
class Label:
    text: str


CellContent = Union[Constant, Input, Formula, Label]


def content_kind(content: CellContent) -> str:
    """The state name of a non-empty cell."""
    if isinstance(content, Constant):
        return "constant"
    if isinstance(content, Input):
        return "input"
    if isinstance(content, Formula):
        return "formula"
    if isinstance(content, Label):
        return "label"
    raise TypeError(f"not cell content: {content!r}")


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
    """An immutable sheet: the template without any input overrides."""

    def __init__(self, cells: Mapping[CellAddress, CellContent]):
        ordered = sorted(cells.items(), key=lambda item: row_major(item[0]))
        self._cells: dict[CellAddress, CellContent] = dict(ordered)
        if self._cells:
            self._extent = (
                max(a.col for a in self._cells),
                max(a.row for a in self._cells),
            )
        else:
            self._extent = (0, 0)

    @property
    def cells(self) -> Mapping[CellAddress, CellContent]:
        """Read-only view, iterated in row-major address order."""
        return MappingProxyType(self._cells)

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
        return MappingProxyType(self._bindings)

    def input_value(self, addr: CellAddress) -> float:
        """The effective value of an input cell."""
        content = self.program.content(addr)
        if not isinstance(content, Input):
            raise NotAnInputCell(addr)
        return self._bindings.get(addr, content.default)

    def with_input(self, addr: CellAddress, value: float) -> "SpreadsheetInstance":
        """A new instance with one input rebound; self is unchanged."""
        updated = dict(self._bindings)
        updated[addr] = value
        return SpreadsheetInstance(self.program, updated)

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

_NUMBER_RE = re.compile(r"[+-]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?\Z")


def strip_comment(line: str) -> str:
    """The line up to its first ';' that is not inside double quotes."""
    semi = line.find(";")
    while semi >= 0:
        if line.count('"', 0, semi) % 2 == 0:
            return line[:semi]
        semi = line.find(";", semi + 1)
    return line


def _parse_content(text: str, addr: CellAddress, lineno: int) -> CellContent:
    if text[:1] in ("#", "?"):
        what = "constant" if text[0] == "#" else "input default"
        body = text[1:].strip()
        if not _NUMBER_RE.match(body):
            raise MalformedLine(f"bad number in {what}: {body!r}", lineno)
        value = float(body)
        if not math.isfinite(value):
            raise MalformedLine(f"number out of range in {what}: {body!r}", lineno)
        return Constant(value) if text[0] == "#" else Input(value)
    if text.startswith("="):
        try:
            return Formula(parse_formula(text[1:]))
        except FormulaError as err:
            raise CellFormulaError(addr, lineno, err) from err
    if text.startswith('"'):
        if len(text) < 2 or not text.endswith('"'):
            raise MalformedLine(f"unterminated label: {text!r}", lineno)
        return Label(text[1:-1])
    raise MalformedLine(f"unrecognized cell content: {text!r}", lineno)


def load_program(text: str) -> SpreadsheetProgram:
    """Parse .sheet text.

    Raises MalformedLine, DuplicateCell, or CellFormulaError, each
    carrying the offending 1-based line number.
    """
    cells: dict[CellAddress, CellContent] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = strip_comment(raw).strip()
        if not line:
            continue
        addr_text, sep, content_text = line.partition("=")
        if not sep:
            raise MalformedLine("expected ADDR = CONTENT", lineno)
        try:
            addr = parse_address(addr_text.strip())
        except MalformedAddress as err:
            raise MalformedLine(str(err), lineno) from err
        if addr in cells:
            raise DuplicateCell(addr, lineno)
        cells[addr] = _parse_content(content_text.strip(), addr, lineno)
    return SpreadsheetProgram(cells)


def render_program(program: SpreadsheetProgram) -> str:
    """Write a program back out, one cell per line in row-major order.

    Loading the result reproduces the program.
    """
    lines = [
        f"{addr} = {render_content(content)}"
        for addr, content in program.cells.items()
    ]
    return "\n".join(lines) + ("\n" if lines else "")
