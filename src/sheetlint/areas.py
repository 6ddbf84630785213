"""Area inference: the units a sheet is organized around.

Three nested notions of "cells that belong together":

  PhysicalArea     the rectangle a grouping call reads, one per range
                   argument occurrence
  LogicalArea      formula cells that are exact copies of one another
                   after normalization
  StructuralGroup  formula cells whose trees share a shape, ignoring
                   offsets, markers, and literal values

Logical areas refine structural groups: every logical area lies within
one structural group.  Each is built once per program, on first use,
and shared by every later caller (see ``model.per_program``).
"""

from __future__ import annotations

from .dataflow import formula_reads
from .model import SpreadsheetProgram, cell_index, per_program
from .scl import (
    CellAddress,
    CellRef,
    CopyKey,
    RangeRef,
    Skeleton,
    copy_key,
    row_major,
    skeleton,
    value_type,
)

# Tie order when range content is evenly mixed: data kinds first.
_KIND_PRIORITY = ("constant", "input", "formula", "label")


class PhysicalArea(value_type("PhysicalArea", "rect consumer function majority_type")):
    """One range argument: the rectangle, who reads it, and with what."""

    __slots__ = ()
    rect: RangeRef
    consumer: CellAddress
    function: str
    majority_type: str | None

    def __str__(self) -> str:
        return f"{self.function} {self.rect} -> {self.consumer}"


class LogicalArea(value_type("LogicalArea", "members hull")):
    """Copy-equivalent formula cells and their hull."""

    __slots__ = ()
    members: tuple[CellAddress, ...]
    hull: RangeRef

    def __str__(self) -> str:
        return f"{len(self.members)} copies in {self.hull}"


class StructuralGroup(value_type("StructuralGroup", "members")):
    """Formula cells sharing a tree shape."""

    __slots__ = ()
    members: tuple[CellAddress, ...]


def _majority_type(program: SpreadsheetProgram, rect: RangeRef) -> str | None:
    index = cell_index(program)
    counts = {kind: index.count(rect, kind) for kind in _KIND_PRIORITY}
    # max keeps the first of equal counts, so ties go by priority.
    kind = max(_KIND_PRIORITY, key=counts.__getitem__)
    return kind if counts[kind] else None


@per_program
def infer_physical_areas(program: SpreadsheetProgram) -> list[PhysicalArea]:
    """Every range a grouping call reads, in row-major consumer order.

    A formula with two range arguments yields two areas; the same
    rectangle read by two formulas yields one area per consumer.
    """
    return [
        PhysicalArea(rect, consumer, function, _majority_type(program, rect))
        for consumer, (_, ranges) in formula_reads(program).items()
        for function, rect in ranges
    ]


def _hull(members: list[CellAddress]) -> RangeRef:
    return RangeRef(
        CellRef(min(a.col for a in members), min(a.row for a in members)),
        CellRef(max(a.col for a in members), max(a.row for a in members)),
    )


@per_program
def copy_keys(program: SpreadsheetProgram) -> dict[CellAddress, CopyKey]:
    """Each formula cell's copy key, in row-major order."""
    return {addr: copy_key(cell.ast, addr) for addr, cell in program.formula_cells()}


@per_program
def infer_logical_areas(program: SpreadsheetProgram) -> list[LogicalArea]:
    """Maximal groups of two or more copy-equivalent formulas.

    Members need not be adjacent; the hull is the bounding rectangle.
    Each formula cell belongs to at most one area.
    """
    groups: dict[CopyKey, list[CellAddress]] = {}
    for addr, key in copy_keys(program).items():
        groups.setdefault(key, []).append(addr)
    areas = [
        LogicalArea(members=tuple(members), hull=_hull(members))
        for members in groups.values()
        if len(members) >= 2
    ]
    areas.sort(key=lambda area: row_major(area.members[0]))
    return areas


@per_program
def structural_groups(program: SpreadsheetProgram) -> list[StructuralGroup]:
    """Maximal groups of two or more shape-alike formulas."""
    groups: dict[Skeleton, list[CellAddress]] = {}
    for addr, cell in program.formula_cells():
        groups.setdefault(skeleton(cell.ast), []).append(addr)
    out = [
        StructuralGroup(members=tuple(members))
        for members in groups.values()
        if len(members) >= 2
    ]
    out.sort(key=lambda group: row_major(group.members[0]))
    return out
