"""Area inference: the units a sheet is organized around.

Three nested notions of "cells that belong together":

  PhysicalArea     the rectangle a grouping call reads, one per range
                   argument occurrence
  LogicalArea      formula cells that are exact copies of one another
                   after normalization
  StructuralGroup  formula cells whose trees share a shape, ignoring
                   offsets, markers, and literal values

Logical areas refine structural groups: every logical area lies within
one structural group.  The ranges that the copies of a logical area
read at one argument position form one intended area
(``intended_areas``).  Each is built once per program, on first use,
and shared by every later caller (see ``model.per_program``).

Logical areas group formulas by copy key and structural groups by
skeleton.  Both are computed once per copy class, the copies
``load_program`` found spelled alike and read with one shared parse
(``program.copy_classes``), and the members of a class hold the same
key and skeleton object, so grouping them finds each by identity.  A
program built any other way has one class per formula.
"""

from __future__ import annotations

from itertools import groupby
from typing import Callable

from .dataflow import formula_reads
from .model import SpreadsheetProgram, cell_index, per_program
from .scl import (
    CellAddress,
    CellRef,
    CopyKey,
    RangeRef,
    Skeleton,
    copy_key,
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


def _per_copy_class(program: SpreadsheetProgram, fact: Callable) -> dict[CellAddress, tuple]:
    """``fact(tree, addr)`` for each formula cell, in row-major order,
    computed once per copy class: every member holds the same object."""
    classes = program.copy_classes
    shared: dict[CellAddress, tuple] = {}
    out: dict[CellAddress, tuple] = {}
    for addr, cell in program.formula_cells():
        first = classes.get(addr, addr)
        value = shared.get(first)
        if value is None:
            value = shared[first] = fact(cell.ast, addr)
        out[addr] = value
    return out


@per_program
def copy_keys(program: SpreadsheetProgram) -> dict[CellAddress, CopyKey]:
    """Each formula cell's copy key, in row-major order; the members of
    a copy class share one key."""
    return _per_copy_class(program, copy_key)


@per_program
def skeletons(program: SpreadsheetProgram) -> dict[CellAddress, Skeleton]:
    """Each formula cell's skeleton, in row-major order; the members of
    a copy class share one skeleton."""
    return _per_copy_class(program, lambda tree, _: skeleton(tree))


def _groups(keys: dict[CellAddress, object]) -> list[list[CellAddress]]:
    """The formula cells that share a key, two or more per group.  The
    keys run row-major, so the groups come by their first members."""
    groups: dict[object, list[CellAddress]] = {}
    for addr, key in keys.items():
        groups.setdefault(key, []).append(addr)
    return [members for members in groups.values() if len(members) >= 2]


@per_program
def infer_logical_areas(program: SpreadsheetProgram) -> list[LogicalArea]:
    """Maximal groups of two or more copy-equivalent formulas.

    Members need not be adjacent; the hull is the bounding rectangle.
    Each formula cell belongs to at most one area.
    """
    return [
        LogicalArea(members=tuple(members), hull=_hull(members))
        for members in _groups(copy_keys(program))
    ]


class UnionBox(value_type("UnionBox", "c1 r1 c2 r2 area ranges")):
    """Part of an intended area: a rectangle, given by its corner
    columns and rows, that is exactly the union of the listed ranges
    (indices into ``infer_physical_areas``, ascending) of intended area
    number ``area``."""

    __slots__ = ()
    c1: int
    r1: int
    c2: int
    r2: int
    area: int
    ranges: tuple[int, ...]


class IntendedAreas(value_type("IntendedAreas", "boxes box_of")):
    """Every intended area's union boxes, by area and row-major within
    each, and for each physical area the box that holds its range."""

    __slots__ = ()
    boxes: list[UnionBox]
    box_of: list[UnionBox]


@per_program
def intended_areas(program: SpreadsheetProgram) -> IntendedAreas:
    """The ranges that one conceptual model reads, merged into boxes.

    Copies of one formula carry one model, so the ranges at one
    argument position across the copies of a logical area form one
    intended area; a formula in no logical area forms one per range.
    Areas are numbered by their first range.  Within an area, ranges
    over the same columns whose rows overlap or touch are merged, and
    so are ranges over the same rows whose columns do, until nothing
    merges: a column of running totals becomes one box.
    """
    physical = infer_physical_areas(program)
    owner = {
        addr: area.members[0] for area in infer_logical_areas(program) for addr in area.members
    }
    members: dict[tuple[CellAddress, int], list[int]] = {}
    # A consumer's ranges are listed together, in argument order.
    for consumer, indices in groupby(range(len(physical)), lambda i: physical[i].consumer):
        for position, i in enumerate(indices):
            members.setdefault((owner.get(consumer, consumer), position), []).append(i)

    boxes: list[UnionBox] = []
    box_of: list[UnionBox] = [None] * len(physical)
    for number, indices in enumerate(members.values()):
        parts = []
        for i in indices:
            (c1, r1, *_), (c2, r2, *_) = physical[i].rect
            parts.append([c1, r1, c2, r2, [i]])
        while True:
            count = len(parts)
            parts = _transposed(_merge_rows(_transposed(_merge_rows(parts))))
            if len(parts) == count:
                break
        for c1, r1, c2, r2, ranges in sorted(parts, key=lambda part: (part[1], part[0])):
            box = UnionBox(c1, r1, c2, r2, number, tuple(sorted(ranges)))
            boxes.append(box)
            for i in ranges:
                box_of[i] = box
    return IntendedAreas(boxes, box_of)


def _merge_rows(parts: list[list]) -> list[list]:
    """Merge ``[c1, r1, c2, r2, ranges]`` parts over the same columns
    whose rows overlap or touch; the union of each merge is exact."""
    parts.sort(key=lambda part: (part[0], part[2], part[1]))
    out: list[list] = []
    for part in parts:
        last = out[-1] if out else None
        if last and last[0] == part[0] and last[2] == part[2] and part[1] <= last[3] + 1:
            last[3] = max(last[3], part[3])
            last[4] += part[4]
        else:
            out.append(part)
    return out


def _transposed(parts: list[list]) -> list[list]:
    return [[r1, c1, r2, c2, ranges] for c1, r1, c2, r2, ranges in parts]


@per_program
def structural_groups(program: SpreadsheetProgram) -> list[StructuralGroup]:
    """Maximal groups of two or more shape-alike formulas."""
    return [StructuralGroup(members=tuple(members)) for members in _groups(skeletons(program))]
