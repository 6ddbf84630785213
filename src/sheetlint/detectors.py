"""Detectors for characteristic spreadsheet faults.

Each detector inspects a program (never concrete values) and reports
zero or more diagnostics:

    D1_BLANK_REF             a formula reads an empty cell
    D2_WRONG_TYPE_IN_RANGE   a grouping range covers a Label cell
    D3_INCORRECT_RANGE       data adjoins a range but is left out of it
    D4_AREA_MIXUP            distinct areas are blended into one result
    D5_CONSTANT_OVERWRITE    a constant interrupts a run of formula copies
    D6_COPY_MISREFERENCE     one copy deviates only in reference markers

Two further codes surface evaluation facts, from an EvalResult given
to detect_all or from its own evaluation: G_CYCLE for reference loops
(an error, since nothing can be computed) and G_DIV_ZERO for divisions
by zero under the current inputs.  Every other code is a warning (see
``Code.severity``): the sheet may still be right, but each flagged
spot is where a representative error hides.
"""

from __future__ import annotations

import functools
from enum import Enum
from typing import Callable, Iterable, Iterator

from .areas import (
    LogicalArea,
    PhysicalArea,
    UnionBox,
    copy_keys,
    infer_logical_areas,
    infer_physical_areas,
    intended_areas,
    structural_groups,
)
from .dataflow import CyclicDependency, build_graph, formula_reads
from .evaluator import EvalResult, NoteKind, eval_instance, may_divide_by_zero
from .model import SpreadsheetProgram, cell_index, content_kind, instantiate
from .scl import (
    CellAddress,
    CopyKey,
    NormRef,
    RangeArg,
    RangeRef,
    Reference,
    column_letters,
    rect_key,
    row_major,
    value_type,
)


class Code(Enum):
    D1_BLANK_REF = "D1_BLANK_REF"
    D2_WRONG_TYPE_IN_RANGE = "D2_WRONG_TYPE_IN_RANGE"
    D3_INCORRECT_RANGE = "D3_INCORRECT_RANGE"
    D4_AREA_MIXUP = "D4_AREA_MIXUP"
    D5_CONSTANT_OVERWRITE = "D5_CONSTANT_OVERWRITE"
    D6_COPY_MISREFERENCE = "D6_COPY_MISREFERENCE"
    G_CYCLE = "G_CYCLE"
    G_DIV_ZERO = "G_DIV_ZERO"

    @property
    def severity(self) -> Severity:
        return Severity.ERROR if self is Code.G_CYCLE else Severity.WARNING


class Severity(Enum):
    WARNING = "warning"
    ERROR = "error"


class Diagnostic(value_type("Diagnostic", "code severity cells message area", (None,))):
    """One finding: a code, the cells it is about, and a message.

    A D1 finding's subject may be a run of empty cells, given as its
    range.  ``area`` carries the physical or logical area the finding
    arose from, when there is one.
    """

    __slots__ = ()
    code: Code
    severity: Severity
    cells: tuple[CellAddress | RangeRef, ...]
    message: str
    area: PhysicalArea | LogicalArea | None


# What a detector found: the subject cells, the message, and the area.
Finding = tuple[tuple[CellAddress | RangeRef, ...], str, PhysicalArea | LogicalArea | None]


def _sort_key(diag: Diagnostic):
    return diag.code.value, tuple(map(rect_key, diag.cells)), diag.message


def _diagnostics(code: Code, findings: Iterable[Finding]) -> list[Diagnostic]:
    """One code's findings as Diagnostics of its severity, sorted."""
    severity = code.severity
    out = [Diagnostic(code, severity, cells, message, area) for cells, message, area in findings]
    out.sort(key=_sort_key)
    return out


def _detector(code: Code):
    """Make a generator of findings ``find(program)`` return the sorted
    list of ``code``'s Diagnostics."""

    def wrap(find: Callable[[SpreadsheetProgram], Iterable[Finding]]):
        @functools.wraps(find)
        def detect(program: SpreadsheetProgram) -> list[Diagnostic]:
            return _diagnostics(code, find(program))

        return detect

    return wrap


@_detector(Code.D1_BLANK_REF)
def detect_blank_ref(program: SpreadsheetProgram) -> Iterator[Finding]:
    """D1: a formula reads a cell with nothing in it.

    One warning per (formula, empty cell) pair for direct references,
    and one per (formula, empty run) pair for ranges: a maximal run of
    empty cells in one column of a range is named once, as its range
    when it spans more than one cell.
    """
    index = cell_index(program)
    for addr, (refs, ranges) in formula_reads(program).items():
        empty = dict.fromkeys(ref for ref in refs if program.content(ref) is None)
        for _, rect in ranges:
            empty.update(dict.fromkeys(index.empty_runs(rect)))
        for source in empty:
            what = "cells" if type(source) is RangeRef else "cell"
            yield (source,), f"{addr} reads empty {what} {source}", None


@_detector(Code.D2_WRONG_TYPE_IN_RANGE)
def detect_wrong_type_in_range(program: SpreadsheetProgram) -> Iterator[Finding]:
    """D2: a Label sits inside a numeric grouping range.

    The label is skipped today, so the result looks right; if the cell
    is ever given a number, that number silently joins the aggregate.
    Each label is reported once, naming the first range that covers it
    (row-major by consumer) and counting the others.
    """
    index = cell_index(program)
    first: dict[CellAddress, PhysicalArea] = {}
    covers: dict[CellAddress, int] = {}
    for area in infer_physical_areas(program):
        for addr in index.occupied(area.rect, "label"):
            first.setdefault(addr, area)
            covers[addr] = covers.get(addr, 0) + 1
    for addr, area in first.items():
        others = covers[addr] - 1
        more = f" and {others} other range{'s' if others > 1 else ''}" if others else ""
        yield (
            (addr,),
            f"label at {addr} lies inside {area.function} range "
            f"{area.rect} of {area.consumer}{more}; a number typed there "
            f"would silently join the aggregate",
            area,
        )


@_detector(Code.D3_INCORRECT_RANGE)
def detect_incorrect_range(program: SpreadsheetProgram) -> Iterator[Finding]:
    """D3: a cell of the range's own kind adjoins it but is left out.

    Checked one step beyond both ends of the range's major axis.  The
    consuming formula itself does not count, and neither does a cell in
    the union box that holds the range (``areas.intended_areas``): a
    range of the same intended area reads it, as the next copy of a
    running total reads the cell after the range.
    """
    box_of = intended_areas(program).box_of
    for area, box in zip(infer_physical_areas(program), box_of):
        if area.majority_type is None:
            continue
        c1, r1, c2, r2 = box[:4]
        for addr in _adjoining(area):
            content = program.content(addr)
            if content is None or addr == area.consumer:
                continue
            col, row = addr
            if c1 <= col <= c2 and r1 <= row <= r2:
                continue
            if content_kind(content) == area.majority_type:
                yield (
                    (addr,),
                    f"{addr} adjoins {area.function} range {area.rect} of "
                    f"{area.consumer} and holds the same kind of content, "
                    f"but the range leaves it out",
                    area,
                )


def _adjoining(area: PhysicalArea) -> Iterator[CellAddress]:
    rect = area.rect
    if rect.height() >= rect.width():
        before, after = rect.start.row - 1, rect.end.row + 1
        for col in range(rect.start.col, rect.end.col + 1):
            if before >= 1:
                yield CellAddress(col, before)
            yield CellAddress(col, after)
    else:
        before, after = rect.start.col - 1, rect.end.col + 1
        for row in range(rect.start.row, rect.end.row + 1):
            if before >= 1:
                yield CellAddress(before, row)
            yield CellAddress(after, row)


# D4 names a '+' chain that adds at least this many distinct cells of a line.
_CHAIN_MIN_CELLS = 3


@_detector(Code.D4_AREA_MIXUP)
def detect_area_mixup(program: SpreadsheetProgram) -> Iterator[Finding]:
    """D4: results from distinct areas are blended.

    Fires once per pair of intended areas whose ranges overlap, and
    when a formula adds up three or more distinct cells of one row or
    column one by one instead of grouping over a range.  Ranges of one
    intended area, such as the ranges of a column of running totals,
    may overlap freely.
    """
    physical = infer_physical_areas(program)
    boxes, box_of = intended_areas(program)
    copies: dict[int, int] = {}
    for box in boxes:
        copies[box.area] = copies.get(box.area, 0) + len(box.ranges)

    def spell(i: int) -> str:
        area, count = physical[i], copies[box_of[i].area]
        of = f", one of {count} copies" if count > 1 else ""
        return f"{area.rect} (of {area.consumer}{of})"

    for i, j, shared in _overlapping_pairs(physical, boxes):
        subjects = {physical[i].consumer, physical[j].consumer}
        yield (
            tuple(sorted(subjects, key=row_major)),
            f"ranges {spell(i)} and {spell(j)} overlap at {shared}",
            physical[i],
        )
    # A '+' chain's copy key lists only '+' tokens and references.
    keys = copy_keys(program)
    for addr, (refs, _) in formula_reads(program).items():
        cells = set(refs)
        if len(cells) < _CHAIN_MIN_CELLS or any(
            type(item) is not Reference and item != "+" for item in keys[addr]
        ):
            continue
        cols = {a.col for a in cells}
        rows = {a.row for a in cells}
        if len(cols) > 1 and len(rows) > 1:
            continue
        if len(cols) == 1:
            axis = f"column {column_letters(next(iter(cols)))}"
        else:
            axis = f"row {next(iter(rows))}"
        lo = min(cells, key=row_major)
        hi = max(cells, key=row_major)
        yield (
            (addr,),
            f"{addr} adds {len(cells)} cells of {axis} one at a time; "
            f"a grouping call such as SUM({lo}:{hi}) would name the "
            f"area outright",
            None,
        )


def _overlapping_pairs(
    areas: list[PhysicalArea], boxes: list[UnionBox]
) -> list[tuple[int, int, str]]:
    """One (i, j, shared rectangle) per pair of intended areas whose
    ranges overlap, in (i, j) order: ranges i < j are one overlapping
    pair from the two areas, and the rectangle they share is spelled
    without '$' markers.

    Sweeps the union boxes by top row: a box only meets those that
    start at or above its bottom row, so disjoint row spans are never
    paired, and two boxes of one intended area are never tested.  Of
    each pair of areas, the first two boxes the sweep finds to meet
    name the ranges: the first range of one box that meets the other
    box, and the first range of the other box that meets that range.
    A box is exactly the union of its ranges, so both exist.
    """
    order = sorted(range(len(boxes)), key=lambda k: boxes[k].r1)
    first: dict[tuple[int, int], tuple[int, int]] = {}
    for n, a in enumerate(order):
        left, top, right, bottom, area, _ = boxes[a]
        for m in range(n + 1, len(order)):
            b = order[m]
            c1, r1, c2, r2, other, _ = boxes[b]
            if r1 > bottom:
                break
            # r1 >= top by the sort, so the row spans meet from r1 down.
            if other == area or c1 > right or c2 < left:
                continue
            first.setdefault((area, other) if area < other else (other, area), (a, b))
    hits: list[tuple[int, int, str]] = []
    for a, b in first.values():
        i = next(k for k in boxes[a].ranges if _shared(_corners(areas[k].rect), boxes[b][:4]))
        j, (c1, r1, c2, r2) = next(
            (k, common)
            for k in boxes[b].ranges
            if (common := _shared(_corners(areas[k].rect), _corners(areas[i].rect)))
        )
        shared = f"{column_letters(c1)}{r1}:{column_letters(c2)}{r2}"
        hits.append((i, j, shared) if i < j else (j, i, shared))
    hits.sort()  # by (i, j), as no two hits share both
    return hits


def _corners(rect: RangeRef) -> tuple[int, int, int, int]:
    (c1, r1, *_), (c2, r2, *_) = rect
    return c1, r1, c2, r2


def _shared(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, int, int, int] | None:
    """The box two (c1, r1, c2, r2) boxes share, or None."""
    c1, r1, c2, r2 = max(x[0], y[0]), max(x[1], y[1]), min(x[2], y[2]), min(x[3], y[3])
    return (c1, r1, c2, r2) if c1 <= c2 and r1 <= r2 else None


@_detector(Code.D5_CONSTANT_OVERWRITE)
def detect_constant_overwrite(program: SpreadsheetProgram) -> Iterator[Finding]:
    """D5: a constant interrupts a run of copies of one formula.

    Needs a logical area of at least three members whose hull is a
    single row or column; a Constant or Input strictly inside that hull
    looks like a formula someone typed a number over.
    """
    index = cell_index(program)
    for area in infer_logical_areas(program):
        if len(area.members) < 3:
            continue
        hull = area.hull
        if hull.width() != 1 and hull.height() != 1:
            continue
        # The hull's two ends are members, so every such cell is inside.
        for addr in index.occupied(hull, "constant") + index.occupied(hull, "input"):
            yield (
                (addr,),
                f"{addr} holds a fixed number inside {hull}, a run of "
                f"{len(area.members)} copies of one formula",
                area,
            )


@_detector(Code.D6_COPY_MISREFERENCE)
def detect_copy_misreference(program: SpreadsheetProgram) -> Iterator[Finding]:
    """D6: a few copies deviate from the rest only in reference markers
    or literal values.

    Within a structural group of at least three, the strict majority
    sets the expected pattern; members that differ from it only in
    absolute/relative markers or literals are flagged.
    """
    keys = copy_keys(program)
    for group in structural_groups(program):
        if len(group.members) < 3:
            continue
        partitions: dict[CopyKey, list[CellAddress]] = {}
        for addr in group.members:
            partitions.setdefault(keys[addr], []).append(addr)
        if len(partitions) < 2:
            continue
        majority_key = max(partitions, key=lambda key: len(partitions[key]))
        majority = partitions[majority_key]
        if 2 * len(majority) <= len(group.members):
            continue
        for key, members in partitions.items():
            if key == majority_key:
                continue
            if not _marker_or_literal_diff(majority_key, key):
                continue
            for addr in members:
                yield (
                    (addr,),
                    f"{addr} deviates from {len(majority)} agreeing copies "
                    f"only in reference markers or literal values",
                    None,
                )


def _marker_or_literal_diff(a: CopyKey, b: CopyKey) -> bool:
    """True when the copy keys of two formulas of one shape differ at
    most in absolute or relative markers and in literal values."""
    # One skeleton: the keys align item by item, and inner nodes agree.
    for x, y in zip(a, b):
        kind = type(x)
        if kind is Reference:
            if not _ref_compatible(x.ref, y.ref):
                return False
        elif kind is RangeArg:
            if not (
                _ref_compatible(x.rng.start, y.rng.start)
                and _ref_compatible(x.rng.end, y.rng.end)
            ):
                return False
    return True


def _ref_compatible(x: NormRef, y: NormRef) -> bool:
    # Same marker on an axis means the coordinate must agree; a flipped
    # marker changes the meaning, so coordinates are free.
    if x.col_absolute == y.col_absolute and x.col != y.col:
        return False
    if x.row_absolute == y.row_absolute and x.row != y.row:
        return False
    return True


_DETECTORS = (
    detect_blank_ref,
    detect_wrong_type_in_range,
    detect_incorrect_range,
    detect_area_mixup,
    detect_constant_overwrite,
    detect_copy_misreference,
)


def detect_all(
    program: SpreadsheetProgram,
    result: EvalResult | CyclicDependency | None = None,
) -> list[Diagnostic]:
    """Every detector's findings in one stable order.

    Ordering is by code, then subject cells row-major, and is a pure
    function of the program.  ``result`` is the program's evaluation,
    or the CyclicDependency that stopped it, reported as G_CYCLE; with
    an EvalResult, divisions by zero surface as G_DIV_ZERO.  Only its
    DIV_BY_ZERO notes are read, so when ``result`` is omitted the
    program is checked for cycles here, and evaluated only if some
    formula can divide by zero (``evaluator.may_divide_by_zero``: a
    '/', or an AVG over labels and empty cells alone).
    """
    # Each code's findings come sorted, in code order, so the whole
    # list is sorted without a final sort.
    out = [diag for detect in _DETECTORS for diag in detect(program)]
    if result is None:
        try:
            build_graph(program).topo_order()
            if may_divide_by_zero(program):
                result = eval_instance(instantiate(program))
        except CyclicDependency as err:
            # Kept past the handler, so without the traceback to this frame.
            result = err.with_traceback(None)
    if isinstance(result, CyclicDependency):
        message = f"formulas form a reference cycle: {result.path}"
        out += _diagnostics(Code.G_CYCLE, [(tuple(result.cycle), message, None)])
    elif result is not None:
        offenders = {note.cell for note in result.notes if note.kind is NoteKind.DIV_BY_ZERO}
        out += _diagnostics(
            Code.G_DIV_ZERO,
            [((a,), f"{a} divides by zero under the current inputs", None) for a in offenders],
        )
    return out
