"""Detectors for characteristic spreadsheet faults.

Each detector inspects a program (never concrete values) and reports
zero or more diagnostics:

    D1_BLANK_REF             a formula reads an empty cell
    D2_WRONG_TYPE_IN_RANGE   a grouping range covers a Label cell
    D3_INCORRECT_RANGE       data adjoins a range but is left out of it
    D4_AREA_MIXUP            distinct areas are blended into one result
    D5_CONSTANT_OVERWRITE    a constant interrupts a run of formula copies
    D6_COPY_MISREFERENCE     one copy deviates only in reference markers

Two further codes surface evaluation facts when an EvalResult is given
to detect_all: G_CYCLE for reference loops (an error, since nothing can
be computed) and G_DIV_ZERO for divisions by zero under the current
inputs.  All D codes are warnings; the sheet may still be right, but
each flagged spot is where a representative error hides.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .areas import (
    LogicalArea,
    PhysicalArea,
    infer_logical_areas,
    infer_physical_areas,
    structural_groups,
)
from .dataflow import CyclicDependency, build_graph, referenced_addresses
from .evaluator import EvalResult, NoteKind
from .model import Constant, Formula, Input, Label, SpreadsheetProgram, content_kind
from .scl import (
    BinaryOp,
    CellAddress,
    CellRef,
    FormulaNode,
    NormRange,
    NormRef,
    NumberLiteral,
    Negate,
    RangeArg,
    RangeRef,
    Reference,
    Call,
    column_letters,
    normalize,
    row_major,
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


class Severity(Enum):
    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a code, the cells it is about, and a message.

    ``area`` carries the physical or logical area the finding arose
    from, when there is one.
    """

    code: Code
    severity: Severity
    cells: tuple[CellAddress, ...]
    message: str
    area: PhysicalArea | LogicalArea | None = None


def _sort_key(diag: Diagnostic):
    return (
        diag.code.value,
        tuple(row_major(a) for a in diag.cells),
        diag.message,
    )


def detect_blank_ref(program: SpreadsheetProgram) -> list[Diagnostic]:
    """D1: a formula reads a cell with nothing in it.

    One warning per (formula, empty cell) pair, whether the read is a
    direct reference or range coverage.
    """
    out: list[Diagnostic] = []
    for addr, cell in program.formula_cells():
        seen: set[CellAddress] = set()
        for source in referenced_addresses(cell.ast):
            if source in seen or program.content(source) is not None:
                continue
            seen.add(source)
            out.append(
                Diagnostic(
                    Code.D1_BLANK_REF,
                    Severity.WARNING,
                    (source,),
                    f"{addr} reads empty cell {source}",
                )
            )
    out.sort(key=_sort_key)
    return out


def detect_wrong_type_in_range(
    program: SpreadsheetProgram, *, physical: list[PhysicalArea] | None = None
) -> list[Diagnostic]:
    """D2: a Label sits inside a numeric grouping range.

    The label is skipped today, so the result looks right; if the cell
    is ever given a number, that number silently joins the aggregate.
    ``physical`` is the program's physical areas, inferred when omitted.
    """
    if physical is None:
        physical = infer_physical_areas(program)
    out: list[Diagnostic] = []
    for area in physical:
        for addr in area.rect.cells():
            if isinstance(program.content(addr), Label):
                out.append(
                    Diagnostic(
                        Code.D2_WRONG_TYPE_IN_RANGE,
                        Severity.WARNING,
                        (addr,),
                        f"label at {addr} lies inside {area.function} range "
                        f"{area.rect} of {area.consumer}; a number typed there "
                        f"would silently join the aggregate",
                        area=area,
                    )
                )
    out.sort(key=_sort_key)
    return out


def detect_incorrect_range(
    program: SpreadsheetProgram, *, physical: list[PhysicalArea] | None = None
) -> list[Diagnostic]:
    """D3: a cell of the range's own kind adjoins it but is left out.

    Checked one step beyond both ends of the range's major axis; the
    consuming formula itself does not count.  ``physical`` is the
    program's physical areas, inferred when omitted.
    """
    if physical is None:
        physical = infer_physical_areas(program)
    out: list[Diagnostic] = []
    for area in physical:
        if area.majority_type is None:
            continue
        for addr in _adjoining(area):
            content = program.content(addr)
            if content is None or addr == area.consumer:
                continue
            if content_kind(content) == area.majority_type:
                out.append(
                    Diagnostic(
                        Code.D3_INCORRECT_RANGE,
                        Severity.WARNING,
                        (addr,),
                        f"{addr} adjoins {area.function} range {area.rect} of "
                        f"{area.consumer} and holds the same kind of content, "
                        f"but the range leaves it out",
                        area=area,
                    )
                )
    out.sort(key=_sort_key)
    return out


def _adjoining(area: PhysicalArea) -> list[CellAddress]:
    rect = area.rect
    cells: list[CellAddress] = []
    if rect.height() >= rect.width():
        before, after = rect.start.row - 1, rect.end.row + 1
        for col in range(rect.start.col, rect.end.col + 1):
            if before >= 1:
                cells.append(CellAddress(col, before))
            cells.append(CellAddress(col, after))
    else:
        before, after = rect.start.col - 1, rect.end.col + 1
        for row in range(rect.start.row, rect.end.row + 1):
            if before >= 1:
                cells.append(CellAddress(before, row))
            cells.append(CellAddress(after, row))
    return sorted(cells, key=row_major)


def detect_area_mixup(
    program: SpreadsheetProgram,
    chain_threshold: int = 3,
    *,
    physical: list[PhysicalArea] | None = None,
) -> list[Diagnostic]:
    """D4: results from distinct areas are blended.

    Fires when two grouping ranges overlap, and when a formula adds up
    ``chain_threshold`` or more cells of one row or column one by one
    instead of grouping over a range.  ``physical`` is the program's
    physical areas, inferred when omitted.
    """
    if physical is None:
        physical = infer_physical_areas(program)
    out: list[Diagnostic] = []
    for i, j, shared in _overlapping_pairs(physical):
        first, second = physical[i], physical[j]
        subjects = sorted({first.consumer, second.consumer}, key=row_major)
        out.append(
            Diagnostic(
                Code.D4_AREA_MIXUP,
                Severity.WARNING,
                tuple(subjects),
                f"ranges {first.rect} (of {first.consumer}) and "
                f"{second.rect} (of {second.consumer}) overlap at {shared}",
                area=first,
            )
        )
    for addr, cell in program.formula_cells():
        refs = _plus_chain(cell.ast)
        if refs is None or len(refs) < chain_threshold:
            continue
        cols = {r.col for r in refs}
        rows = {r.row for r in refs}
        if len(cols) > 1 and len(rows) > 1:
            continue
        if len(cols) == 1:
            axis = f"column {column_letters(next(iter(cols)))}"
        else:
            axis = f"row {next(iter(rows))}"
        lo = min((r.address() for r in refs), key=row_major)
        hi = max((r.address() for r in refs), key=row_major)
        out.append(
            Diagnostic(
                Code.D4_AREA_MIXUP,
                Severity.WARNING,
                (addr,),
                f"{addr} adds {len(refs)} cells of {axis} one at a time; "
                f"a grouping call such as SUM({lo}:{hi}) would name the "
                f"area outright",
            )
        )
    out.sort(key=_sort_key)
    return out


def _overlapping_pairs(
    areas: list[PhysicalArea],
) -> list[tuple[int, int, RangeRef]]:
    """Every (i, j, shared rectangle) with i < j whose ranges overlap,
    in (i, j) order.

    Sweeps the areas by top row: an area only meets those that start
    at or above its bottom row, so disjoint row spans are never paired.
    """
    order = sorted(range(len(areas)), key=lambda i: areas[i].rect.start.row)
    hits: list[tuple[int, int, RangeRef]] = []
    for n, i in enumerate(order):
        rect = areas[i].rect
        for m in range(n + 1, len(order)):
            j = order[m]
            other = areas[j].rect
            if other.start.row > rect.end.row:
                break
            shared = rect.overlap(other)
            if shared is not None:
                hits.append((min(i, j), max(i, j), shared))
    hits.sort(key=lambda hit: hit[:2])
    return hits


def _plus_chain(node: FormulaNode) -> list[CellRef] | None:
    """The references of a pure '+' tree, or None for anything else."""
    if isinstance(node, BinaryOp) and node.op == "+":
        left = _plus_chain(node.left)
        right = _plus_chain(node.right)
        if left is None or right is None:
            return None
        return left + right
    if isinstance(node, Reference) and isinstance(node.ref, CellRef):
        return [node.ref]
    return None


def detect_constant_overwrite(
    program: SpreadsheetProgram, *, logical: list[LogicalArea] | None = None
) -> list[Diagnostic]:
    """D5: a constant interrupts a run of copies of one formula.

    Needs a logical area of at least three members whose hull is a
    single row or column; a Constant or Input strictly inside that hull
    looks like a formula someone typed a number over.  ``logical`` is
    the program's logical areas, inferred when omitted.
    """
    if logical is None:
        logical = infer_logical_areas(program)
    out: list[Diagnostic] = []
    for area in logical:
        if len(area.members) < 3:
            continue
        hull = area.hull
        if hull.width() != 1 and hull.height() != 1:
            continue
        line = list(hull.cells())
        members = set(area.members)
        for addr in line[1:-1]:
            if addr in members:
                continue
            content = program.content(addr)
            if isinstance(content, (Constant, Input)):
                out.append(
                    Diagnostic(
                        Code.D5_CONSTANT_OVERWRITE,
                        Severity.WARNING,
                        (addr,),
                        f"{addr} holds a fixed number inside {hull}, a run of "
                        f"{len(area.members)} copies of one formula",
                        area=area,
                    )
                )
    out.sort(key=_sort_key)
    return out


def detect_copy_misreference(program: SpreadsheetProgram) -> list[Diagnostic]:
    """D6: a few copies deviate from the rest only in reference markers
    or literal values.

    Within a structural group of at least three, the strict majority
    sets the expected pattern; members that differ from it only in
    absolute/relative markers or literals are flagged.
    """
    out: list[Diagnostic] = []
    for group in structural_groups(program):
        if len(group.members) < 3:
            continue
        partitions: dict[FormulaNode, list[CellAddress]] = {}
        for addr in group.members:
            content = program.content(addr)
            assert isinstance(content, Formula)
            partitions.setdefault(normalize(content.ast, addr), []).append(addr)
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
                out.append(
                    Diagnostic(
                        Code.D6_COPY_MISREFERENCE,
                        Severity.WARNING,
                        (addr,),
                        f"{addr} deviates from {len(majority)} agreeing copies "
                        f"only in reference markers or literal values",
                    )
                )
    out.sort(key=_sort_key)
    return out


def _marker_or_literal_diff(a: FormulaNode, b: FormulaNode) -> bool:
    """True when two normalized trees differ at most in absolute or
    relative markers and in literal values."""
    if type(a) is not type(b):
        return False
    if isinstance(a, NumberLiteral):
        return True
    if isinstance(a, Reference):
        return _ref_compatible(a.ref, b.ref)
    if isinstance(a, RangeArg):
        assert isinstance(a.rng, NormRange) and isinstance(b.rng, NormRange)
        return _ref_compatible(a.rng.start, b.rng.start) and _ref_compatible(
            a.rng.end, b.rng.end
        )
    if isinstance(a, Negate):
        return _marker_or_literal_diff(a.child, b.child)
    if isinstance(a, BinaryOp):
        return (
            a.op == b.op
            and _marker_or_literal_diff(a.left, b.left)
            and _marker_or_literal_diff(a.right, b.right)
        )
    if isinstance(a, Call):
        return (
            a.name == b.name
            and len(a.args) == len(b.args)
            and all(_marker_or_literal_diff(x, y) for x, y in zip(a.args, b.args))
        )
    return False


def _ref_compatible(x: NormRef, y: NormRef) -> bool:
    # Same marker on an axis means the coordinate must agree; a flipped
    # marker changes the meaning, so coordinates are free.
    if x.col_absolute == y.col_absolute and x.col != y.col:
        return False
    if x.row_absolute == y.row_absolute and x.row != y.row:
        return False
    return True


def detect_all(
    program: SpreadsheetProgram,
    result: EvalResult | None = None,
    *,
    physical: list[PhysicalArea] | None = None,
    logical: list[LogicalArea] | None = None,
) -> list[Diagnostic]:
    """Every detector's findings in one stable order.

    Ordering is by code, then subject cells row-major, and is a pure
    function of the program.  Without an EvalResult the program is
    checked for cycles, reported as G_CYCLE; a result exists only for
    an acyclic program, since evaluation needs a topological order.
    With a result, divisions by zero surface as G_DIV_ZERO.  The
    physical and logical areas are inferred when omitted.
    """
    if physical is None:
        physical = infer_physical_areas(program)
    out: list[Diagnostic] = []
    out.extend(detect_blank_ref(program))
    out.extend(detect_wrong_type_in_range(program, physical=physical))
    out.extend(detect_incorrect_range(program, physical=physical))
    out.extend(detect_area_mixup(program, physical=physical))
    out.extend(detect_constant_overwrite(program, logical=logical))
    out.extend(detect_copy_misreference(program))
    if result is None:
        try:
            build_graph(program).topo_order()
        except CyclicDependency as err:
            shown = " -> ".join(str(a) for a in err.cycle + err.cycle[:1])
            out.append(
                Diagnostic(
                    Code.G_CYCLE,
                    Severity.ERROR,
                    tuple(err.cycle),
                    f"formulas form a reference cycle: {shown}",
                )
            )
    else:
        offenders = sorted(
            {note.cell for note in result.notes if note.kind is NoteKind.DIV_BY_ZERO},
            key=row_major,
        )
        for addr in offenders:
            out.append(
                Diagnostic(
                    Code.G_DIV_ZERO,
                    Severity.WARNING,
                    (addr,),
                    f"{addr} divides by zero under the current inputs",
                )
            )
    out.sort(key=_sort_key)
    return out
