"""Report rendering: canonical JSON, plain text, and DOT graphs.

Every renderer is a pure function of its inputs and emits stable
bytes: object keys are sorted, lists keep the orders the producing
modules define, and no timestamps or environment details leak in.  The
JSON layout is versioned; schema/report-v1.json in the repository
validates it.
"""

from __future__ import annotations

import hashlib
import json
from typing import Mapping

from . import __version__
from .areas import LogicalArea, PhysicalArea
from .dataflow import DependencyGraph
from .detectors import Diagnostic
from .evaluator import Blank, Fault, Number, Text, Value
from .intervals import Interval, IntervalValue, TestReport
from .model import SpreadsheetProgram, content_kind, render_content
from .scl import CellAddress, format_number, row_major

TOOL_NAME = "sheetlint"
SCHEMA_NAME = "report-v1"


def file_digest(path: str) -> str:
    """Hex SHA-256 of a file's bytes."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def to_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# JSON pieces


def _value_json(value: Value) -> dict:
    if isinstance(value, Number):
        return {"kind": "number", "value": value.value}
    if isinstance(value, Fault):
        return {"kind": "fault", "fault": value.kind.value}
    if isinstance(value, Text):
        return {"kind": "text", "text": value.text}
    if isinstance(value, Blank):
        return {"kind": "blank"}
    raise TypeError(f"not a value: {value!r}")


def _interval_json(value: IntervalValue) -> dict:
    if isinstance(value, Interval):
        return {"kind": "interval", "lo": value.lo, "hi": value.hi}
    return _value_json(value)


def _program_json(program: SpreadsheetProgram) -> dict:
    counts = {"constant": 0, "input": 0, "formula": 0, "label": 0}
    for content in program.cells.values():
        counts[content_kind(content)] += 1
    return {
        "cells": counts,
        "extent": {"cols": program.extent[0], "rows": program.extent[1]},
    }


def _diagnostic_json(diag: Diagnostic) -> dict:
    return {
        "code": diag.code.value,
        "severity": diag.severity.value,
        "cells": [str(a) for a in diag.cells],
        "message": diag.message,
        "area": str(diag.area) if diag.area is not None else None,
    }


def envelope(
    command: str,
    inputs: list[str],
    program: SpreadsheetProgram,
) -> dict:
    return {
        "schema": SCHEMA_NAME,
        "tool": {"name": TOOL_NAME, "version": __version__},
        "command": command,
        "inputs": [{"path": path, "sha256": file_digest(path)} for path in inputs],
        "program": _program_json(program),
    }


def check_json(
    program: SpreadsheetProgram, diagnostics: list[Diagnostic], inputs: list[str]
) -> dict:
    payload = envelope("check", inputs, program)
    payload["diagnostics"] = [_diagnostic_json(d) for d in diagnostics]
    return payload


def test_json(
    program: SpreadsheetProgram, report: TestReport, inputs: list[str]
) -> dict:
    payload = envelope("test", inputs, program)
    payload["interval_test"] = {
        "rows": [
            {
                "cell": str(row.cell),
                "value": _value_json(row.value),
                "bounding": _interval_json(row.bounding),
                "expected": (
                    {"lo": row.expected.lo, "hi": row.expected.hi}
                    if row.expected is not None
                    else None
                ),
                "verdict": row.verdict.value,
                "suspects": [str(a) for a in row.suspects],
            }
            for row in report.rows
        ],
        "symptoms": sum(1 for row in report.rows if row.symptomatic),
    }
    return payload


def areas_json(
    program: SpreadsheetProgram,
    physical: list[PhysicalArea],
    logical: list[LogicalArea],
    inputs: list[str],
) -> dict:
    payload = envelope("areas", inputs, program)
    payload["areas"] = {
        "physical": [
            {
                "rect": str(area.rect),
                "consumer": str(area.consumer),
                "function": area.function,
                "majority_type": area.majority_type,
            }
            for area in physical
        ],
        "logical": [
            {
                "members": [str(a) for a in area.members],
                "hull": str(area.hull),
            }
            for area in logical
        ],
    }
    return payload


# ---------------------------------------------------------------------------
# Text rendering


def _value_text(value: Value) -> str:
    if isinstance(value, Number):
        return format_number(value.value)
    if isinstance(value, Fault):
        return f"fault({value.kind.value})"
    if isinstance(value, Text):
        return f'"{value.text}"'
    return "(blank)"


def _interval_text(value: IntervalValue) -> str:
    if isinstance(value, Interval):
        return str(value)
    return _value_text(value)


def check_text(
    program: SpreadsheetProgram, diagnostics: list[Diagnostic], path: str
) -> str:
    lines = [f"{path}: {len(program.cells)} cells"]
    for diag in diagnostics:
        where = ",".join(str(a) for a in diag.cells)
        lines.append(f"{where}: {diag.severity.value} {diag.code.value}: {diag.message}")
    warnings = sum(1 for d in diagnostics if d.severity.value == "warning")
    errors = len(diagnostics) - warnings
    lines.append(f"{warnings} warning(s), {errors} error(s)")
    return "\n".join(lines) + "\n"


def test_text(report: TestReport, sheet_path: str, intervals_path: str) -> str:
    lines = [f"{sheet_path} against {intervals_path}"]
    judged = 0
    for row in report.rows:
        parts = [f"{row.cell}: {row.verdict.value}"]
        parts.append(f"d={_value_text(row.value)}")
        if row.expected is not None:
            judged += 1
            parts.append(f"E={row.expected}")
        parts.append(f"B={_interval_text(row.bounding)}")
        if row.suspects:
            parts.append("suspects: " + " ".join(str(a) for a in row.suspects))
        lines.append("  ".join(parts))
    symptoms = sum(1 for row in report.rows if row.symptomatic)
    lines.append(
        f"{symptoms} symptom(s) in {judged} judged cell(s), "
        f"{len(report.rows) - judged} not judged"
    )
    return "\n".join(lines) + "\n"


def areas_text(
    physical: list[PhysicalArea], logical: list[LogicalArea], path: str
) -> str:
    lines = [f"{path}: {len(physical)} physical area(s), {len(logical)} logical area(s)"]
    for area in physical:
        majority = area.majority_type or "nothing"
        lines.append(f"physical: {area} (mostly {majority})")
    for area in logical:
        members = " ".join(str(a) for a in area.members)
        lines.append(f"logical: {len(area.members)} copies in {area.hull}: {members}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# DOT rendering

_PALETTE = ("#cfe8ff", "#d8f5d8", "#fff2cc", "#f3d9f2", "#e2e2e2", "#ffd9cc")
_OUTLINE = "#cc2222"


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _cell_label(program: SpreadsheetProgram, addr: CellAddress) -> str:
    content = program.content(addr)
    if content is None:
        return f"{addr}\\n(empty)"
    return f"{addr}\\n{_dot_escape(render_content(content))}"


def _diag_codes(diagnostics: list[Diagnostic]) -> Mapping[CellAddress, list[str]]:
    by_cell: dict[CellAddress, list[str]] = {}
    for diag in diagnostics:
        for addr in diag.cells:
            codes = by_cell.setdefault(addr, [])
            if diag.code.value not in codes:
                codes.append(diag.code.value)
    return {addr: sorted(codes) for addr, codes in by_cell.items()}


def _node_attrs(
    program: SpreadsheetProgram,
    addr: CellAddress,
    fill: str | None,
    codes: list[str] | None,
) -> str:
    label = _cell_label(program, addr)
    attrs = []
    if codes:
        label += "\\n" + ",".join(codes)
    attrs.append(f'label="{label}"')
    if program.content(addr) is None:
        attrs.append('style="dashed"')
    elif fill:
        attrs.append('style="filled"')
        attrs.append(f'fillcolor="{fill}"')
    if codes:
        attrs.append(f'color="{_OUTLINE}"')
        attrs.append("penwidth=2")
    return ", ".join(attrs)


def cell_graph_dot(
    program: SpreadsheetProgram,
    graph: DependencyGraph,
    physical: list[PhysicalArea],
    logical: list[LogicalArea],
    diagnostics: list[Diagnostic],
) -> str:
    """One node per cell; physical areas become clusters, logical areas
    share fill colors, diagnostic cells are outlined with their codes."""
    codes = _diag_codes(diagnostics)
    fill: dict[CellAddress, str] = {}
    for i, area in enumerate(logical):
        for addr in area.members:
            fill.setdefault(addr, _PALETTE[i % len(_PALETTE)])

    claimed: dict[CellAddress, int] = {}
    for i, area in enumerate(physical):
        for addr in area.rect.cells():
            if addr in graph.nodes and addr not in claimed:
                claimed[addr] = i
    clusters: dict[int, list[CellAddress]] = {}
    for addr, i in claimed.items():
        clusters.setdefault(i, []).append(addr)

    lines = [
        "digraph sheet {",
        '  node [shape=box, fontname="Helvetica"];',
    ]
    for i, area in enumerate(physical):
        members = sorted(clusters.get(i, ()), key=row_major)
        if not members:
            continue
        lines.append(f"  subgraph cluster_{i} {{")
        lines.append(f'    label="{_dot_escape(str(area))}";')
        lines.append('    color="#888888";')
        for addr in members:
            attrs = _node_attrs(program, addr, fill.get(addr), codes.get(addr))
            lines.append(f'    "{addr}" [{attrs}];')
        lines.append("  }")
    for addr in sorted(graph.nodes, key=row_major):
        if addr in claimed:
            continue
        attrs = _node_attrs(program, addr, fill.get(addr), codes.get(addr))
        lines.append(f'  "{addr}" [{attrs}];')
    for source, target in graph.edges():
        lines.append(f'  "{source}" -> "{target}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def area_graph_dot(
    program: SpreadsheetProgram,
    graph: DependencyGraph,
    physical: list[PhysicalArea],
    logical: list[LogicalArea],
    diagnostics: list[Diagnostic],
) -> str:
    """The quotient view: one node per area, plus ungrouped cells.

    Physical areas claim their covered cells first, logical areas claim
    remaining members, every other cell stands alone.  Edges between
    cells are lifted to their groups; edges inside one group vanish.
    """
    codes = _diag_codes(diagnostics)
    group_of: dict[CellAddress, str] = {}
    group_label: dict[str, str] = {}
    group_fill: dict[str, str] = {}
    for i, area in enumerate(physical):
        gid = f"p{i}"
        group_label[gid] = str(area)
        for addr in area.rect.cells():
            if addr in graph.nodes:
                group_of.setdefault(addr, gid)
    for i, area in enumerate(logical):
        gid = f"l{i}"
        group_label[gid] = str(area)
        group_fill[gid] = _PALETTE[i % len(_PALETTE)]
        for addr in area.members:
            group_of.setdefault(addr, gid)

    used_groups: list[str] = []
    for addr in sorted(graph.nodes, key=row_major):
        gid = group_of.get(addr)
        if gid is not None and gid not in used_groups:
            used_groups.append(gid)

    group_codes: dict[str, list[str]] = {}
    for addr, cell_codes in codes.items():
        gid = group_of.get(addr)
        if gid is None:
            continue
        merged = group_codes.setdefault(gid, [])
        for code in cell_codes:
            if code not in merged:
                merged.append(code)

    lines = [
        "digraph sheet_areas {",
        '  node [shape=box, fontname="Helvetica"];',
    ]
    for gid in used_groups:
        label = _dot_escape(group_label[gid])
        marks = sorted(group_codes.get(gid, []))
        if marks:
            label += "\\n" + ",".join(marks)
        attrs = [f'label="{label}"']
        if gid in group_fill:
            attrs.append('style="filled"')
            attrs.append(f'fillcolor="{group_fill[gid]}"')
        if marks:
            attrs.append(f'color="{_OUTLINE}"')
            attrs.append("penwidth=2")
        lines.append(f'  "{gid}" [{", ".join(attrs)}];')
    for addr in sorted(graph.nodes, key=row_major):
        if addr in group_of:
            continue
        attrs = _node_attrs(program, addr, None, codes.get(addr))
        lines.append(f'  "{addr}" [{attrs}];')

    def node_id(addr: CellAddress) -> str:
        return group_of.get(addr, str(addr))

    emitted: set[tuple[str, str]] = set()
    edge_lines: list[str] = []
    for source, target in graph.edges():
        pair = (node_id(source), node_id(target))
        if pair[0] == pair[1] or pair in emitted:
            continue
        emitted.add(pair)
        edge_lines.append(f'  "{pair[0]}" -> "{pair[1]}";')
    lines.extend(sorted(edge_lines))
    lines.append("}")
    return "\n".join(lines) + "\n"
