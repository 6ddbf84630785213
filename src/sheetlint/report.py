"""Report rendering: canonical JSON, plain text, and DOT graphs.

Every renderer is a pure function of its inputs and emits stable
bytes: object keys are sorted, lists keep the orders the producing
modules define, and no timestamps or environment details leak in.  The
JSON layout is versioned; schema/report-v1.json in the repository
validates it.

The reports that grow with the sheet, JSON and the cell view, have
writers: ``write_json`` and ``write_cell_graph_dot`` hand their text to
a ``write`` callable ``BATCH`` pieces or lines at a time, so they hold
one batch of the output, not all of it.  ``to_json`` and
``cell_graph_dot`` join what they write.  Text reports and the area
view are small and are returned whole.

A ``test`` payload holds the report's rows themselves, not a dict per
row: each row's keys and nesting are fixed, so ``write_json`` spells it
from one template.

The cell view derives each thing it prints once.  Its nodes are the
program's cells, already row-major, with the few read nodes that are
no cells (empty cells and empty runs) placed among them by
``rect_key``.  They go out cluster by cluster, each node in the first
physical area claiming it, then the rest in that order.  The edges come
from one index, ``graph.readers()``: by read node in that order, then
by reader row-major.  Each node's name and each number is spelled once
per write.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import defaultdict
from collections.abc import Callable, Iterator
from itertools import groupby, islice

# The interpreter's built-in SHA-256 and JSON string escaper, taken
# directly: hashlib loads OpenSSL and json.encoder loads the decoder and
# scanner too, which a console run would pay for on every start.
try:
    from _sha2 import sha256 as _sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # 3.10, 3.11
    except ImportError:
        from hashlib import sha256 as _sha256
try:
    from _json import encode_basestring_ascii as _quote
except ImportError:
    from json.encoder import encode_basestring_ascii as _quote

from . import __version__
from .areas import LogicalArea, PhysicalArea
from .dataflow import DependencyGraph, Node
from .detectors import Diagnostic
from .evaluator import Fault, FaultKind, Number, Value
from .intervals import CellTest, Interval, TestReport
from .model import (
    _KINDS,
    Formula,
    Label,
    SpreadsheetProgram,
    cell_index,
    content_kind,
    render_content,
)
from .scl import (
    CellAddress,
    column_letters,
    format_number,
    rect_key,
    render,
    row_major,
    value_type,
)

TOOL_NAME = "sheetlint"
SCHEMA_NAME = "report-v1"

# The pieces of JSON, or the lines of a cell view, that a writer joins
# into one call of ``write``: what it holds of a report at a time.
BATCH = 2048


class Input(value_type("Input", "path data")):
    """An input as a report names it: its path and the bytes analysed."""

    __slots__ = ()
    path: str
    data: bytes


def _input_json(item: str | Input) -> dict:
    # A bare path is read here.  The CLI passes the bytes it analysed
    # instead, so a pipe is read once and digested as it was analysed.
    if isinstance(item, str):
        with open(item, "rb") as fh:
            item = Input(item, fh.read())
    return {"path": item.path, "sha256": _sha256(item.data).hexdigest()}


def to_json(payload: dict) -> str:
    """The payload as canonical JSON, with a trailing newline: what
    ``write_json`` writes, joined."""
    out: list[str] = []
    write_json(payload, out.append)
    return "".join(out)


def write_json(payload: dict, write: Callable[[str], object]) -> None:
    """Write the payload as canonical JSON, with a trailing newline.

    Byte-identical to ``json.dumps(payload, indent=2, sort_keys=True,
    allow_nan=False) + "\\n"``, in about half the time of the
    pure-Python encoder that ``indent`` makes it use.  The text goes to
    ``write`` a batch at a time: once ``BATCH`` pieces are pending at
    the end of a list item, they are joined into one call.  Payloads
    hold only dict, list, str, int, float, bool and None, and a
    ``TestReport``, which stands for the list of its rows' dicts (see
    ``_write_rows``); any other value, and a key that is not a str, is
    a TypeError.  A non-finite float is a ValueError.  Either may come
    after some text is written.
    """
    out: list[str] = []
    _write(payload, "\n", out, write)
    out.append("\n")
    write("".join(out))


def _write(value, pad: str, out: list[str], write: Callable[[str], object]) -> None:
    """Append ``value`` to ``out``; ``pad`` starts a line at its depth.
    Pending pieces go to ``write`` between list items."""
    kind = type(value)
    if kind is str:
        out.append(_quote(value))
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        sep, comma = "{" + inner, "," + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            item = value[key]
            # Most values are strings: written here, without a call.
            if type(item) is str:
                out += (sep, _quote(key), ": ", _quote(item))
            else:
                out += (sep, _quote(key), ": ")
                _write(item, inner, out, write)
            sep = comma
        out.append(pad + "}")
    elif kind is list:
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        if all(type(item) is str for item in value):
            out += ("[", inner, ("," + inner).join(map(_quote, value)), pad, "]")
            return
        sep, comma = "[" + inner, "," + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out, write)
            sep = comma
            if len(out) >= BATCH:
                write("".join(out))
                out.clear()
        out.append(pad + "]")
    elif value is None:
        out.append("null")
    elif kind is bool:
        out.append("true" if value else "false")
    elif kind is int or kind is float:
        out.append(_number(value))
    elif kind is TestReport:
        _write_rows(value.rows, pad, out, write)
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _number(value: float) -> str:
    """A finite float or an int, as JSON spells it."""
    kind = type(value)
    if kind is float:
        if -math.inf < value < math.inf:
            return repr(value)
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    if kind is int:
        return repr(value)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


# A row is one piece of some 400 characters, as long as 30-odd of the
# pieces ``_write`` makes elsewhere, so 64 rows make about a batch.
_ROWS_PER_WRITE = BATCH // 32


def _write_rows(
    rows: tuple[CellTest, ...], pad: str, out: list[str], write: Callable[[str], object]
) -> None:
    """Append the rows as the list of their dicts would be spelled:
    ``bounding``, ``cell``, ``expected``, ``suspects``, ``value`` and
    ``verdict``, with ``value`` a Number or a Fault, ``bounding`` an
    Interval or a Fault, and ``expected`` an Interval or None.  Any
    other value is a TypeError."""
    if not rows:
        out.append("[]")
        return
    item = pad + "  "
    key = item + "  "
    sub = key + "  "
    faults = {
        kind: f'{{{sub}"fault": "{kind.value}",{sub}"kind": "fault"{key}}}' for kind in FaultKind
    }

    def spell(value: Value | Interval) -> str:
        kind = type(value)
        if kind is Number:
            return f'{{{sub}"kind": "number",{sub}"value": {_number(value.value)}{key}}}'
        if kind is Interval:
            lo, hi = _number(value.lo), _number(value.hi)
            return f'{{{sub}"hi": {hi},{sub}"kind": "interval",{sub}"lo": {lo}{key}}}'
        if kind is Fault:
            return faults[value.kind]
        raise TypeError(f"not a number, an interval or a fault: {value!r}")

    sep = "[" + item
    for cell, value, bounding, expected, verdict, suspects in rows:
        box = "null"
        if expected is not None:
            box = f'{{{sub}"hi": {_number(expected.hi)},{sub}"lo": {_number(expected.lo)}{key}}}'
        # Cell and range names need no escapes.
        names = f'[{sub}"' + f'",{sub}"'.join(map(str, suspects)) + f'"{key}]' if suspects else "[]"
        out.append(
            f'{sep}{{{key}"bounding": {spell(bounding)},{key}"cell": "{cell}",'
            f'{key}"expected": {box},{key}"suspects": {names},'
            f'{key}"value": {spell(value)},{key}"verdict": "{verdict.value}"{item}}}'
        )
        sep = "," + item
        if len(out) >= _ROWS_PER_WRITE:
            write("".join(out))
            out.clear()
    out.append(pad + "]")


# ---------------------------------------------------------------------------
# JSON pieces


def _program_json(program: SpreadsheetProgram) -> dict:
    counts = dict.fromkeys(_KINDS.values(), 0)
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
        "area": None if diag.area is None else str(diag.area),
    }


def envelope(
    command: str,
    inputs: list[str | Input],
    program: SpreadsheetProgram,
) -> dict:
    return {
        "schema": SCHEMA_NAME,
        "tool": {"name": TOOL_NAME, "version": __version__},
        "command": command,
        "inputs": [_input_json(item) for item in inputs],
        "program": _program_json(program),
    }


def check_json(
    program: SpreadsheetProgram, diagnostics: list[Diagnostic], inputs: list[str | Input]
) -> dict:
    payload = envelope("check", inputs, program)
    payload["diagnostics"] = [_diagnostic_json(d) for d in diagnostics]
    return payload


def test_json(
    program: SpreadsheetProgram, report: TestReport, inputs: list[str | Input]
) -> dict:
    payload = envelope("test", inputs, program)
    payload["interval_test"] = {
        # Spelled row by row as it is written, from the report itself.
        "rows": report,
        "symptoms": sum(1 for row in report.rows if row.symptomatic),
    }
    return payload


def areas_json(
    program: SpreadsheetProgram,
    physical: list[PhysicalArea],
    logical: list[LogicalArea],
    inputs: list[str | Input],
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


def _value_text(value: Number | Interval | Fault) -> str:
    if isinstance(value, Number):
        return format_number(value.value)
    if isinstance(value, Interval):
        return str(value)
    return f"fault({value.kind.value})"


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
        parts.append(f"B={_value_text(row.bounding)}")
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
        lines.append(f"logical: {area}: {members}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# DOT rendering

_OUTLINE = "#cc2222"
_DASHED = 'style="dashed"'
_FILLS = tuple(
    f'style="filled", fillcolor="{color}"'
    for color in ("#cfe8ff", "#d8f5d8", "#fff2cc", "#f3d9f2", "#e2e2e2", "#ffd9cc")
)


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _diag_codes(diagnostics: list[Diagnostic]) -> dict[Node, set[str]]:
    by_cell: dict[Node, set[str]] = {}
    for diag in diagnostics:
        code = diag.code.value
        for addr in diag.cells:
            by_cell.setdefault(addr, set()).add(code)
    return by_cell


def _attrs(label: str, style: str | None, codes: set[str] | None) -> str:
    """A node's attributes; diagnostic codes join the label and outline it."""
    if codes:
        label += "\\n" + ",".join(sorted(codes))
    attrs = f'label="{label}"'
    if style:
        attrs += ", " + style
    if codes:
        attrs += f', color="{_OUTLINE}", penwidth=2'
    return attrs


def _cell_attrs(
    program: SpreadsheetProgram,
    addr: Node,
    name: str,
    style: str | None,
    codes: set[str] | None,
) -> str:
    content = program.content(addr)
    if content is None:
        return _attrs(f"{name}\\n(empty)", _DASHED, codes)
    return _attrs(f"{name}\\n{_dot_escape(render_content(content))}", style, codes)


def _claims(program: SpreadsheetProgram, physical: list[PhysicalArea]) -> dict[Node, int]:
    """Each occupied cell and empty run of a physical area's rectangle,
    mapped to the first such area's index; keys run area by area, by
    ``rect_key`` within each.  All of them are graph nodes."""
    index = cell_index(program)
    claimed: dict[Node, int] = {}
    for i, area in enumerate(physical):
        for node in index.parts(area.rect):
            claimed.setdefault(node, i)
    return claimed


def cell_graph_dot(
    program: SpreadsheetProgram,
    graph: DependencyGraph,
    physical: list[PhysicalArea],
    logical: list[LogicalArea],
    diagnostics: list[Diagnostic],
) -> str:
    """What ``write_cell_graph_dot`` writes, joined."""
    out: list[str] = []
    write_cell_graph_dot(program, graph, physical, logical, diagnostics, out.append)
    return "".join(out)


def write_cell_graph_dot(
    program: SpreadsheetProgram,
    graph: DependencyGraph,
    physical: list[PhysicalArea],
    logical: list[LogicalArea],
    diagnostics: list[Diagnostic],
    write: Callable[[str], object],
) -> None:
    """Write the cell view: one node per cell; physical areas become
    clusters, logical areas share fill colors, diagnostic cells are
    outlined with their codes.  The node lines and then the edges go to
    ``write`` ``BATCH`` lines at a time."""
    codes = _diag_codes(diagnostics)
    fill = {addr: _FILLS[i % len(_FILLS)] for i, area in enumerate(logical) for addr in area.members}
    claimed = _claims(program, physical)
    cells = program.cells
    # The edges' index is built here, before the first write.
    readers = graph.readers()
    # The read nodes that are no cells: empty cells and empty runs.
    others = sorted((rect_key(node), node) for node in readers if node not in cells)
    names = {addr: f"{column_letters(addr[0])}{addr[1]}" for addr in cells}
    names.update((node, str(node)) for _, node in others)
    order = _placed(list(cells), others)
    # Each number's spelling, per kind of cell holding it.
    numbers: defaultdict[type, dict[float, str]] = defaultdict(dict)

    def node_line(addr: Node) -> str:
        name = names[addr]
        content = cells.get(addr)
        style = fill.get(addr)
        if content is None or addr in codes:
            return f'"{name}" [{_cell_attrs(program, addr, name, style, codes.get(addr))}];\n'
        kind = type(content)
        if kind is Formula:
            # Formula text holds no quote or backslash to escape.
            text = "=" + render(content.ast)
        elif kind is Label:
            text = f'\\"{_dot_escape(content.text)}\\"'
        else:
            spelled = numbers[kind]
            text = spelled.get(content[0])
            if text is None:
                text = spelled[content[0]] = render_content(content)
        if style:
            return f'"{name}" [label="{name}\\n{text}", {style}];\n'
        return f'"{name}" [label="{name}\\n{text}"];\n'

    def node_lines():
        yield "digraph sheet {\n"
        yield '  node [shape=box, fontname="Helvetica"];\n'
        for i, members in groupby(claimed, key=claimed.__getitem__):
            yield f"  subgraph cluster_{i} {{\n"
            yield f'    label="{_dot_escape(str(physical[i]))}";\n'
            yield '    color="#888888";\n'
            for addr in members:
                yield f"    {node_line(addr)}"
            yield "  }\n"
        for addr in order:
            if addr not in claimed:
                yield f"  {node_line(addr)}"

    def edge_lines():
        for source in order:
            targets = readers.get(source)
            if targets:
                head = f'  "{names[source]}" -> "'
                for target in targets:
                    yield f'{head}{names[target]}";\n'

    _write_lines(node_lines(), write)
    _write_lines(edge_lines(), write)
    write("}\n")


def _placed(cells: list[CellAddress], others: list[tuple[tuple, Node]]) -> list[Node]:
    """The cells, row-major, with each other node, given by its
    ``rect_key`` in that order, placed among them by bisection.  No
    other node is a cell, so none ties with one."""
    order: list[Node] = []
    start = 0
    for key, node in others:
        at = bisect_left(cells, key, start, key=row_major)
        order += islice(cells, start, at)
        order.append(node)
        start = at
    order += islice(cells, start, None)
    return order


def _write_lines(lines: Iterator[str], write: Callable[[str], object]) -> None:
    """Write lines, each ending in a newline, ``BATCH`` to a call."""
    while batch := "".join(islice(lines, BATCH)):
        write(batch)


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
    ids = [f"p{i}" for i in range(len(physical))]
    group_of = {addr: ids[i] for addr, i in _claims(program, physical).items()}
    groups = {gid: (str(area), None) for gid, area in zip(ids, physical)}
    for i, area in enumerate(logical):
        gid = f"l{i}"
        groups[gid] = (str(area), _FILLS[i % len(_FILLS)])
        for addr in area.members:
            if addr not in group_of:
                group_of[addr] = gid

    nodes = sorted(graph.nodes, key=rect_key)
    # Each group once, in the order of its first node, with its cells' codes.
    marks = dict.fromkeys((group_of[addr] for addr in nodes if addr in group_of), frozenset())
    for addr, cell_codes in codes.items():
        if addr in group_of:
            marks[group_of[addr]] |= cell_codes

    lines = [
        "digraph sheet_areas {",
        '  node [shape=box, fontname="Helvetica"];',
    ]
    for gid, gathered in marks.items():
        label, style = groups[gid]
        lines.append(f'  "{gid}" [{_attrs(_dot_escape(label), style, gathered)}];')
    for addr in nodes:
        if addr not in group_of:
            name = str(addr)
            lines.append(f'  "{name}" [{_cell_attrs(program, addr, name, None, codes.get(addr))}];')

    pairs = set()
    for target in nodes:
        head = group_of.get(target, target)
        for source in graph.sources(target):
            pairs.add((group_of.get(source, source), head))
    lines.extend(sorted(f'  "{tail}" -> "{head}";' for tail, head in pairs if tail != head))
    lines.append("}")
    return "\n".join(lines) + "\n"
