"""Interval-based testing.

Inputs get closed ranges instead of single numbers.  Evaluating the
sheet over intervals yields, for every formula cell, a bounding
interval B that contains every value the cell can take while each
input stays inside its range.  A test compares three things per cell:

    d   the concrete value under the current inputs
    E   the expected interval the sheet author wrote down
    B   the computed bounding interval

No symptom means d lies in E and E lies within B.  A value outside E
points at wrong inputs or a wrong formula; an E that sticks out of B
means the expectation and the computation cannot be reconciled, since
some expected values are unreachable.

Interval arithmetic and the formula walker live in the evaluator, which
computes d and B alike: d is the walker's result with every input range
collapsed to a point, so B collapses to d by construction.  Both come
from one walk of each formula, and each formula cell is judged straight
from it.
"""

from __future__ import annotations

import math
import re
from enum import Enum
from typing import Mapping

from .dataflow import DependencyGraph, Node, build_graph
from .evaluator import (
    Fault,
    Interval,
    IntervalValue,
    Number,
    Value,
    evaluate,
    evaluate_lanes,
)
from .model import (
    Formula,
    Input,
    LoadError,
    NotAnInputCell,
    SpreadsheetInstance,
    SpreadsheetProgram,
    _NUMBER,
    split_lines,
    strip_comment,
)
from .scl import (
    CellAddress,
    MalformedAddress,
    RangeRef,
    SheetLintError,
    _ADDRESS,
    column_number,
    parse_address,
    rect_key,
    value_type,
)


class IntervalSpecError(LoadError):
    """An .intervals file could not be read."""


class NotAFormulaCell(SheetLintError):
    """An expectation targeted a cell that is not a Formula."""

    def __init__(self, address: CellAddress):
        super().__init__(f"cell {address} is not a formula cell")
        self.address = address


class IntervalSpec(value_type("IntervalSpec", "input_ranges expected")):
    """Input ranges and expectations for one program."""

    __slots__ = ()
    input_ranges: Mapping[CellAddress, Interval]
    expected: Mapping[CellAddress, Interval]


def eval_intervals(
    program: SpreadsheetProgram, spec: IntervalSpec
) -> dict[CellAddress, IntervalValue]:
    """Bounding intervals for every numeric cell of the program.

    Constants map to degenerate intervals, inputs to their declared
    range (or a point at their default), formulas to the interval their
    tree computes, or to a Fault when it cannot.  Labels and empty
    cells do not appear in the result.

    Raises CyclicDependency for cyclic programs, then NotAnInputCell
    for a range on a non-input.
    """
    return {
        addr: value
        for addr, value in evaluate(SpreadsheetInstance(program), spec.input_ranges, []).items()
        if isinstance(value, (Interval, Fault))
    }


# ---------------------------------------------------------------------------
# Judging

class Verdict(Enum):
    NO_SYMPTOM = "no_symptom"
    SYMPTOM_VALUE_OUTSIDE = "value_outside"
    SYMPTOM_MODEL_MISMATCH = "model_mismatch"
    SYMPTOM_BOTH = "both"
    NOT_JUDGED = "not_judged"


SYMPTOMS = frozenset(
    {Verdict.SYMPTOM_VALUE_OUTSIDE, Verdict.SYMPTOM_MODEL_MISMATCH, Verdict.SYMPTOM_BOTH}
)


def judge(d: Value, expected: Interval, bounding: IntervalValue) -> Verdict:
    """Compare a concrete value, an expectation, and a bound.

    All endpoint comparisons are inclusive.  A faulty d is a symptom on
    both counts; a faulty bound means the expectation cannot lie within
    it.
    """
    if isinstance(d, Fault):
        return Verdict.SYMPTOM_BOTH
    value_ok = isinstance(d, Number) and expected.contains(d.value)
    model_ok = isinstance(bounding, Interval) and bounding.encloses(expected)
    if value_ok and model_ok:
        return Verdict.NO_SYMPTOM
    if model_ok:
        return Verdict.SYMPTOM_VALUE_OUTSIDE
    if value_ok:
        return Verdict.SYMPTOM_MODEL_MISMATCH
    return Verdict.SYMPTOM_BOTH


class CellTest(value_type("CellTest", "cell value bounding expected verdict suspects")):
    """Outcome for one formula cell."""

    __slots__ = ()
    cell: CellAddress
    value: Value
    bounding: IntervalValue
    expected: Interval | None
    verdict: Verdict
    suspects: tuple[CellAddress | RangeRef, ...]

    @property
    def symptomatic(self) -> bool:
        return self.verdict in SYMPTOMS


class TestReport(value_type("TestReport", "rows")):
    """One row per formula cell, in row-major order."""

    __slots__ = ()
    rows: tuple[CellTest, ...]

    def any_symptom(self) -> bool:
        return any(row.symptomatic for row in self.rows)


def run_interval_test(instance: SpreadsheetInstance, spec: IntervalSpec) -> TestReport:
    """Evaluate, bound, and judge every formula cell.

    d and B come from one two-lane walk (``evaluate_lanes``): d from
    its lane over points, B from its lane over the declared input
    ranges, which is the point lane itself when the spec ranges no
    input.  Inputs without a declared range are held at their bound
    value.  Cells without an expectation come back NOT_JUDGED.
    Suspects for a symptomatic cell are its transitive precedents,
    nearest first, and symptomatic before clean at equal distance; an
    empty run a range reads is one suspect, as in the dependency graph.
    """
    program = instance.program
    expected = spec.expected
    for addr in expected:
        if not isinstance(program.content(addr), Formula):
            raise NotAFormulaCell(addr)
    # A formula holds an Interval or a Fault in each lane, so its row
    # is judged as it comes; suspects wait for every verdict.  Each
    # value leaves the map as its row takes it, so a point Interval
    # is let go as its Number is made.
    take = evaluate_lanes(instance, spec.input_ranges).pop
    new = tuple.__new__
    rows = []
    flagged = []
    for addr, _ in program.formula_cells():
        value = bounding = take(addr)
        if type(value) is tuple:
            value, bounding = value
        if type(value) is Interval:
            value = new(Number, (value[0],))
        box = expected.get(addr)
        if box is None:
            verdict = Verdict.NOT_JUDGED
        else:
            verdict = judge(value, box, bounding)
            if verdict in SYMPTOMS:
                flagged.append(len(rows))
        rows.append(CellTest(addr, value, bounding, box, verdict, ()))
    if flagged:
        symptomatic = {rows[i].cell for i in flagged}
        graph = build_graph(program)
        for i in flagged:
            rows[i] = rows[i]._replace(suspects=_suspects(graph, rows[i].cell, symptomatic))
    return TestReport(tuple(rows))


def _suspects(
    graph: DependencyGraph, addr: CellAddress, symptomatic: set[CellAddress]
) -> tuple[Node, ...]:
    # Breadth first, one distance at a time: each level is sorted once,
    # by rect_key, and its symptomatic cells go first.
    seen = {addr}
    suspects: list[Node] = []
    level = [addr]
    while level:
        found = []
        for cell in level:
            for pre in graph.sources(cell):
                if pre not in seen:
                    seen.add(pre)
                    found.append(pre)
        found.sort(key=rect_key)
        suspects += [node for node in found if node in symptomatic]
        suspects += [node for node in found if node not in symptomatic]
        level = found
    return tuple(suspects)


# ---------------------------------------------------------------------------
# The .intervals format

# A rejected line, stripped, in the parts its error messages name.
_SPEC_LINE = r"(input|expect)\s+(\S+)\s+in\s+\[([^,\]]*),([^,\]]*)\]\Z"

# The one reader of a well-formed line: the keyword, the address's
# letters and digits, and the two endpoints, in one match.  \s agrees
# with str.isspace, so it skips the whitespace ``_entry_error`` strips.
# Compiled by the first call, through re's cache, so that only `test`
# pays for it.
_SPEC_ENTRY = (
    rf"\s*(input|expect)\s+{_ADDRESS}\s+in\s+\[\s*({_NUMBER})\s*,\s*({_NUMBER})\s*\]\s*\Z"
)


def _entry_error(line: str, lineno: int) -> IntervalSpecError:
    """What is wrong with a line that is not blank, when the one-match
    reading rejects it or its row or endpoints fail the checks after."""
    m = re.match(_SPEC_LINE, line.strip())
    if m is None:
        return IntervalSpecError(
            "expected 'input ADDR in [lo, hi]' or 'expect ADDR in [lo, hi]'", lineno
        )
    _, addr_text, lo_text, hi_text = m.groups()
    try:
        parse_address(addr_text)
    except MalformedAddress as err:
        error = IntervalSpecError(str(err), lineno)
        error.__cause__ = err
        return error
    lo_text, hi_text = lo_text.strip(), hi_text.strip()
    if not re.fullmatch(_NUMBER, lo_text) or not re.fullmatch(_NUMBER, hi_text):
        return IntervalSpecError(f"bad interval endpoints [{lo_text}, {hi_text}]", lineno)
    if math.isfinite(float(lo_text)) and math.isfinite(float(hi_text)):
        # With its address and endpoints read, only an empty interval is left.
        return IntervalSpecError(f"interval is empty: [{lo_text}, {hi_text}]", lineno)
    return IntervalSpecError(f"interval endpoints out of range [{lo_text}, {hi_text}]", lineno)


def load_interval_spec(text: str, program: SpreadsheetProgram) -> IntervalSpec:
    """Parse .intervals text against a program.

    Lines read ``input ADDR in [lo, hi]`` or ``expect ADDR in
    [lo, hi]``; ';' starts a comment and blank lines are skipped.
    Raises IntervalSpecError for malformed lines and non-finite
    endpoints, NotAnInputCell for a range on anything but an Input, and
    NotAFormulaCell for an expectation on anything but a Formula.
    """
    input_ranges: dict[CellAddress, Interval] = {}
    expected: dict[CellAddress, Interval] = {}
    match = re.compile(_SPEC_ENTRY).match
    isfinite = math.isfinite
    new = tuple.__new__
    for lineno, raw in enumerate(split_lines(text), 1):
        line = strip_comment(raw) if ";" in raw else raw
        m = match(line)
        if m is None:
            if not line.strip():
                continue
            raise _entry_error(line, lineno)
        keyword, letters, digits, lo_text, hi_text = m.groups()
        try:
            row = int(digits)
        except ValueError:  # more digits than ``int`` reads from a string
            row = 0
        lo, hi = float(lo_text), float(hi_text)
        if not (row >= 1 and isfinite(lo) and isfinite(hi) and lo <= hi):
            # Row 0, an overlong row, an endpoint beyond the floats or
            # an empty interval: the explainer names the error.
            raise _entry_error(line, lineno)
        # Checked here, so built in C without the types' checks.
        addr = new(CellAddress, (column_number(letters), row))
        interval = new(Interval, (lo, hi))
        if keyword == "input":
            if not isinstance(program.content(addr), Input):
                raise NotAnInputCell(addr)
            if addr in input_ranges:
                raise IntervalSpecError(f"duplicate input range for {addr}", lineno)
            input_ranges[addr] = interval
        else:
            if not isinstance(program.content(addr), Formula):
                raise NotAFormulaCell(addr)
            if addr in expected:
                raise IntervalSpecError(f"duplicate expectation for {addr}", lineno)
            expected[addr] = interval
    return IntervalSpec(input_ranges=input_ranges, expected=expected)
