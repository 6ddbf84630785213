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
collapsed to a point, so B collapses to d by construction.  This module
re-exports the interval arithmetic for callers that import it here.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

from .dataflow import build_graph
from .errors import SheetLintError
from .evaluator import (  # the interval arithmetic is re-exported from here
    DivisorContainsZero,
    EmptyAggregate,
    Fault,
    Interval,
    IntervalValue,
    Number,
    Value,
    eval_in_order,
    evaluate,
    iv_aggregate,
    iv_binop,
    iv_negate,
)
from .model import (
    Formula,
    Input,
    NotAnInputCell,
    SpreadsheetInstance,
    SpreadsheetProgram,
    _NUMBER_RE,
    strip_comment,
)
from .scl import CellAddress, MalformedAddress, parse_address, row_major


class IntervalSpecError(SheetLintError):
    """An .intervals file could not be read; carries the 1-based line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class NotAFormulaCell(SheetLintError):
    """An expectation targeted a cell that is not a Formula."""

    def __init__(self, address: CellAddress):
        super().__init__(f"cell {address} is not a formula cell")
        self.address = address


@dataclass(frozen=True)
class IntervalSpec:
    """Input ranges and expectations for one program."""

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

    Raises NotAnInputCell for a range on a non-input and
    CyclicDependency for cyclic programs.
    """
    order = build_graph(program).topo_order()
    return _bounds(SpreadsheetInstance(program), spec.input_ranges, order)


def _bounds(
    instance: SpreadsheetInstance,
    ranges: Mapping[CellAddress, Interval],
    order: list[CellAddress],
) -> dict[CellAddress, IntervalValue]:
    for addr in ranges:
        if not isinstance(instance.program.content(addr), Input):
            raise NotAnInputCell(addr)
    return {
        addr: value
        for addr, value in evaluate(instance, order, ranges, []).items()
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


@dataclass(frozen=True)
class CellTest:
    """Outcome for one formula cell."""

    cell: CellAddress
    value: Value
    bounding: IntervalValue
    expected: Interval | None
    verdict: Verdict
    suspects: tuple[CellAddress, ...]

    @property
    def symptomatic(self) -> bool:
        return self.verdict in SYMPTOMS


@dataclass(frozen=True)
class TestReport:
    """One row per formula cell, in row-major order."""

    rows: tuple[CellTest, ...]

    def any_symptom(self) -> bool:
        return any(row.symptomatic for row in self.rows)


def run_interval_test(instance: SpreadsheetInstance, spec: IntervalSpec) -> TestReport:
    """Evaluate, bound, and judge every formula cell.

    Inputs without a declared range are held at their bound value.
    Cells without an expectation come back NOT_JUDGED.  Suspects for a
    symptomatic cell are its transitive precedents, nearest first, and
    symptomatic before clean at equal distance.
    """
    program = instance.program
    for addr in spec.expected:
        if not isinstance(program.content(addr), Formula):
            raise NotAFormulaCell(addr)
    graph = build_graph(program)
    order = graph.topo_order()
    values = eval_in_order(instance, order).values
    bounds = _bounds(instance, spec.input_ranges, order)
    verdicts = {
        addr: judge(values[addr], spec.expected[addr], bounds[addr])
        if addr in spec.expected
        else Verdict.NOT_JUDGED
        for addr, _ in program.formula_cells()
    }
    symptomatic = {addr for addr, v in verdicts.items() if v in SYMPTOMS}
    rows = tuple(
        CellTest(
            cell=addr,
            value=values[addr],
            bounding=bounds[addr],
            expected=spec.expected.get(addr),
            verdict=verdict,
            suspects=_suspects(graph, addr, symptomatic) if addr in symptomatic else (),
        )
        for addr, verdict in verdicts.items()
    )
    return TestReport(rows)


def _suspects(graph, addr: CellAddress, symptomatic: set[CellAddress]):
    distance: dict[CellAddress, int] = {}
    frontier = [addr]
    step = 0
    while frontier:
        step += 1
        nxt: list[CellAddress] = []
        for cell in frontier:
            for pre in graph.precedents(cell):
                if pre not in distance and pre != addr:
                    distance[pre] = step
                    nxt.append(pre)
        frontier = nxt
    ordered = sorted(
        distance,
        key=lambda a: (distance[a], 0 if a in symptomatic else 1, row_major(a)),
    )
    return tuple(ordered)


# ---------------------------------------------------------------------------
# The .intervals format

_SPEC_LINE_RE = re.compile(
    r"(input|expect)\s+(\S+)\s+in\s+\[([^,\]]*),([^,\]]*)\]\Z"
)


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
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = strip_comment(raw).strip()
        if not line:
            continue
        m = _SPEC_LINE_RE.match(line)
        if m is None:
            raise IntervalSpecError(
                "expected 'input ADDR in [lo, hi]' or 'expect ADDR in [lo, hi]'",
                lineno,
            )
        keyword, addr_text, lo_text, hi_text = m.groups()
        try:
            addr = parse_address(addr_text)
        except MalformedAddress as err:
            raise IntervalSpecError(str(err), lineno) from err
        lo_text, hi_text = lo_text.strip(), hi_text.strip()
        if not _NUMBER_RE.match(lo_text) or not _NUMBER_RE.match(hi_text):
            raise IntervalSpecError(f"bad interval endpoints [{lo_text}, {hi_text}]", lineno)
        lo, hi = float(lo_text), float(hi_text)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise IntervalSpecError(
                f"interval endpoints out of range [{lo_text}, {hi_text}]", lineno
            )
        if lo > hi:
            raise IntervalSpecError(f"interval is empty: [{lo_text}, {hi_text}]", lineno)
        interval = Interval(lo, hi)
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
