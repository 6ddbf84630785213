"""Evaluation of spreadsheet programs, over points and over intervals.

Every non-empty cell evaluates to one of four values:

    Number  the only value formulas compute with
    Blank   the value read from an empty cell
    Text    the value of a Label cell
    Fault   evaluation failed; the kind says how

One walker computes every formula, over closed intervals instead of
numbers.  A concrete run is an interval run with each input held at a
single point: every interval then stays degenerate, and the cell's
Number is its lower endpoint.  Interval testing runs the same walker
over declared input ranges, so a bound collapses to the concrete value
when every range is a point.

Scalar arithmetic coerces Blank to 0 and treats Text as a type fault.
Grouping functions instead skip Blank and Text cells in their ranges.
Both departures from plain arithmetic are recorded as runtime notes so
callers can surface them.  Faults travel: an operation over a faulty
operand yields Fault(PROPAGATED).  A result with an endpoint beyond
the floats' range yields Fault(OVERFLOW); the loaders reject
non-finite numbers, so no operation ever sees infinity or NaN.

A formula therefore never evaluates to Blank or Text.  A bare reference
as the whole formula body goes through the same scalar coercion at the
root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Union

from .dataflow import build_graph
from .errors import SheetLintError
from .model import Constant, Formula, Input, SpreadsheetInstance
from .scl import (
    BinaryOp,
    Call,
    CellAddress,
    FormulaNode,
    Negate,
    NumberLiteral,
    RangeArg,
    Reference,
    format_number,
)


class FaultKind(Enum):
    DIV_BY_ZERO = "div_by_zero"
    TYPE_ERROR = "type_error"
    CYCLE = "cycle"
    PROPAGATED = "propagated"
    # A divisor range that holds zero among other values; a degenerate
    # divisor at zero is DIV_BY_ZERO, so concrete runs never see this.
    DIVISOR_CONTAINS_ZERO = "divisor_contains_zero"
    OVERFLOW = "overflow"


@dataclass(frozen=True)
class Number:
    value: float


@dataclass(frozen=True)
class Blank:
    pass


@dataclass(frozen=True)
class Text:
    text: str


@dataclass(frozen=True)
class Fault:
    kind: FaultKind


Value = Union[Number, Blank, Text, Fault]

BLANK = Blank()


class NoteKind(Enum):
    BLANK_IN_ARITHMETIC = "blank_in_arithmetic"
    SKIPPED_NON_NUMERIC = "skipped_non_numeric"
    DIV_BY_ZERO = "div_by_zero"
    TYPE_ERROR = "type_error"


@dataclass(frozen=True)
class RuntimeNote:
    """One noteworthy event during evaluation.

    ``cell`` is the formula where it surfaced; ``subject`` is the
    referenced cell that triggered it, when one did.
    """

    kind: NoteKind
    cell: CellAddress
    subject: CellAddress | None = None


@dataclass(frozen=True)
class EvalResult:
    """Values for every non-empty cell plus notes in evaluation order."""

    values: Mapping[CellAddress, Value]
    notes: tuple[RuntimeNote, ...]


# ---------------------------------------------------------------------------
# Interval arithmetic


class DivisorContainsZero(SheetLintError):
    """Interval division where the divisor straddles or touches zero."""


class EmptyAggregate(SheetLintError):
    """A grouping function over no numeric operands at all."""


@dataclass(frozen=True)
class Interval:
    """A closed interval of reals; both endpoints belong to it."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"not an interval: lo={self.lo!r}, hi={self.hi!r}")

    @classmethod
    def degenerate(cls, value: float) -> "Interval":
        return cls(value, value)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def encloses(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def __str__(self) -> str:
        return f"[{format_number(self.lo)}, {format_number(self.hi)}]"


IntervalValue = Union[Interval, Fault]


def iv_binop(op: str, a: Interval, b: Interval) -> Interval:
    """Endpoint arithmetic for '+', '-', '*', and '/'.

    Division raises DivisorContainsZero when 0 lies in b; the result
    would be unbounded.
    """
    if op == "+":
        return Interval(a.lo + b.lo, a.hi + b.hi)
    if op == "-":
        return Interval(a.lo - b.hi, a.hi - b.lo)
    if op == "*":
        products = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
        return Interval(min(products), max(products))
    if op == "/":
        if b.lo <= 0.0 <= b.hi:
            raise DivisorContainsZero(f"divisor {b} contains zero")
        quotients = (a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi)
        return Interval(min(quotients), max(quotients))
    raise ValueError(f"unknown operator {op!r}")


def iv_negate(a: Interval) -> Interval:
    return Interval(-a.hi, -a.lo)


def iv_aggregate(name: str, items: list[Interval]) -> Interval:
    """Grouping functions lifted to intervals.

    COUNT is degenerate at the number of operands.  The others raise
    EmptyAggregate when there is nothing to group.
    """
    if name == "COUNT":
        return Interval.degenerate(float(len(items)))
    if not items:
        raise EmptyAggregate(f"{name} over no numeric cells")
    if name == "SUM":
        return Interval(sum(iv.lo for iv in items), sum(iv.hi for iv in items))
    if name == "AVG":
        total = Interval(sum(iv.lo for iv in items), sum(iv.hi for iv in items))
        return iv_binop("/", total, Interval.degenerate(float(len(items))))
    if name == "MIN":
        return Interval(min(iv.lo for iv in items), min(iv.hi for iv in items))
    if name == "MAX":
        return Interval(max(iv.lo for iv in items), max(iv.hi for iv in items))
    raise ValueError(f"unknown function {name!r}")


# ---------------------------------------------------------------------------
# The formula walker

# What a cell holds while the walker runs: numbers are intervals.
_Held = Union[Interval, Blank, Text, Fault]
_Cells = Mapping[CellAddress, _Held]

_ZERO = Interval.degenerate(0.0)
_PROPAGATED = Fault(FaultKind.PROPAGATED)
_OVERFLOW = Fault(FaultKind.OVERFLOW)


def _subject(node: FormulaNode) -> CellAddress | None:
    return node.ref.address() if isinstance(node, Reference) else None


def _finite(box: Interval) -> IntervalValue:
    if math.isfinite(box.lo) and math.isfinite(box.hi):
        return box
    return _OVERFLOW


def _operand(
    raw: _Held, node: FormulaNode, host: CellAddress, notes: list[RuntimeNote]
) -> IntervalValue:
    """Coerce an operand for scalar arithmetic."""
    if isinstance(raw, Interval):
        return raw
    if isinstance(raw, Fault):
        return _PROPAGATED
    if isinstance(raw, Blank):
        notes.append(RuntimeNote(NoteKind.BLANK_IN_ARITHMETIC, host, _subject(node)))
        return _ZERO
    notes.append(RuntimeNote(NoteKind.TYPE_ERROR, host, _subject(node)))
    return Fault(FaultKind.TYPE_ERROR)


def _walk(
    node: FormulaNode, host: CellAddress, held: _Cells, notes: list[RuntimeNote]
) -> _Held:
    if isinstance(node, NumberLiteral):
        return Interval.degenerate(node.value)
    if isinstance(node, Reference):
        return held.get(node.ref.address(), BLANK)
    if isinstance(node, Negate):
        operand = _operand(_walk(node.child, host, held, notes), node.child, host, notes)
        if isinstance(operand, Fault):
            return operand
        return iv_negate(operand)
    if isinstance(node, BinaryOp):
        left_raw = _walk(node.left, host, held, notes)
        right_raw = _walk(node.right, host, held, notes)
        left = _operand(left_raw, node.left, host, notes)
        if isinstance(left, Fault):
            return left
        right = _operand(right_raw, node.right, host, notes)
        if isinstance(right, Fault):
            return right
        if node.op == "/" and right.lo <= 0.0 <= right.hi:
            if right.lo < right.hi:
                return Fault(FaultKind.DIVISOR_CONTAINS_ZERO)
            notes.append(RuntimeNote(NoteKind.DIV_BY_ZERO, host, _subject(node.right)))
            return Fault(FaultKind.DIV_BY_ZERO)
        return _finite(iv_binop(node.op, left, right))
    if isinstance(node, Call):
        return _aggregate(node, host, held, notes)
    raise TypeError(f"not evaluable: {node!r}")


def _aggregate(
    node: Call, host: CellAddress, held: _Cells, notes: list[RuntimeNote]
) -> IntervalValue:
    items: list[Interval] = []
    faulted = False
    for arg in node.args:
        if isinstance(arg, RangeArg):
            subjects = list(arg.rng.cells())
            raws = [held.get(addr, BLANK) for addr in subjects]
        else:
            subjects = [_subject(arg)]
            raws = [_walk(arg, host, held, notes)]
        for subject, raw in zip(subjects, raws):
            if isinstance(raw, Interval):
                items.append(raw)
            elif isinstance(raw, Fault):
                faulted = True
            else:
                notes.append(RuntimeNote(NoteKind.SKIPPED_NON_NUMERIC, host, subject))
    if faulted:
        return _PROPAGATED
    if not items and node.name != "COUNT":
        # AVG divides by the count, so emptiness surfaces as its
        # division fault; the others have no value to give at all.
        kind = NoteKind.DIV_BY_ZERO if node.name == "AVG" else NoteKind.TYPE_ERROR
        notes.append(RuntimeNote(kind, host, None))
        return Fault(FaultKind[kind.name])
    return _finite(iv_aggregate(node.name, items))


def evaluate(
    instance: SpreadsheetInstance,
    order: list[CellAddress],
    ranges: Mapping[CellAddress, Interval],
    notes: list[RuntimeNote],
) -> dict[CellAddress, _Held]:
    """Run the walker over every non-empty cell, in a topological order.

    Constants are degenerate intervals, inputs take their range from
    ``ranges`` or else sit at their value in the instance, labels are
    Text, and formulas hold an Interval or a Fault.  Notes are appended
    in evaluation order.
    """
    program = instance.program
    held: dict[CellAddress, _Held] = {}
    for addr in order:
        content = program.content(addr)
        if content is None:
            continue
        if isinstance(content, Formula):
            result = _walk(content.ast, addr, held, notes)
            if isinstance(result, (Blank, Text)):
                # A bare reference at the root still lands in a numeric cell.
                result = _operand(result, content.ast, addr, notes)
            held[addr] = result
        elif isinstance(content, Constant):
            held[addr] = Interval.degenerate(content.value)
        elif isinstance(content, Input):
            held[addr] = ranges.get(addr) or Interval.degenerate(instance.input_value(addr))
        else:
            held[addr] = Text(content.text)
    return held


def eval_in_order(instance: SpreadsheetInstance, order: list[CellAddress]) -> EvalResult:
    """eval_instance over a topological order the caller already has."""
    notes: list[RuntimeNote] = []
    values = {
        addr: Number(value.lo) if isinstance(value, Interval) else value
        for addr, value in evaluate(instance, order, {}, notes).items()
    }
    return EvalResult(values, tuple(notes))


def eval_instance(instance: SpreadsheetInstance) -> EvalResult:
    """Evaluate every cell, precedents first.

    Raises CyclicDependency when formulas form a reference loop.
    """
    return eval_in_order(instance, build_graph(instance.program).topo_order())
