"""The evaluator as it stood before its loop read the program's map
directly, kept as an oracle.

``tests/test_eval_oracle.py`` runs the package's ``eval_instance`` and
``evaluate`` against these on every program it has: each must give
equal values, in the same key order, and equal notes of the kinds the
package still has.

The code below is the earlier evaluator verbatim: it fetched each
cell's content through ``SpreadsheetProgram.content``, tested types
with ``isinstance``, built every point interval through
``Interval.degenerate`` and read a reference through
``CellRef.address()``.  It also notes what the package's evaluator no
longer does, since D1 and D2 report it without evaluating: each blank
coerced in arithmetic (BLANK_IN_ARITHMETIC) and each label or empty run
a grouping range skips (SKIPPED_NON_NUMERIC).  So it keeps its own
``NoteKind``, the evaluator's four kinds as they were.  The value types,
the interval arithmetic (``iv_binop``, ``iv_negate``,
``iv_aggregate``), the tree fold and the occupied-cell index are shared
with the package, so results compare equal.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Mapping, Union

from sheetlint.evaluator import (
    BLANK,
    Blank,
    EvalResult,
    Fault,
    FaultKind,
    Interval,
    IntervalValue,
    Number,
    RuntimeNote,
    Text,
    iv_aggregate,
    iv_binop,
    iv_negate,
)
from sheetlint.model import CellIndex, Constant, Formula, Input, SpreadsheetInstance, cell_index
from sheetlint.scl import (
    BinaryOp,
    Call,
    CellAddress,
    FormulaNode,
    Negate,
    NumberLiteral,
    RangeArg,
    Reference,
    fold,
)


class NoteKind(Enum):
    BLANK_IN_ARITHMETIC = "blank_in_arithmetic"
    SKIPPED_NON_NUMERIC = "skipped_non_numeric"
    DIV_BY_ZERO = "div_by_zero"
    TYPE_ERROR = "type_error"


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
    ast: FormulaNode,
    host: CellAddress,
    held: _Cells,
    index: CellIndex,
    notes: list[RuntimeNote],
) -> _Held:
    """One formula's value.  A RangeArg leaf gives the numbers its
    occupied cells hold, in row-major order, and every other part it
    reads as a (subject, value) pair: an occupied cell with its Text or
    Fault, an empty run with Blank, by the subject's top-left cell."""

    def step(node: FormulaNode, children: list):
        kind = type(node)
        if kind is Reference:
            return held.get(node.ref.address(), BLANK)
        if kind is NumberLiteral:
            return Interval.degenerate(node.value)
        if kind is RangeArg:
            parts = index.parts(node.rng)
            # An empty run is not held: it reads as None, then Blank.
            values = list(map(held.get, parts))
            numbers = [value for value in values if type(value) is Interval]
            others = []
            if len(numbers) < len(values):
                others = [
                    (part, BLANK if value is None else value)
                    for part, value in zip(parts, values)
                    if type(value) is not Interval
                ]
            return numbers, others
        if kind is BinaryOp:
            left = _operand(children[0], node.left, host, notes)
            if isinstance(left, Fault):
                return left
            right = _operand(children[1], node.right, host, notes)
            if isinstance(right, Fault):
                return right
            if node.op == "/" and right.lo <= 0.0 <= right.hi:
                if right.lo < right.hi:
                    return Fault(FaultKind.DIVISOR_CONTAINS_ZERO)
                subject = _subject(node.right)
                notes.append(RuntimeNote(NoteKind.DIV_BY_ZERO, host, subject))
                return Fault(FaultKind.DIV_BY_ZERO)
            return _finite(iv_binop(node.op, left, right))
        if kind is Negate:
            operand = _operand(children[0], node.child, host, notes)
            if isinstance(operand, Fault):
                return operand
            return iv_negate(operand)
        if kind is Call:
            return _aggregate(node, children, host, notes)
        raise TypeError(f"not evaluable: {node!r}")

    return fold(ast, step)


def _aggregate(
    node: Call, children: list, host: CellAddress, notes: list[RuntimeNote]
) -> IntervalValue:
    items: list[Interval] = []
    faulted = False
    for arg, raw in zip(node.args, children):
        if type(arg) is RangeArg:
            numbers, pairs = raw
            items += numbers
        else:
            pairs = ((_subject(arg), raw),)
        for subject, value in pairs:
            if isinstance(value, Interval):
                items.append(value)
            elif isinstance(value, Fault):
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
    in evaluation order, as the module docstring sets out.
    """
    program = instance.program
    index = cell_index(program)
    held: dict[CellAddress, _Held] = {}
    for addr in order:
        content = program.content(addr)
        if content is None:
            continue
        if isinstance(content, Formula):
            result = _walk(content.ast, addr, held, index, notes)
            if isinstance(result, (Blank, Text)):
                # A bare reference at the root still lands in a numeric cell.
                result = _operand(result, content.ast, addr, notes)
            held[addr] = result
        elif isinstance(content, Constant):
            held[addr] = Interval.degenerate(content.value)
        elif isinstance(content, Input):
            held[addr] = ranges.get(addr) or Interval.degenerate(
                instance.bindings.get(addr, content.default)
            )
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
