"""Evaluation of spreadsheet programs, over points and over intervals.

Every non-empty cell evaluates to one of four values:

    Number  the only value formulas compute with
    Blank   the value read from an empty cell
    Text    the value of a Label cell
    Fault   evaluation failed; the kind says how

One walker computes every formula, over closed intervals instead of
numbers: a fold step built once per run.  A concrete run is an interval
run with each input held at a single point: every interval then stays
degenerate, and the cell's Number is its lower endpoint.  Interval
testing runs the same walker over declared input ranges, so a bound
collapses to the concrete value when every range is a point.

Interval testing needs both runs, and ``evaluate_lanes`` takes them
from one walk, folding each formula once.  A lane is one of the two
runs: the point lane holds inputs at their values, the ranged lane
holds them at their ranges.  A cell whose lanes differ holds a plain
(point, ranged) tuple, every other cell its one value.  A node whose
children differ between the lanes runs the one-lane step once per
lane, so the faults, notes and coercions below are defined once.

Scalar arithmetic coerces Blank to 0 and treats Text as a type fault.
Grouping functions instead skip Blank and Text silently: D1 and D2
report empty cells read and labels inside ranges without evaluating.
Faults travel: an operation over a faulty operand yields
Fault(PROPAGATED).  A result with an endpoint beyond the floats' range
yields Fault(OVERFLOW); the loaders reject non-finite numbers, so no
operation ever sees infinity or NaN.  Where a fault starts in a type
error or a division by zero, a runtime note records it.

A range reads the values of its occupied cells, found through the
program's occupied-cell index, never address by address.  Its numbers
are added in row-major order.

A bare reference as the whole formula body coerces a Blank to 0 and a
Text to a type fault at the root, so a formula never evaluates to
Blank or Text.  A Number or a Fault it reads is its value as read: a
bare reference to a cell holding Fault(DIV_BY_ZERO) holds that fault,
not Fault(PROPAGATED).
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Mapping, Union

from .areas import skeletons
from .dataflow import build_graph
from .model import (
    CellIndex,
    Constant,
    Formula,
    Input,
    Label,
    NotAnInputCell,
    SpreadsheetInstance,
    SpreadsheetProgram,
    cell_index,
)
from .scl import (
    BinaryOp,
    Call,
    CellAddress,
    FormulaNode,
    Negate,
    NumberLiteral,
    RangeArg,
    RangeRef,
    Reference,
    SheetLintError,
    fold,
    format_number,
    iter_nodes,
    row_major,
    value_type,
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


class Number(value_type("Number", "value")):
    __slots__ = ()
    value: float


class Blank(value_type("Blank", "")):
    __slots__ = ()

    def __bool__(self) -> bool:
        # An empty tuple underneath, but a value like any other.
        return True


class Text(value_type("Text", "text")):
    __slots__ = ()
    text: str


class Fault(value_type("Fault", "kind")):
    __slots__ = ()
    kind: FaultKind


Value = Union[Number, Blank, Text, Fault]

BLANK = Blank()


class NoteKind(Enum):
    DIV_BY_ZERO = "div_by_zero"
    TYPE_ERROR = "type_error"


class RuntimeNote(value_type("RuntimeNote", "kind cell subject", (None,))):
    """A fault that started during evaluation: a division by zero or
    a type error.

    ``cell`` is the formula where it started; ``subject`` is the
    referenced cell that triggered it, when one did.
    """

    __slots__ = ()
    kind: NoteKind
    cell: CellAddress
    subject: CellAddress | None


class EvalResult(value_type("EvalResult", "values notes")):
    """Values for every non-empty cell plus notes in evaluation order."""

    __slots__ = ()
    values: Mapping[CellAddress, Value]
    notes: tuple[RuntimeNote, ...]


# ---------------------------------------------------------------------------
# Interval arithmetic


class DivisorContainsZero(SheetLintError):
    """Interval division where the divisor straddles or touches zero."""


class EmptyAggregate(SheetLintError):
    """A grouping function over no numeric operands at all."""


class Interval(value_type("Interval", "lo hi")):
    """A closed interval of reals; both endpoints belong to it."""

    __slots__ = ()
    lo: float
    hi: float

    def __new__(cls, lo: float, hi: float) -> "Interval":
        if not lo <= hi:
            raise ValueError(f"not an interval: lo={lo!r}, hi={hi!r}")
        return tuple.__new__(cls, (lo, hi))

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
    los, his = zip(*items)
    if name == "SUM":
        return Interval(sum(los), sum(his))
    if name == "AVG":
        return iv_binop("/", Interval(sum(los), sum(his)), Interval.degenerate(float(len(items))))
    if name == "MIN":
        return Interval(min(los), min(his))
    if name == "MAX":
        return Interval(max(los), max(his))
    raise ValueError(f"unknown function {name!r}")


# ---------------------------------------------------------------------------
# The formula walker

# What a cell holds while the walker runs: numbers are intervals.
_Held = Union[Interval, Blank, Text, Fault]
_Cells = Mapping[CellAddress, _Held]
# What a cell holds in a two-lane run: one value, the same in both
# lanes, or a plain (point, ranged) tuple where they differ.  Every
# value type is a tuple subclass, so ``type(v) is tuple`` tells a pair.
_Lanes = Union[_Held, tuple[_Held, _Held]]

_ZERO = Interval.degenerate(0.0)
_PROPAGATED = Fault(FaultKind.PROPAGATED)
_OVERFLOW = Fault(FaultKind.OVERFLOW)
_INF = math.inf


def _subject(node: FormulaNode) -> CellAddress | None:
    return node.ref.address() if isinstance(node, Reference) else None


def _finite(box: Interval) -> IntervalValue:
    if math.isfinite(box.lo) and math.isfinite(box.hi):
        return box
    return _OVERFLOW


def _arith(op: str, a: Interval, b: Interval) -> IntervalValue:
    """``_finite(iv_binop(op, a, b))`` for '+', '-' and '*', on the
    endpoints.  Held intervals are finite, so no endpoint comes out NaN
    or out of order, and one beyond the floats is infinite."""
    if op == "+":
        lo = a[0] + b[0]
        hi = a[1] + b[1]
    elif op == "-":
        lo = a[0] - b[1]
        hi = a[1] - b[0]
    elif op == "*":
        alo, ahi = a
        blo, bhi = b
        products = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
        lo = min(products)
        hi = max(products)
    else:
        return iv_binop(op, a, b)  # raises for an operator it does not know
    if -_INF < lo and hi < _INF:
        return tuple.__new__(Interval, (lo, hi))
    return _OVERFLOW


def _operand(
    raw: _Held, node: FormulaNode, host: CellAddress, notes: list[RuntimeNote]
) -> IntervalValue:
    """Coerce an operand for scalar arithmetic."""
    kind = type(raw)
    if kind is Interval:
        return raw
    if kind is Fault:
        return _PROPAGATED
    if kind is Blank:
        return _ZERO
    notes.append(RuntimeNote(NoteKind.TYPE_ERROR, host, _subject(node)))
    return Fault(FaultKind.TYPE_ERROR)


def _read(rng: RangeRef, index: CellIndex, get) -> list:
    """What a RangeArg reads: the values its occupied cells hold, in
    row-major order.  A list, never a lane pair."""
    cells = index.occupied(rng)
    if rng.start.col != rng.end.col:
        cells.sort(key=row_major)
    return list(map(get, cells))


def _step(held: _Cells, index: CellIndex, notes: list[RuntimeNote], host: list):
    """The fold step of one lane over the cells in ``held``, built once
    per run.  ``host[0]`` is the formula being folded, set by the loop
    before each fold, for the notes it raises."""
    get = held.get
    new = tuple.__new__

    def step(node: FormulaNode, children: list):
        kind = type(node)
        if kind is Reference:
            # An address hashes and compares as its plain (col, row).
            return get(node.ref[:2], BLANK)
        if kind is NumberLiteral:
            return new(Interval, (node.value, node.value))
        if kind is RangeArg:
            return _read(node.rng, index, get)
        if kind is BinaryOp:
            left, right = children
            if type(left) is Interval and type(right) is Interval and node.op != "/":
                return _arith(node.op, left, right)
            if type(left) is not Interval:
                left = _operand(left, node.left, host[0], notes)
                if type(left) is Fault:
                    return left
            if type(right) is not Interval:
                right = _operand(right, node.right, host[0], notes)
                if type(right) is Fault:
                    return right
            if node.op == "/" and right.lo <= 0.0 <= right.hi:
                if right.lo < right.hi:
                    return Fault(FaultKind.DIVISOR_CONTAINS_ZERO)
                subject = _subject(node.right)
                notes.append(RuntimeNote(NoteKind.DIV_BY_ZERO, host[0], subject))
                return Fault(FaultKind.DIV_BY_ZERO)
            return _finite(iv_binop(node.op, left, right))
        if kind is Negate:
            operand = _operand(children[0], node.child, host[0], notes)
            if isinstance(operand, Fault):
                return operand
            return iv_negate(operand)
        if kind is Call:
            return _aggregate(node, children, host[0], notes)
        raise TypeError(f"not evaluable: {node!r}")

    return step


def _lanes_step(held: Mapping[CellAddress, _Lanes], index: CellIndex, step):
    """The fold step of both lanes over the cells in ``held``.  Leaves
    read both lanes; a '+', '-' or '*' over Intervals in both runs the
    arithmetic once per lane, and every other node runs the one-lane
    ``step`` once per lane.  A node none of whose children differ
    between the lanes gives one value, the same in both."""
    get = held.get

    def lanes(node: FormulaNode, children: list):
        kind = type(node)
        if kind is Reference:
            return get(node.ref[:2], BLANK)
        if kind is RangeArg:
            values = _read(node.rng, index, get)
            if tuple not in map(type, values):
                return values
            return (
                [v[0] if type(v) is tuple else v for v in values],
                [v[1] if type(v) is tuple else v for v in values],
            )
        if kind is BinaryOp and node.op != "/":
            left, right = children
            lp, lr = left if type(left) is tuple else (left, left)
            rp, rr = right if type(right) is tuple else (right, right)
            if type(lp) is type(lr) is type(rp) is type(rr) is Interval:
                if lp is lr and rp is rr:  # neither child differs between the lanes
                    return _arith(node.op, lp, rp)
                return _arith(node.op, lp, rp), _arith(node.op, lr, rr)
        if tuple not in map(type, children):
            return step(node, children)
        point = [c[0] if type(c) is tuple else c for c in children]
        ranged = [c[1] if type(c) is tuple else c for c in children]
        return step(node, point), step(node, ranged)

    return lanes


def _aggregate(
    node: Call, children: list, host: CellAddress, notes: list[RuntimeNote]
) -> IntervalValue:
    items: list[Interval] = []
    for raw in children:
        # A range argument reads a list, every other argument one value.
        values = raw if type(raw) is list else [raw]
        numbers = [value for value in values if type(value) is Interval]
        if len(numbers) < len(values) and Fault in map(type, values):
            return _PROPAGATED
        items += numbers
    if not items and node.name != "COUNT":
        # AVG divides by the count, so emptiness surfaces as its
        # division fault; the others have no value to give at all.
        kind = NoteKind.DIV_BY_ZERO if node.name == "AVG" else NoteKind.TYPE_ERROR
        notes.append(RuntimeNote(kind, host, None))
        return Fault(FaultKind[kind.name])
    return _finite(iv_aggregate(node.name, items))


def may_divide_by_zero(program: SpreadsheetProgram) -> list[CellAddress]:
    """The formula cells, row-major, whose concrete evaluation can note
    DIV_BY_ZERO, whatever the inputs hold.

    Only two nodes note it.  A '/' does when its divisor is zero, which
    takes values to decide, so every formula holding one is listed.  An
    AVG does when no operand gives a number or a fault, and that the
    cell kinds decide: a constant, an input or a formula cell always
    holds a number or a fault, and so does any argument that is neither
    a range nor a reference.  So a formula is listed for an AVG only
    when every argument of it is a range or a reference that reads no
    cell but labels and empty ones.
    """
    cells = program.cells
    index = cell_index(program)
    found = []
    for addr, shape in skeletons(program).items():
        if "/" in shape:
            found.append(addr)
        elif any(type(token) is tuple and token[0] == "AVG" for token in shape) and any(
            type(node) is Call
            and node.name == "AVG"
            and all(_reads_no_number(arg, cells, index) for arg in node.args)
            for node in iter_nodes(cells[addr].ast)
        ):
            found.append(addr)
    return found


def _reads_no_number(arg: FormulaNode, cells: Mapping, index: CellIndex) -> bool:
    kind = type(arg)
    if kind is RangeArg:
        return index.count(arg.rng) == index.count(arg.rng, "label")
    if kind is Reference:
        return type(cells.get(arg.ref[:2])) in (Label, type(None))
    return False


def evaluate(
    instance: SpreadsheetInstance,
    ranges: Mapping[CellAddress, Interval],
    notes: list[RuntimeNote],
) -> dict[CellAddress, _Held]:
    """Run the walker over every non-empty cell, in the graph's topological order.

    Constants are degenerate intervals, inputs take their range from
    ``ranges`` or else sit at their value in the instance, labels are
    Text, and formulas hold an Interval or a Fault.  Each division by
    zero and type error is noted in ``notes`` where it starts, cell by
    cell in evaluation order.  Raises CyclicDependency for a reference
    loop, then NotAnInputCell for a range on a non-input.
    """
    return _evaluate(instance, ranges, notes, False)


def evaluate_lanes(
    instance: SpreadsheetInstance, ranges: Mapping[CellAddress, Interval]
) -> dict[CellAddress, _Lanes]:
    """``evaluate`` over points and over ``ranges`` in one walk, without notes.

    A cell whose two runs agree holds its one value; one whose runs
    differ, an input ``ranges`` ranges or a formula that reads one,
    holds the plain tuple (point value, ranged value).  With no range
    every cell holds one value.  Raises as ``evaluate`` does.
    """
    return _evaluate(instance, ranges, [], True)


def _evaluate(
    instance: SpreadsheetInstance,
    ranges: Mapping[CellAddress, Interval],
    notes: list[RuntimeNote],
    lanes: bool,
) -> dict:
    program = instance.program
    order = build_graph(program).topo_order()
    index = cell_index(program)
    content_at = program.cells.get
    for addr in ranges:
        if not isinstance(content_at(addr), Input):
            raise NotAnInputCell(addr)
    bound = instance.bindings.get
    held: dict = {}
    host = [None]
    step = _step(held, index, notes, host)
    if lanes:
        step = _lanes_step(held, index, step)
    # A number the loader or the instance holds is finite, so its point
    # interval is built in C without Interval's check.
    point = tuple.__new__
    for addr in order:
        content = content_at(addr)
        kind = type(content)
        if kind is Formula:
            host[0] = addr
            result = fold(content.ast, step)
            if type(result) is Blank or type(result) is Text:
                # A bare reference at the root still lands in a numeric
                # cell.  A lane pair holds numbers and faults only.
                result = _operand(result, content.ast, addr, notes)
            held[addr] = result
        elif kind is Constant:
            held[addr] = point(Interval, (content.value, content.value))
        elif kind is Input:
            box = ranges.get(addr)
            if box is None or lanes:
                value = bound(addr, content.default)
                at = point(Interval, (value, value))
                box = at if box is None else (at, box)
            held[addr] = box
        else:
            held[addr] = Text(content.text)
    return held


def eval_instance(instance: SpreadsheetInstance) -> EvalResult:
    """Evaluate every cell, precedents first; each degenerate Interval
    becomes its Number.

    Raises CyclicDependency when formulas form a reference loop.
    """
    notes: list[RuntimeNote] = []
    new = tuple.__new__
    values = {
        addr: new(Number, (value[0],)) if type(value) is Interval else value
        for addr, value in evaluate(instance, {}, notes).items()
    }
    return EvalResult(values, tuple(notes))
