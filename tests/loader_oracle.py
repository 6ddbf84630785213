"""The .sheet and .intervals readers as they stood before the formula
lexer decoded references itself, kept as an oracle.

``tests/test_loader_oracle.py`` checks the package's ``load_program``,
``parse_formula`` and ``load_interval_spec`` against these on every
input it has: each must build an equal result, or raise the same
exception class with the same message and line or offset.

The code below is the earlier reader verbatim: a lexer of ``_Token``
tuples that matched each reference a second time through ``_REF_RE``,
and an uncached ``column_number``.  Two things are shared with the
package: the value and error types, so results compare equal, and
``strip_comment``.  The earlier ``strip_comment`` counted the quotes
from the start of the line again for every ';', which takes seconds on
a line holding a long run of them, as the fuzz mutants do; it is kept
here as ``quadratic_strip_comment`` and checked against the package's
on its own.
"""

from __future__ import annotations

import math
import re

from sheetlint.intervals import Interval, IntervalSpec, IntervalSpecError, NotAFormulaCell
from sheetlint.model import (
    CellFormulaError,
    Constant,
    DuplicateCell,
    Formula,
    Input,
    Label,
    MalformedLine,
    NotAnInputCell,
    SpreadsheetProgram,
    strip_comment,
)
from sheetlint.scl import (
    GROUPING_FUNCTIONS,
    BinaryOp,
    Call,
    CellAddress,
    CellRef,
    FormulaError,
    FormulaSyntaxError,
    MalformedAddress,
    Negate,
    NoReference,
    NumberLiteral,
    RangeArg,
    RangeOutsideCall,
    RangeRef,
    Reference,
    UnknownFunction,
    value_type,
)


def quadratic_strip_comment(line: str) -> str:
    """The line up to its first ';' that is not inside double quotes."""
    semi = line.find(";")
    while semi >= 0:
        if line.count('"', 0, semi) % 2 == 0:
            return line[:semi]
        semi = line.find(";", semi + 1)
    return line


# ---------------------------------------------------------------------------
# Addresses


def column_number(letters: str) -> int:
    """Decode a column spelled in letters back to its 1-based number."""
    n = 0
    for ch in letters.upper():
        if not "A" <= ch <= "Z":
            raise ValueError(f"bad column letter {ch!r}")
        n = n * 26 + (ord(ch) - ord("A") + 1)
    return n


_ADDRESS_RE = re.compile(r"([A-Za-z]+)([0-9]+)\Z")


def parse_address(text: str) -> CellAddress:
    m = _ADDRESS_RE.match(text)
    if m is None:
        raise MalformedAddress(f"not a cell address: {text!r}")
    col = column_number(m.group(1))
    row = int(m.group(2))
    if row < 1:
        raise MalformedAddress(f"row numbers start at 1: {text!r}")
    return CellAddress(col, row)


# ---------------------------------------------------------------------------
# Formulas


class _Token(value_type("_Token", "kind text pos")):
    __slots__ = ()
    kind: str
    text: str
    pos: int


_TOKEN_RE = re.compile(
    r"""
      (?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
    | (?P<ref>\$?[A-Za-z]+\$?\d+)
    | (?P<name>[A-Za-z]+)
    | (?P<symbol>[-+*/(),:])
    """,
    re.VERBOSE,
)

_REF_RE = re.compile(r"(\$?)([A-Za-z]+)(\$?)(\d+)\Z")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise FormulaSyntaxError(f"unexpected character {text[i]!r}", position=i)
        tokens.append(_Token(m.lastgroup, m.group(), i))
        i = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


_BINARY_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}
_STACKED_PRECEDENCE = {**_BINARY_PRECEDENCE, "neg": 3, "(": 0}


def _cell_ref(tok: _Token) -> CellRef:
    m = _REF_RE.match(tok.text)
    row = int(m.group(4))
    if row < 1:
        raise FormulaSyntaxError(f"row numbers start at 1: {tok.text!r}", tok.pos)
    return CellRef(
        col=column_number(m.group(2)),
        row=row,
        col_absolute=bool(m.group(1)),
        row_absolute=bool(m.group(3)),
    )


def _found(tok: _Token) -> str:
    return repr(tok.text or "end")


def _reduce(ops: list, out: list, floor: int) -> None:
    while type(ops[-1]) is str and _STACKED_PRECEDENCE[ops[-1]] >= floor:
        op = ops.pop()
        if op == "neg":
            out[-1] = Negate(out[-1])
        else:
            right = out.pop()
            out[-1] = BinaryOp(op, out[-1], right)


def parse_formula(text: str):
    tokens = _tokenize(text)
    out: list = []
    ops: list = [None]
    at_arg = False
    i = 0
    while True:
        tok = tokens[i]
        i += 1
        if tok.kind == "name":
            name = tok.text.upper()
            if name not in GROUPING_FUNCTIONS:
                raise UnknownFunction(f"unknown function {tok.text!r}", tok.pos)
            tok = tokens[i]
            if tok.text != "(":
                raise FormulaSyntaxError(f"expected '(', found {_found(tok)}", tok.pos)
            i += 1
            ops.append([name, 1])
            at_arg = True
            continue
        if tok.text == "(" or tok.text == "-":
            ops.append("neg" if tok.text == "-" else "(")
            at_arg = False
            continue
        if tok.kind == "number":
            value = float(tok.text)
            if not math.isfinite(value):
                raise FormulaSyntaxError(f"number out of range: {tok.text!r}", tok.pos)
            out.append(NumberLiteral(value))
        elif tok.kind != "ref":
            raise FormulaSyntaxError(f"expected a value, found {_found(tok)}", tok.pos)
        elif tokens[i].text != ":":
            out.append(Reference(_cell_ref(tok)))
        elif not at_arg:
            raise RangeOutsideCall(
                "ranges are only allowed as direct call arguments", tokens[i].pos
            )
        else:
            first, tok = _cell_ref(tok), tokens[i + 1]
            if tok.kind != "ref":
                raise FormulaSyntaxError(
                    f"expected a cell after ':', found {_found(tok)}", tok.pos
                )
            out.append(RangeArg(RangeRef.normalized(first, _cell_ref(tok))))
            i += 2
            tok = tokens[i]
            if tok.text != "," and tok.text != ")":
                raise FormulaSyntaxError(f"expected ')', found {_found(tok)}", tok.pos)

        while True:
            tok = tokens[i]
            i += 1
            precedence = _BINARY_PRECEDENCE.get(tok.text)
            if precedence is not None:
                _reduce(ops, out, precedence)
                ops.append(tok.text)
                at_arg = False
                break
            _reduce(ops, out, 1)
            opener = ops[-1]
            if opener is None:
                if tok.kind != "end":
                    raise FormulaSyntaxError(
                        f"unexpected {tok.text!r} after expression", tok.pos
                    )
                if not any(t.kind == "ref" for t in tokens):
                    raise NoReference("formula references no cell")
                return out[0]
            if tok.text == ")":
                ops.pop()
                if opener != "(":
                    name, argc = opener
                    out[-argc:] = [Call(name, tuple(out[-argc:]))]
            elif tok.text == "," and opener != "(":
                opener[1] += 1
                at_arg = True
                break
            else:
                raise FormulaSyntaxError(f"expected ')', found {_found(tok)}", tok.pos)


# ---------------------------------------------------------------------------
# The .sheet format

_NUMBER_RE = re.compile(r"[+-]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?\Z")


def _parse_content(text: str, addr: CellAddress, lineno: int):
    if text[:1] in ("#", "?"):
        what = "constant" if text[0] == "#" else "input default"
        body = text[1:].strip()
        if not _NUMBER_RE.match(body):
            raise MalformedLine(f"bad number in {what}: {body!r}", lineno)
        value = float(body)
        if not math.isfinite(value):
            raise MalformedLine(f"number out of range in {what}: {body!r}", lineno)
        return Constant(value) if text[0] == "#" else Input(value)
    if text.startswith("="):
        try:
            return Formula(parse_formula(text[1:]))
        except FormulaError as err:
            raise CellFormulaError(addr, lineno, err) from err
    if text.startswith('"'):
        if len(text) < 2 or not text.endswith('"'):
            raise MalformedLine(f"unterminated label: {text!r}", lineno)
        return Label(text[1:-1])
    raise MalformedLine(f"unrecognized cell content: {text!r}", lineno)


def load_program(text: str) -> SpreadsheetProgram:
    cells: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = strip_comment(raw).strip()
        if not line:
            continue
        addr_text, sep, content_text = line.partition("=")
        if not sep:
            raise MalformedLine("expected ADDR = CONTENT", lineno)
        try:
            addr = parse_address(addr_text.strip())
        except MalformedAddress as err:
            raise MalformedLine(str(err), lineno) from err
        if addr in cells:
            raise DuplicateCell(addr, lineno)
        cells[addr] = _parse_content(content_text.strip(), addr, lineno)
    return SpreadsheetProgram(cells)


# ---------------------------------------------------------------------------
# The .intervals format

_SPEC_LINE_RE = re.compile(
    r"(input|expect)\s+(\S+)\s+in\s+\[([^,\]]*),([^,\]]*)\]\Z"
)


def load_interval_spec(text: str, program: SpreadsheetProgram) -> IntervalSpec:
    input_ranges: dict = {}
    expected: dict = {}
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
