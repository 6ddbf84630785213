"""Core cell language: addresses, references, and the formula grammar.

Formulas follow a small expression grammar over cell references:

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := NUMBER | ref | call | '(' expr ')' | '-' factor
    call   := NAME '(' arg (',' arg)* ')'
    arg    := expr | ref ':' ref
    ref    := ['$'] LETTERS ['$'] DIGITS

'+' and '-' bind weakest, '*' and '/' bind tighter, unary '-' binds
tightest.  Operators of equal precedence associate to the left.  Ranges
are only legal as direct arguments of a grouping function call.
Whitespace between tokens carries no meaning.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Iterator, Union

from .errors import SheetLintError


class MalformedAddress(SheetLintError):
    """Raised when text does not spell a cell address."""


class FormulaError(SheetLintError):
    """Base for formula parse failures.

    ``position`` is the zero-based offset into the formula text where
    the problem was noticed, or None when no single offset applies.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class FormulaSyntaxError(FormulaError):
    """Token-level or structural violation of the grammar."""


class NoReference(FormulaError):
    """A formula mentioned no cell at all."""


class UnknownFunction(FormulaError):
    """A call to a name outside the fixed function set."""


class RangeOutsideCall(FormulaError):
    """A range used anywhere but as a direct call argument."""


GROUPING_FUNCTIONS = ("SUM", "AVG", "MIN", "MAX", "COUNT")


# ---------------------------------------------------------------------------
# Addresses and references


def column_letters(col: int) -> str:
    """Spell a 1-based column number in letters (1 -> A, 27 -> AA)."""
    if col < 1:
        raise ValueError(f"column numbers start at 1, got {col}")
    out = []
    while col:
        col, rem = divmod(col - 1, 26)
        out.append(chr(ord("A") + rem))
    return "".join(reversed(out))


def column_number(letters: str) -> int:
    """Decode a column spelled in letters back to its 1-based number."""
    n = 0
    for ch in letters.upper():
        if not "A" <= ch <= "Z":
            raise ValueError(f"bad column letter {ch!r}")
        n = n * 26 + (ord(ch) - ord("A") + 1)
    return n


@dataclass(frozen=True)
class CellAddress:
    """Absolute position of one cell; columns and rows start at 1."""

    col: int
    row: int

    def __post_init__(self):
        if self.col < 1 or self.row < 1:
            raise ValueError(f"cell coordinates start at 1, got ({self.col}, {self.row})")

    def __str__(self) -> str:
        return column_letters(self.col) + str(self.row)


def row_major(addr: CellAddress) -> tuple[int, int]:
    """Sort key that orders addresses by row, then by column."""
    return (addr.row, addr.col)


_ADDRESS_RE = re.compile(r"([A-Za-z]+)([0-9]+)\Z")


def parse_address(text: str) -> CellAddress:
    """Parse an A1-style address.

    Raises MalformedAddress unless the text is letters followed by
    digits naming a cell at column and row 1 or beyond.
    """
    m = _ADDRESS_RE.match(text)
    if m is None:
        raise MalformedAddress(f"not a cell address: {text!r}")
    col = column_number(m.group(1))
    row = int(m.group(2))
    if row < 1:
        raise MalformedAddress(f"row numbers start at 1: {text!r}")
    return CellAddress(col, row)


@dataclass(frozen=True)
class CellRef:
    """A reference as written in a formula.

    Each axis is independently relative or absolute; a '$' before the
    letters pins the column, one before the digits pins the row.
    """

    col: int
    row: int
    col_absolute: bool = False
    row_absolute: bool = False

    def __post_init__(self):
        if self.col < 1 or self.row < 1:
            raise ValueError(f"cell coordinates start at 1, got ({self.col}, {self.row})")

    def address(self) -> CellAddress:
        return CellAddress(self.col, self.row)

    def __str__(self) -> str:
        return "%s%s%s%s" % (
            "$" if self.col_absolute else "",
            column_letters(self.col),
            "$" if self.row_absolute else "",
            self.row,
        )


@dataclass(frozen=True)
class RangeRef:
    """A rectangle of cells, normalized so start is top-left."""

    start: CellRef
    end: CellRef

    def __post_init__(self):
        if self.start.col > self.end.col or self.start.row > self.end.row:
            raise ValueError(f"range corners out of order: {self.start}:{self.end}")

    @classmethod
    def normalized(cls, a: CellRef, b: CellRef) -> "RangeRef":
        """Build a range from two corners, swapping each axis as needed.

        Absoluteness markers travel with the coordinate they pin.
        """
        coord = lambda pair: pair[0]
        (c1, ca1), (c2, ca2) = sorted(
            [(a.col, a.col_absolute), (b.col, b.col_absolute)], key=coord
        )
        (r1, ra1), (r2, ra2) = sorted(
            [(a.row, a.row_absolute), (b.row, b.row_absolute)], key=coord
        )
        return cls(CellRef(c1, r1, ca1, ra1), CellRef(c2, r2, ca2, ra2))

    def width(self) -> int:
        return self.end.col - self.start.col + 1

    def height(self) -> int:
        return self.end.row - self.start.row + 1

    def contains(self, addr: CellAddress) -> bool:
        return (
            self.start.col <= addr.col <= self.end.col
            and self.start.row <= addr.row <= self.end.row
        )

    def cells(self) -> Iterator[CellAddress]:
        """All covered addresses in row-major order."""
        for row in range(self.start.row, self.end.row + 1):
            for col in range(self.start.col, self.end.col + 1):
                yield CellAddress(col, row)

    def overlap(self, other: "RangeRef") -> "RangeRef | None":
        """The shared rectangle of two ranges, or None when disjoint."""
        c1 = max(self.start.col, other.start.col)
        c2 = min(self.end.col, other.end.col)
        r1 = max(self.start.row, other.start.row)
        r2 = min(self.end.row, other.end.row)
        if c1 > c2 or r1 > r2:
            return None
        return RangeRef(CellRef(c1, r1), CellRef(c2, r2))

    def __str__(self) -> str:
        return f"{self.start}:{self.end}"


@dataclass(frozen=True)
class NormRef:
    """A reference rewritten relative to its host cell.

    A relative axis holds the signed offset from the host; an absolute
    axis keeps the original coordinate together with its marker.  Two
    formulas are copies of each other exactly when their trees agree
    under this rewriting.
    """

    col: int
    row: int
    col_absolute: bool = False
    row_absolute: bool = False

    def __str__(self) -> str:
        c = f"${column_letters(self.col)}" if self.col_absolute else f"[{self.col:+d}]"
        r = f"${self.row}" if self.row_absolute else f"[{self.row:+d}]"
        return c + r


@dataclass(frozen=True)
class NormRange:
    start: NormRef
    end: NormRef

    def __str__(self) -> str:
        return f"{self.start}:{self.end}"


# ---------------------------------------------------------------------------
# Formula trees


@dataclass(frozen=True)
class NumberLiteral:
    value: float


@dataclass(frozen=True)
class Reference:
    ref: Union[CellRef, NormRef]


@dataclass(frozen=True)
class RangeArg:
    rng: Union[RangeRef, NormRange]


@dataclass(frozen=True)
class Negate:
    child: "FormulaNode"


@dataclass(frozen=True)
class BinaryOp:
    op: str
    left: "FormulaNode"
    right: "FormulaNode"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple["FormulaNode", ...]


FormulaNode = Union[NumberLiteral, Reference, RangeArg, Negate, BinaryOp, Call]

Skeleton = tuple


def iter_nodes(node: FormulaNode) -> Iterator[FormulaNode]:
    """Walk a tree top-down, children left to right."""
    yield node
    if isinstance(node, Negate):
        yield from iter_nodes(node.child)
    elif isinstance(node, BinaryOp):
        yield from iter_nodes(node.left)
        yield from iter_nodes(node.right)
    elif isinstance(node, Call):
        for arg in node.args:
            yield from iter_nodes(arg)


# ---------------------------------------------------------------------------
# Lexer


@dataclass(frozen=True)
class _Token:
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


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self, offset: int = 0) -> _Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def at_symbol(self, *chars: str) -> bool:
        tok = self.peek()
        return tok.kind == "symbol" and tok.text in chars

    def expect_symbol(self, ch: str) -> _Token:
        tok = self.peek()
        if not self.at_symbol(ch):
            raise FormulaSyntaxError(f"expected {ch!r}, found {tok.text or 'end'!r}", tok.pos)
        return self.advance()

    def parse(self) -> FormulaNode:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise FormulaSyntaxError(f"unexpected {tok.text!r} after expression", tok.pos)
        return node

    def expr(self) -> FormulaNode:
        node = self.term()
        while self.at_symbol("+", "-"):
            op = self.advance().text
            node = BinaryOp(op, node, self.term())
        return node

    def term(self) -> FormulaNode:
        node = self.factor()
        while self.at_symbol("*", "/"):
            op = self.advance().text
            node = BinaryOp(op, node, self.factor())
        return node

    def factor(self) -> FormulaNode:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            value = float(tok.text)
            if not math.isfinite(value):
                raise FormulaSyntaxError(f"number out of range: {tok.text!r}", tok.pos)
            return NumberLiteral(value)
        if tok.kind == "ref":
            if self.peek(1).kind == "symbol" and self.peek(1).text == ":":
                raise RangeOutsideCall(
                    "ranges are only allowed as direct call arguments", self.peek(1).pos
                )
            self.advance()
            return Reference(self.cell_ref(tok))
        if tok.kind == "name":
            return self.call()
        if self.at_symbol("("):
            self.advance()
            node = self.expr()
            self.expect_symbol(")")
            return node
        if self.at_symbol("-"):
            self.advance()
            return Negate(self.factor())
        raise FormulaSyntaxError(f"expected a value, found {tok.text or 'end'!r}", tok.pos)

    def call(self) -> FormulaNode:
        tok = self.advance()
        name = tok.text.upper()
        if name not in GROUPING_FUNCTIONS:
            raise UnknownFunction(f"unknown function {tok.text!r}", tok.pos)
        self.expect_symbol("(")
        args = [self.arg()]
        while self.at_symbol(","):
            self.advance()
            args.append(self.arg())
        self.expect_symbol(")")
        return Call(name, tuple(args))

    def arg(self) -> FormulaNode:
        tok = self.peek()
        if (
            tok.kind == "ref"
            and self.peek(1).kind == "symbol"
            and self.peek(1).text == ":"
        ):
            first = self.cell_ref(self.advance())
            self.advance()  # the colon
            tok2 = self.peek()
            if tok2.kind != "ref":
                raise FormulaSyntaxError(
                    f"expected a cell after ':', found {tok2.text or 'end'!r}", tok2.pos
                )
            second = self.cell_ref(self.advance())
            return RangeArg(RangeRef.normalized(first, second))
        return self.expr()

    def cell_ref(self, tok: _Token) -> CellRef:
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


def parse_formula(text: str) -> FormulaNode:
    """Parse formula text into a tree.

    Raises FormulaSyntaxError, UnknownFunction, or RangeOutsideCall on
    bad input, and NoReference when the formula mentions no cell.
    """
    node = _Parser(text).parse()
    if not any(isinstance(n, (Reference, RangeArg)) for n in iter_nodes(node)):
        raise NoReference("formula references no cell")
    return node


# ---------------------------------------------------------------------------
# Rendering

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_UNARY = 3
_PREC_ATOM = 4


def format_number(value: float) -> str:
    """Shortest faithful spelling; integral values drop the point."""
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _precedence(node: FormulaNode) -> int:
    if isinstance(node, BinaryOp):
        return _PREC_ADD if node.op in "+-" else _PREC_MUL
    if isinstance(node, Negate):
        return _PREC_UNARY
    return _PREC_ATOM


def _render(node: FormulaNode) -> str:
    if isinstance(node, NumberLiteral):
        return format_number(node.value)
    if isinstance(node, Reference):
        return str(node.ref)
    if isinstance(node, RangeArg):
        return str(node.rng)
    if isinstance(node, Negate):
        child = _render(node.child)
        if _precedence(node.child) < _PREC_UNARY:
            child = f"({child})"
        return "-" + child
    if isinstance(node, BinaryOp):
        prec = _precedence(node)
        left = _render(node.left)
        if _precedence(node.left) < prec:
            left = f"({left})"
        right = _render(node.right)
        # Parenthesize an equal-precedence right operand so the tree
        # shape survives reparsing under left associativity.
        if _precedence(node.right) <= prec:
            right = f"({right})"
        return f"{left}{node.op}{right}"
    if isinstance(node, Call):
        return f"{node.name}({','.join(_render(a) for a in node.args)})"
    raise TypeError(f"not a formula node: {node!r}")


def render(node: FormulaNode) -> str:
    """Render a tree back to formula text.

    Parentheses are emitted only where the tree shape requires them, so
    parsing the result reproduces the tree.
    """
    return _render(node)


# ---------------------------------------------------------------------------
# Copy equivalence


def map_refs(
    node: FormulaNode,
    ref_fn: Callable[[CellRef], CellRef | NormRef],
    range_fn: Callable[[RangeRef], RangeRef | NormRange],
) -> FormulaNode:
    """Rebuild a tree with every reference rewritten.

    ``ref_fn`` maps the reference of each Reference leaf and
    ``range_fn`` the range of each RangeArg leaf; operators, calls, and
    literals keep their shape.
    """

    def walk(n: FormulaNode) -> FormulaNode:
        if isinstance(n, NumberLiteral):
            return n
        if isinstance(n, Reference):
            return Reference(ref_fn(n.ref))
        if isinstance(n, RangeArg):
            return RangeArg(range_fn(n.rng))
        if isinstance(n, Negate):
            return Negate(walk(n.child))
        if isinstance(n, BinaryOp):
            return BinaryOp(n.op, walk(n.left), walk(n.right))
        if isinstance(n, Call):
            return Call(n.name, tuple(walk(a) for a in n.args))
        raise TypeError(f"not a formula node: {n!r}")

    return walk(node)


def normalize(node: FormulaNode, origin: CellAddress) -> FormulaNode:
    """Rewrite references relative to the cell hosting the formula.

    Relative axes become signed offsets from ``origin``; absolute axes
    keep their coordinate and marker.  Copies of one formula pasted at
    different cells normalize to equal trees.
    """

    def norm_ref(ref: CellRef) -> NormRef:
        return NormRef(
            col=ref.col if ref.col_absolute else ref.col - origin.col,
            row=ref.row if ref.row_absolute else ref.row - origin.row,
            col_absolute=ref.col_absolute,
            row_absolute=ref.row_absolute,
        )

    return map_refs(
        node, norm_ref, lambda rng: NormRange(norm_ref(rng.start), norm_ref(rng.end))
    )


def translate(node: FormulaNode, dcol: int, drow: int) -> FormulaNode:
    """Shift every relative axis, as copy-paste would.

    Raises ValueError when a shifted reference would leave the sheet.
    """

    def move(ref: CellRef) -> CellRef:
        return CellRef(
            col=ref.col if ref.col_absolute else ref.col + dcol,
            row=ref.row if ref.row_absolute else ref.row + drow,
            col_absolute=ref.col_absolute,
            row_absolute=ref.row_absolute,
        )

    return map_refs(
        node, move, lambda rng: RangeRef.normalized(move(rng.start), move(rng.end))
    )


def skeleton(node: FormulaNode) -> Skeleton:
    """Shape-only fingerprint: coordinates, markers, and literal values
    are erased; operators, function names, and arity remain."""
    if isinstance(node, NumberLiteral):
        return ("num",)
    if isinstance(node, Reference):
        return ("ref",)
    if isinstance(node, RangeArg):
        return ("range",)
    if isinstance(node, Negate):
        return ("neg", skeleton(node.child))
    if isinstance(node, BinaryOp):
        return ("bin", node.op, skeleton(node.left), skeleton(node.right))
    if isinstance(node, Call):
        return ("call", node.name, tuple(skeleton(a) for a in node.args))
    raise TypeError(f"not a formula node: {node!r}")
