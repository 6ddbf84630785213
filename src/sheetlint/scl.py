"""Core cell language: addresses, references, and the formula grammar,
with ``SheetLintError``, the base of every error the package raises.

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
Whitespace between tokens carries no meaning.  Digits, in numbers and
references alike, are the ASCII digits 0-9.
"""

from __future__ import annotations

import functools
import math
import re
from collections import namedtuple
from operator import attrgetter, itemgetter
from typing import Callable, Iterator, Union


class SheetLintError(Exception):
    """Base class for every error raised by sheetlint."""


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
# Value types


# Another tuple gets a definite answer: handed NotImplemented, it would
# compare field by field itself.
def _same_type_eq(self, other):
    if type(other) is type(self):
        return tuple.__eq__(self, other)
    return False if isinstance(other, tuple) else NotImplemented


def _same_type_ne(self, other):
    if type(other) is type(self):
        return tuple.__ne__(self, other)
    return True if isinstance(other, tuple) else NotImplemented


def _make(cls, iterable):
    return cls(*iterable)


def value_type(typename: str, field_names: str, defaults: tuple = ()) -> type:
    """The base of an immutable value type: a named tuple compared by type.

    Fields are read by name and hashing is tuple hashing, in C, so the
    hash of a value is the hash of the tuple of its fields.  Equality
    holds only between values of one type: ``Constant(3.0)`` and
    ``Input(3.0)`` are both ``(3.0,)`` underneath but differ.
    ``_make`` and ``_replace`` build through the subclass, so the checks
    in its ``__new__`` still apply.  Each subclass declares
    ``__slots__ = ()`` to stay free of an instance dict.
    """
    base = namedtuple(typename, field_names, defaults=defaults)
    base.__eq__ = _same_type_eq
    base.__ne__ = _same_type_ne
    base.__hash__ = tuple.__hash__
    base._make = classmethod(_make)
    return base


# ---------------------------------------------------------------------------
# Addresses and references


@functools.lru_cache(maxsize=4096)
def column_letters(col: int) -> str:
    """Spell a 1-based column number in letters (1 -> A, 27 -> AA).

    Memoized, as every address and range spelled in a report comes
    through here; a bad column raises each time, since errors are not
    cached.
    """
    if col < 1:
        raise ValueError(f"column numbers start at 1, got {col}")
    out = []
    while col:
        col, rem = divmod(col - 1, 26)
        out.append(chr(ord("A") + rem))
    return "".join(reversed(out))


@functools.lru_cache(maxsize=4096)
def column_number(letters: str) -> int:
    """Decode a column spelled in letters back to its 1-based number.

    Memoized, as every address and reference read from a file comes
    through here; a bad letter raises each time.
    """
    n = 0
    for ch in letters.upper():
        if not "A" <= ch <= "Z":
            raise ValueError(f"bad column letter {ch!r}")
        n = n * 26 + (ord(ch) - ord("A") + 1)
    return n


class CellAddress(namedtuple("CellAddress", "col row")):
    """Absolute position of one cell; columns and rows start at 1.

    A tuple underneath, so the hashing and equality behind every
    address-keyed map run in C.  The hash is ``hash((col, row))``.
    Unlike the value types below, an address also equals the plain
    ``(col, row)`` tuple.
    """

    __slots__ = ()

    def __new__(cls, col: int, row: int) -> "CellAddress":
        if col < 1 or row < 1:
            raise ValueError(f"cell coordinates start at 1, got ({col}, {row})")
        return tuple.__new__(cls, (col, row))

    def __str__(self) -> str:
        return column_letters(self.col) + str(self.row)


# Sort key that orders addresses by row, then by column: an address's
# (row, col), read in C.
row_major: Callable[[CellAddress], tuple[int, int]] = itemgetter(1, 0)


# The unsigned number and the address that formulas, the .sheet format
# and the .intervals format all spell.  Digits are ASCII only: \d would
# also take the digits of other scripts.
_UNSIGNED = r"(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)(?:[eE][+-]?[0-9]+)?"
_ADDRESS = r"([A-Za-z]+)([0-9]+)"

_ADDRESS_RE = re.compile(rf"{_ADDRESS}\Z")


def parse_address(text: str) -> CellAddress:
    """Parse an A1-style address.

    Raises MalformedAddress unless the text is letters followed by
    digits naming a cell at column and row 1 or beyond.
    """
    m = _ADDRESS_RE.match(text)
    if m is None:
        raise MalformedAddress(f"not a cell address: {text!r}")
    letters, digits = m.groups()
    try:
        row = int(digits)
    except ValueError:  # more digits than ``int`` reads from a string
        raise MalformedAddress(f"row number too long: {len(digits)} digits") from None
    if row < 1:
        raise MalformedAddress(f"row numbers start at 1: {text!r}")
    # Letters decode to a column of 1 or more, so no check is left.
    return tuple.__new__(CellAddress, (column_number(letters), row))


class CellRef(value_type("CellRef", "col row col_absolute row_absolute", (False, False))):
    """A reference as written in a formula.

    Each axis is independently relative or absolute; a '$' before the
    letters pins the column, one before the digits pins the row.
    """

    __slots__ = ()
    col: int
    row: int
    col_absolute: bool
    row_absolute: bool

    def __new__(
        cls, col: int, row: int, col_absolute: bool = False, row_absolute: bool = False
    ) -> "CellRef":
        if col < 1 or row < 1:
            raise ValueError(f"cell coordinates start at 1, got ({col}, {row})")
        return tuple.__new__(cls, (col, row, col_absolute, row_absolute))

    def address(self) -> CellAddress:
        return CellAddress(self.col, self.row)

    def __str__(self) -> str:
        return "%s%s%s%s" % (
            "$" if self.col_absolute else "",
            column_letters(self.col),
            "$" if self.row_absolute else "",
            self.row,
        )


class RangeRef(value_type("RangeRef", "start end")):
    """A rectangle of cells, normalized so start is top-left."""

    __slots__ = ()
    start: CellRef
    end: CellRef

    def __new__(cls, start: CellRef, end: CellRef) -> "RangeRef":
        if start.col > end.col or start.row > end.row:
            raise ValueError(f"range corners out of order: {start}:{end}")
        return tuple.__new__(cls, (start, end))

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

    def cells(self) -> Iterator[CellAddress]:
        """All covered addresses in row-major order."""
        for row in range(self.start.row, self.end.row + 1):
            for col in range(self.start.col, self.end.col + 1):
                yield CellAddress(col, row)

    def __str__(self) -> str:
        return f"{self.start}:{self.end}"


def rect_key(node: CellAddress | RangeRef) -> tuple[int, ...]:
    """Sort key that orders cells and rectangles row-major by their
    top-left cell, and a cell before the rectangles that start there,
    a shorter rectangle before a longer one.  ``row_major`` would read
    a rectangle's two corners as its row and column."""
    if type(node) is RangeRef:
        start, end = node
        return start[1], start[0], end[1], end[0]
    return node[1], node[0]


class NormRef(value_type("NormRef", "col row col_absolute row_absolute", (False, False))):
    """A reference rewritten relative to its host cell.

    A relative axis holds the signed offset from the host; an absolute
    axis keeps the original coordinate together with its marker.  Two
    formulas are copies of each other exactly when their trees agree
    under this rewriting.
    """

    __slots__ = ()
    col: int
    row: int
    col_absolute: bool
    row_absolute: bool


class NormRange(value_type("NormRange", "start end")):
    __slots__ = ()
    start: NormRef
    end: NormRef


# ---------------------------------------------------------------------------
# Formula trees



class NumberLiteral(value_type("NumberLiteral", "value")):
    __slots__ = ()
    value: float


class Reference(value_type("Reference", "ref")):
    __slots__ = ()
    ref: Union[CellRef, NormRef]


class RangeArg(value_type("RangeArg", "rng")):
    __slots__ = ()
    rng: Union[RangeRef, NormRange]


class Negate(value_type("Negate", "child")):
    __slots__ = ()
    child: "FormulaNode"


class BinaryOp(value_type("BinaryOp", "op left right")):
    __slots__ = ()
    op: str
    left: "FormulaNode"
    right: "FormulaNode"


class Call(value_type("Call", "name args")):
    __slots__ = ()
    name: str
    args: tuple["FormulaNode", ...]


FormulaNode = Union[NumberLiteral, Reference, RangeArg, Negate, BinaryOp, Call]

# A tree listed top-down, one item per node.  An inner node is a token
# that fixes its arity: the operator, "neg", or (name, arity).  So a
# key spells exactly one tree, and keys compare item by item.
Skeleton = tuple
CopyKey = tuple

_LEAF_TOKENS = {NumberLiteral: "num", Reference: "ref", RangeArg: "range"}
# Each inner node type's children as a tuple, read in C.
_CHILDREN = {
    BinaryOp: attrgetter("left", "right"),
    Negate: tuple,  # the 1-tuple of its child
    Call: attrgetter("args"),
}


def iter_nodes(node: FormulaNode) -> Iterator[FormulaNode]:
    """Walk a tree top-down, children left to right, at any depth."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        children = _CHILDREN.get(type(node))
        if children:
            stack.extend(reversed(children(node)))


def fold(node: FormulaNode, fn: Callable[[FormulaNode, list], object]):
    """Combine a tree bottom-up, at any depth.

    ``fn(n, results)`` runs once per node, children before parents and
    left to right; ``results`` holds what it returned for n's children
    (empty for a leaf).  Returns the root's result.
    """
    children = _CHILDREN.get(type(node))
    if children is None:
        return fn(node, ())
    # One frame per inner node on the path from the root: the node, an
    # iterator over its children, and the results of those done so far.
    frames = [(node, iter(children(node)), [])]
    while True:
        node, children, done = frames[-1]
        for child in children:
            grandchildren = _CHILDREN.get(type(child))
            if grandchildren:
                frames.append((child, iter(grandchildren(child)), []))
                break
            done.append(fn(child, ()))
        else:
            frames.pop()
            result = fn(node, done)
            if not frames:
                return result
            frames[-1][2].append(result)


def _listing(node: FormulaNode, leaf: Callable | None = None) -> tuple:
    """The tree top-down: inner nodes as tokens, each leaf as it is or
    as ``leaf`` maps it."""
    items = []
    stack = [node]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is BinaryOp:
            items.append(node.op)
            stack += (node.right, node.left)
        elif kind is Negate:
            items.append("neg")
            stack.append(node.child)
        elif kind is Call:
            items.append((node.name, len(node.args)))
            stack += reversed(node.args)
        else:
            items.append(leaf(node) if leaf else node)
    return tuple(items)


# Equality of inner nodes compares flat listings, as tuple equality
# would take one frame per level.  Hashing stays tuple hashing, in C.
def _tree_eq(self, other):
    if type(other) is type(self):
        return self is other or _listing(self) == _listing(other)
    return False if isinstance(other, tuple) else NotImplemented


def _tree_ne(self, other):
    equal = _tree_eq(self, other)
    return equal if equal is NotImplemented else not equal


def _repr(node: FormulaNode, children: list) -> str:
    kind = type(node)
    if kind is BinaryOp:
        return f"BinaryOp(op={node.op!r}, left={children[0]}, right={children[1]})"
    if kind is Negate:
        return f"Negate(child={children[0]})"
    if kind is Call:
        args = ", ".join(children) + ("," if len(children) == 1 else "")
        return f"Call(name={node.name!r}, args=({args}))"
    return repr(node)


# The named tuple's repr takes one frame per level; this one folds.
def _tree_repr(self) -> str:
    return fold(self, _repr)


# Pickle and deepcopy take one frame per level of what a value's
# reduction hands them, so a tree reduces to its flat listing.
def _tree_reduce(self) -> tuple:
    return _rebuild, (_listing(self),)


def _rebuild(listing: tuple) -> FormulaNode:
    """The tree a ``_listing`` spells."""
    return _put_in(listing, [])


def _put_in(listing: tuple, refs: list[CellRef]) -> FormulaNode | None:
    """The tree a listing spells, read from the end: each inner token
    finds its children built on top of the stack, first child topmost.
    A slot, the type Reference or RangeArg where a leaf would be, takes
    its references from the end of ``refs``.  None when a range put in
    has its corners out of order.  Nodes are built in C, as their parts
    are already checked."""
    new = tuple.__new__
    built = []
    push = built.append
    pop = built.pop
    take = refs.pop
    for item in reversed(listing):
        if item is Reference:
            push(new(Reference, (take(),)))
        elif item is RangeArg:
            end = take()
            start = take()
            if start[0] > end[0] or start[1] > end[1]:
                return None
            push(new(RangeArg, (new(RangeRef, (start, end)),)))
        elif type(item) is str:
            first = pop()
            push(new(Negate, (first,)) if item == "neg" else new(BinaryOp, (item, first, pop())))
        elif type(item) is tuple:
            name, arity = item
            push(new(Call, (name, tuple([pop() for _ in range(arity)]))))
        else:
            push(item)
    return built[0]


for _inner in (Negate, BinaryOp, Call):
    _inner.__eq__ = _tree_eq
    _inner.__ne__ = _tree_ne
    _inner.__repr__ = _tree_repr
    _inner.__reduce__ = _tree_reduce


# ---------------------------------------------------------------------------
# Lexer

# A reference: its column marker, letters, row marker and digits, one
# group each.  The lexer's "ref" token and the copy-class reader's split
# both read references with it.
_REF = r"(\$?)([A-Za-z]+)(\$?)([0-9]+)"

# One token after any whitespace (\s, which agrees with str.isspace).
# A reference's four parts are groups 3 to 6.
_TOKEN_RE = re.compile(
    rf"""\s*(?:
      (?P<number>{_UNSIGNED})
    | (?P<ref>{_REF})
    | (?P<name>[A-Za-z]+)
    | (?P<symbol>[-+*/(),:])
    | (?P<end>\Z)
    )""",
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple]:
    """The formula's tokens as ``(kind, text, pos, ref)``, the last of
    kind "end" at the text's length.  ``ref`` is a "ref" token's
    CellRef; for a row of 0 it is None, and for a row of more digits
    than ``int`` reads from a string, the number of digits.  The parser
    raises either error where it takes the reference, so an error met
    earlier in the formula is the one reported."""
    tokens = []
    match = _TOKEN_RE.match
    i = 0
    while True:
        m = match(text, i)
        if m is None:
            i = len(text) - len(text[i:].lstrip())
            raise FormulaSyntaxError(f"unexpected character {text[i]!r}", position=i)
        kind = m.lastgroup
        pos, i = m.span(kind)
        ref = None
        if kind == "ref":
            col_mark, letters, row_mark, digits = m.group(3, 4, 5, 6)
            try:
                row = int(digits)
            except ValueError:
                ref = len(digits)
            else:
                if row >= 1:  # letters decode to a column of 1 or more
                    ref = tuple.__new__(
                        CellRef, (column_number(letters), row, col_mark == "$", row_mark == "$")
                    )
        tokens.append((kind, text[pos:i], pos, ref))
        if kind == "end":
            return tokens


# ---------------------------------------------------------------------------
# Parser

_BINARY_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}
# Pending entries of the operator stack.  '(' ranks below every
# operator, so reducing never passes it; open calls are lists.
_STACKED_PRECEDENCE = {**_BINARY_PRECEDENCE, "neg": 3, "(": 0}


def _found(tok: tuple) -> str:
    return repr(tok[1] or "end")


def _taken(tok: tuple) -> CellRef:
    """A "ref" token's reference, or its row's error, once the parser
    takes it."""
    ref = tok[3]
    if ref is None:
        raise FormulaSyntaxError(f"row numbers start at 1: {tok[1]!r}", tok[2])
    if type(ref) is int:
        raise FormulaSyntaxError(f"row number too long: {ref} digits", tok[2])
    return ref


def _reduce(ops: list, out: list, floor: int) -> None:
    """Apply the pending operators that bind at least as tight as floor."""
    while type(ops[-1]) is str and _STACKED_PRECEDENCE[ops[-1]] >= floor:
        op = ops.pop()
        if op == "neg":
            out[-1] = Negate(out[-1])
        else:
            right = out.pop()
            out[-1] = BinaryOp(op, out[-1], right)


def parse_formula(text: str) -> FormulaNode:
    """Parse formula text into a tree.

    Raises FormulaSyntaxError, UnknownFunction, or RangeOutsideCall on
    bad input, and NoReference when the formula mentions no cell.
    """
    tokens = _tokenize(text)
    # Operator precedence over two stacks.  ``ops`` holds pending binary
    # operators, "neg", "(" and open calls as [name, argc], over a None
    # that stands for the top level.
    out: list[FormulaNode] = []
    ops: list = [None]
    at_arg = False  # the operand starts a call argument: a range may stand here
    referenced = False
    i = 0
    while True:
        tok = tokens[i]
        kind, word, pos, _ = tok
        i += 1
        if kind == "name":
            name = word.upper()
            if name not in GROUPING_FUNCTIONS:
                raise UnknownFunction(f"unknown function {word!r}", pos)
            tok = tokens[i]
            if tok[1] != "(":
                raise FormulaSyntaxError(f"expected '(', found {_found(tok)}", tok[2])
            i += 1
            ops.append([name, 1])
            at_arg = True
            continue
        if word == "(" or word == "-":
            ops.append("neg" if word == "-" else "(")
            at_arg = False
            continue
        if kind == "number":
            value = float(word)
            if not math.isfinite(value):
                raise FormulaSyntaxError(f"number out of range: {word!r}", pos)
            out.append(NumberLiteral(value))
        elif kind != "ref":
            raise FormulaSyntaxError(f"expected a value, found {_found(tok)}", pos)
        elif tokens[i][1] != ":":
            out.append(Reference(_taken(tok)))
            referenced = True
        elif not at_arg:
            raise RangeOutsideCall(
                "ranges are only allowed as direct call arguments", tokens[i][2]
            )
        else:
            first, tok = _taken(tok), tokens[i + 1]
            if tok[0] != "ref":
                raise FormulaSyntaxError(
                    f"expected a cell after ':', found {_found(tok)}", tok[2]
                )
            out.append(RangeArg(RangeRef.normalized(first, _taken(tok))))
            referenced = True
            i += 2
            tok = tokens[i]
            if tok[1] != "," and tok[1] != ")":
                raise FormulaSyntaxError(f"expected ')', found {_found(tok)}", tok[2])

        # After an operand: binary operators, and closers or commas.
        while True:
            tok = tokens[i]
            word = tok[1]
            i += 1
            precedence = _BINARY_PRECEDENCE.get(word)
            if precedence is not None:
                _reduce(ops, out, precedence)
                ops.append(word)
                at_arg = False
                break
            _reduce(ops, out, 1)
            opener = ops[-1]
            if opener is None:
                if tok[0] != "end":
                    raise FormulaSyntaxError(f"unexpected {word!r} after expression", tok[2])
                if not referenced:
                    raise NoReference("formula references no cell")
                return out[0]
            if word == ")":
                ops.pop()
                if opener != "(":
                    name, argc = opener
                    out[-argc:] = [Call(name, tuple(out[-argc:]))]
            elif word == "," and opener != "(":
                opener[1] += 1
                at_arg = True
                break
            else:
                raise FormulaSyntaxError(f"expected ')', found {_found(tok)}", tok[2])


class CopyClassReader:
    """Parses the formulas of one sheet once per copy class.

    A body splits at its references, read with the lexer's own pattern,
    into literal text and references.  Bodies that agree in their
    literal text and in each reference's markers and coordinates, a
    relative axis counted from the host cell and an absolute one as
    written, form a copy class: copies of one formula, spelled alike.
    The first body of a class is parsed in full.  Each later one gets
    that tree with its own references put in, so every member has the
    same copy key and skeleton.

    A body is parsed in full, and forms a class of its own, wherever
    sharing is not known to be safe, so each tree and each error is
    the one ``parse_formula`` gives:
    - its tree does not hold exactly the split's references, in source
      order (the split passes over a reference right after a digit or
      ``.``, as the lexer takes the ``E5`` of ``1E5+A1`` into the
      number; should the two still disagree, the parse decides); a
      later body of the key is then tried as the first of its class;
    - a row is 0, or has more digits than ``int`` reads;
    - a range's corners, once put in, are out of order, where the
      parser would swap them.
    """

    def __init__(self) -> None:
        # Compiled through re's cache, so only the first reader pays.
        # A reference right after a digit or '.' is skipped: the lexer
        # reads the E5 of 1E5 as the number's exponent.
        self._split = re.compile(r"(?<![0-9.])" + _REF).split
        # Split key -> the class's first host and its tree's template.
        self._classes: dict[tuple, tuple[CellAddress, tuple]] = {}

    def read(self, text: str, host: CellAddress) -> tuple[FormulaNode, CellAddress]:
        """The tree of formula ``text`` hosted at ``host``, and the host
        of the first formula read in its class: ``host`` itself, unless
        the tree is shared.  Raises as ``parse_formula`` does."""
        # Per reference: marker, letters, marker, digits, then the
        # literal text up to the next reference.  The letters and digits
        # are overwritten with the coordinates the key holds.
        parts = self._split(text)
        hcol, hrow = host
        refs = []
        new = tuple.__new__
        for i in range(1, len(parts), 5):
            col_mark, letters, row_mark, digits = parts[i : i + 4]
            try:
                row = int(digits)
            except ValueError:
                row = 0
            if row < 1:
                return parse_formula(text), host
            col = column_number(letters)
            refs.append(new(CellRef, (col, row, col_mark == "$", row_mark == "$")))
            parts[i + 1] = col if col_mark else col - hcol
            parts[i + 3] = row if row_mark else row - hrow
        key = tuple(parts)
        known = self._classes.get(key)
        if known is not None:
            tree = _put_in(known[1], refs)
            return (tree, known[0]) if tree is not None else (parse_formula(text), host)
        tree = parse_formula(text)
        slotted, held = _template(tree)
        if held == refs:
            self._classes[key] = host, slotted
        return tree, host


def _template(tree: FormulaNode) -> tuple[tuple, list[CellRef]]:
    """A tree's listing with each Reference leaf replaced by the type
    Reference and each RangeArg leaf by the type RangeArg, the slots
    ``_put_in`` fills; and the references the tree holds there, in
    source order."""
    held: list[CellRef] = []

    def slot(leaf: FormulaNode):
        kind = type(leaf)
        if kind is Reference:
            held.append(leaf.ref)
        elif kind is RangeArg:
            held.extend(leaf.rng)
        else:
            return leaf
        return kind

    return _listing(tree, slot), held


# ---------------------------------------------------------------------------
# Rendering

# Above every operator the parser ranks, so an atom is never bracketed.
_PREC_ATOM = 4


def format_number(value: float) -> str:
    """Shortest faithful spelling; integral values drop the point."""
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _render(node: FormulaNode, children: list) -> tuple[str, int]:
    """One node's text and precedence, from its children's."""
    kind = type(node)
    if kind is NumberLiteral:
        return format_number(node.value), _PREC_ATOM
    if kind is Reference:
        return str(node.ref), _PREC_ATOM
    if kind is RangeArg:
        return str(node.rng), _PREC_ATOM
    if kind is Negate:
        ((child, prec),) = children
        neg = _STACKED_PRECEDENCE["neg"]
        return "-" + (f"({child})" if prec < neg else child), neg
    if kind is BinaryOp:
        (left, left_prec), (right, right_prec) = children
        prec = _BINARY_PRECEDENCE[node.op]
        if left_prec < prec:
            left = f"({left})"
        # Parenthesize an equal-precedence right operand so the tree
        # shape survives reparsing under left associativity.
        if right_prec <= prec:
            right = f"({right})"
        return f"{left}{node.op}{right}", prec
    if kind is Call:
        return f"{node.name}({','.join(text for text, _ in children)})", _PREC_ATOM
    raise TypeError(f"not a formula node: {node!r}")


def render(node: FormulaNode) -> str:
    """Render a tree back to formula text.

    Parentheses are emitted only where the tree shape requires them, so
    parsing the result reproduces the tree.
    """
    return fold(node, _render)[0]


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
    literals keep their shape.  The new tree is built from the listing,
    as ``normalize`` builds; any other leaf raises TypeError.
    """

    def leaf(n: FormulaNode) -> FormulaNode:
        kind = type(n)
        if kind is Reference:
            return Reference(ref_fn(n.ref))
        if kind is RangeArg:
            return RangeArg(range_fn(n.rng))
        if kind is NumberLiteral:
            return n
        raise TypeError(f"not a formula node: {n!r}")

    return _rebuild(_listing(node, leaf))


def normalize(node: FormulaNode, origin: CellAddress) -> FormulaNode:
    """Rewrite references relative to the cell hosting the formula.

    Relative axes become signed offsets from ``origin``; absolute axes
    keep their coordinate and marker.  Copies of one formula pasted at
    different cells normalize to equal trees: the tree ``copy_key``
    spells.
    """
    return _rebuild(copy_key(node, origin))


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


def copy_key(node: FormulaNode, origin: CellAddress) -> CopyKey:
    """The tree listed top-down, inner nodes as tokens, with each leaf
    as ``normalize`` rewrites it: a reference's relative axes as offsets
    from ``origin``.  Copies of one formula have equal keys.  Leaves are
    rewritten as they are listed, with no tree built in between.
    """
    ocol, orow = origin

    def norm_ref(ref: CellRef) -> NormRef:
        col, row, col_absolute, row_absolute = ref
        return tuple.__new__(NormRef, (
            col if col_absolute else col - ocol,
            row if row_absolute else row - orow,
            col_absolute,
            row_absolute,
        ))

    def norm_leaf(leaf: FormulaNode) -> FormulaNode:
        kind = type(leaf)
        if kind is Reference:
            return tuple.__new__(Reference, (norm_ref(leaf.ref),))
        if kind is RangeArg:
            start, end = leaf.rng
            rng = tuple.__new__(NormRange, (norm_ref(start), norm_ref(end)))
            return tuple.__new__(RangeArg, (rng,))
        return leaf

    return _listing(node, norm_leaf)


def skeleton(node: FormulaNode) -> Skeleton:
    """Shape-only fingerprint, listed top-down: coordinates, markers,
    and literal values are erased to "num", "ref" and "range";
    operators, function names, and arity remain."""
    return _listing(node, lambda leaf: _LEAF_TOKENS[type(leaf)])
