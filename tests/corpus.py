"""Seeded random program generator for property and acceptance tests.

Programs are built in layers so they are acyclic by construction: a
data block of constants, inputs, labels, and gaps; a first tier of
formulas reading only the data block; a second tier reading only
earlier tiers.  Divisions always see divisors bounded away from zero,
so the only faults a generated program can produce are the deliberate
blank and label encounters inside ranges.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from sheetlint.intervals import Interval, IntervalSpec
from sheetlint.model import SpreadsheetInstance, SpreadsheetProgram, instantiate, load_program
from sheetlint.scl import CellAddress, column_letters, parse_address

FUNCTIONS = ("SUM", "AVG", "MIN", "MAX", "COUNT")

DATA_COLS = 3
DATA_TOP = 2


@dataclass(frozen=True)
class CorpusProgram:
    seed: int
    program: SpreadsheetProgram
    input_ranges: dict
    text: str  # the .sheet text the program was loaded from

    def spec(self) -> IntervalSpec:
        return IntervalSpec(dict(self.input_ranges), {})

    def degenerate_spec(self) -> IntervalSpec:
        ranges = {
            addr: Interval.degenerate(self.program.content(addr).default)
            for addr in self.input_ranges
        }
        return IntervalSpec(ranges, {})


def _addr(col: int, row: int) -> CellAddress:
    return parse_address(f"{column_letters(col)}{row}")


def _number(rng: random.Random) -> float:
    return rng.randrange(-100, 400) / 2.0


def _ref_text(rng: random.Random, addr: CellAddress) -> str:
    col = column_letters(addr.col)
    cm = "$" if rng.random() < 0.2 else ""
    rm = "$" if rng.random() < 0.2 else ""
    return f"{cm}{col}{rm}{addr.row}"


class _Builder:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.lines: list[str] = []
        self.input_ranges: dict = {}
        self.numeric: list[CellAddress] = []
        self.positive: list[CellAddress] = []
        self.data_rows = self.rng.randrange(5, 9)
        self.kinds: dict[CellAddress, str] = {}

    def put(self, addr: CellAddress, text: str) -> None:
        self.lines.append(f"{addr} = {text}")

    def data_block(self) -> None:
        rng = self.rng
        for col in range(1, DATA_COLS + 1):
            for row in range(DATA_TOP, DATA_TOP + self.data_rows):
                addr = _addr(col, row)
                roll = rng.random()
                if roll < 0.12:
                    continue
                if roll < 0.22:
                    self.put(addr, f'"note {col}{row}"')
                    self.kinds[addr] = "label"
                    continue
                value = _number(rng)
                if rng.random() < 0.5:
                    self.put(addr, f"#{value}")
                else:
                    spread = rng.choice((0.0, 2.5, 10.0))
                    lo, hi = value - spread, value + spread
                    self.put(addr, f"?{value}")
                    self.input_ranges[addr] = Interval(lo, hi)
                self.kinds[addr] = "num"
                self.numeric.append(addr)
        # a guaranteed divisor pool, strictly positive
        row = DATA_TOP + self.data_rows
        for col in range(1, 3):
            addr = _addr(col, row)
            base = float(rng.randrange(1, 8))
            if rng.random() < 0.5:
                self.put(addr, f"#{base}")
            else:
                self.put(addr, f"?{base}")
                self.input_ranges[addr] = Interval(max(0.5, base - 0.5), base + 1.0)
            self.kinds[addr] = "num"
            self.numeric.append(addr)
            self.positive.append(addr)

    def data_range(self) -> str:
        rng = self.rng
        for _ in range(20):
            col = rng.randrange(1, DATA_COLS + 1)
            top = rng.randrange(DATA_TOP, DATA_TOP + self.data_rows - 2)
            height = rng.randrange(2, min(5, DATA_TOP + self.data_rows - top) + 1)
            cells = [_addr(col, top + k) for k in range(height)]
            if any(self.kinds.get(a) == "num" for a in cells):
                return f"{cells[0]}:{cells[-1]}"
        # fall back to the divisor pool row, always numeric
        row = DATA_TOP + self.data_rows
        return f"A{row}:B{row}"

    def scalar_expr(self, depth: int = 0) -> str:
        rng = self.rng
        roll = rng.random()
        if depth >= 2 or roll < 0.35:
            if rng.random() < 0.6 and self.numeric:
                return _ref_text(rng, rng.choice(self.numeric))
            value = _number(rng)
            return f"({value})" if value < 0 else f"{value}"
        if roll < 0.45:
            return f"-{self.scalar_expr(2)}"
        op = rng.choice("+-*/")
        left = self.scalar_expr(depth + 1)
        if op == "/":
            if self.positive and rng.random() < 0.5:
                right = _ref_text(rng, rng.choice(self.positive))
            else:
                right = str(float(rng.randrange(1, 5)))
        else:
            right = self.scalar_expr(depth + 1)
        if rng.random() < 0.3:
            return f"({left}{op}{right})"
        return f"{left}{op}{right}"

    def referencing_expr(self) -> str:
        # every formula must touch at least one cell
        for _ in range(10):
            text = self.scalar_expr()
            if re.search(r"[A-Z]+\$?\d", text):
                return text
        return _ref_text(self.rng, self.rng.choice(self.numeric))

    def tier_one(self) -> list[CellAddress]:
        rng = self.rng
        hosts = []
        col = DATA_COLS + 2
        for row in range(DATA_TOP, DATA_TOP + self.data_rows):
            if rng.random() < 0.3:
                continue
            addr = _addr(col, row)
            if rng.random() < 0.5:
                fn = rng.choice(FUNCTIONS)
                args = [self.data_range()]
                if rng.random() < 0.3:
                    args.append(self.scalar_expr(1))
                self.put(addr, f"={fn}({','.join(args)})")
            else:
                self.put(addr, f"={self.referencing_expr()}")
            hosts.append(addr)
        return hosts

    def tier_two(self, tier_one: list[CellAddress]) -> None:
        rng = self.rng
        if not tier_one:
            return
        col = DATA_COLS + 3
        for row in range(DATA_TOP, DATA_TOP + rng.randrange(1, 4)):
            addr = _addr(col, row)
            kind = rng.random()
            if kind < 0.3 and len(tier_one) >= 2:
                lo = min(tier_one, key=lambda a: a.row)
                hi = max(tier_one, key=lambda a: a.row)
                fn = rng.choice(FUNCTIONS)
                self.put(addr, f"={fn}({lo}:{hi})")
            elif kind < 0.7:
                a, b = rng.choice(tier_one), rng.choice(tier_one)
                op = rng.choice("+-*")
                self.put(addr, f"={a}{op}{b}")
            else:
                a = rng.choice(tier_one)
                self.put(addr, f"={a}/{float(rng.randrange(2, 6))}")

    def build(self, seed: int) -> CorpusProgram:
        self.data_block()
        self.tier_two(self.tier_one())
        text = "\n".join(self.lines) + "\n"
        return CorpusProgram(seed, load_program(text), self.input_ranges, text)


def make_program(seed: int) -> CorpusProgram:
    return _Builder(seed).build(seed)


def corpus(count: int, base_seed: int = 7000) -> list[CorpusProgram]:
    return [make_program(base_seed + k) for k in range(count)]


def sample_instance(cp: CorpusProgram, rng: random.Random) -> SpreadsheetInstance:
    bindings = {
        addr: rng.uniform(box.lo, box.hi) for addr, box in cp.input_ranges.items()
    }
    return instantiate(cp.program, bindings)
