"""Seeded sheet generators with independently computed answers.

Each shape writes a `.sheet` and an `.intervals` file and, on the side,
everything the output checks need: the value of every formula cell,
the verdict every formula cell must get from `sheetlint test`, the
faults it planted as (code, cell) pairs, the number of range arguments
it wrote and the non-empty cells.  The answers come from plain integer
arithmetic over the generated data, never from sheetlint itself, so a
wrong result from the program shows as a failed check.

All data are small integers, so every sum and product the program
computes in floating point is exact and values compare with `==`.
The seed picks data values, interval widths, planted rows and planted
verdicts; it never changes the size or layout, so run time does not
depend on the seed.  No formula has more than three terms, far below
the depth at which the formula parser runs out of recursion.

Why these three shapes:

  ledger   many cells, few ranges: cost is linear in cells and is spent
           in parse, graph, evaluation, logical areas and D5/D6; the D4
           pair loop is idle (3 ranges).
  running  running totals B_r = SUM(A$2:A_r): covered range cells grow
           as n^2/2 and every pair of ranges overlaps, so range
           expansion in graph, evaluation and D1-D4 dominates.
  blocks   many disjoint block subtotals: D4 tests A^2/2 pairs with
           almost no hits, and `test` judges every subtotal with
           suspect search on the symptomatic ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# Rows of data per shape.  Chosen so that one command runs for a few
# tenths of a second, which gives enough samples in one run.
SIZES = {"ledger": 2000, "running": 150, "blocks": 300}
SHAPES = tuple(SIZES)

NO_SYMPTOM = "no_symptom"
VALUE_OUTSIDE = "value_outside"
MODEL_MISMATCH = "model_mismatch"
BOTH = "both"
NOT_JUDGED = "not_judged"


@dataclass
class Workload:
    """Generated files plus the answers the checks compare against."""

    shape: str
    seed: int
    size: int
    lines: list[str] = field(default_factory=list)
    spec_lines: list[str] = field(default_factory=list)
    # formula cell -> concrete value (integers, exact in floats)
    values: dict[str, int | float] = field(default_factory=dict)
    # formula cell -> expected verdict, NOT_JUDGED when no expectation
    verdicts: dict[str, str] = field(default_factory=dict)
    planted: list[tuple[str, str]] = field(default_factory=list)
    range_args: int = 0
    nonempty: list[str] = field(default_factory=list)
    # numeric cell -> interval bound [lo, hi], used to build expectations
    bounds: dict[str, tuple[int, int]] = field(default_factory=dict)

    @property
    def sheet_text(self) -> str:
        return "\n".join(self.lines) + "\n"

    @property
    def intervals_text(self) -> str:
        return "\n".join(self.spec_lines) + "\n"

    @property
    def symptoms(self) -> int:
        return sum(v not in (NO_SYMPTOM, NOT_JUDGED) for v in self.verdicts.values())

    def cell(self, addr: str, text: str) -> None:
        self.lines.append(f"{addr} = {text}")
        self.nonempty.append(addr)

    def label(self, addr: str, text: str) -> None:
        self.cell(addr, f'"{text}"')

    def constant(self, addr: str, value: int) -> None:
        self.cell(addr, f"#{value}")
        self.bounds[addr] = (value, value)

    def input(self, addr: str, rng: random.Random, lo_value: int, hi_value: int) -> int:
        """An input cell with a seeded default and a range around it."""
        value = rng.randint(lo_value, hi_value)
        width = rng.randint(1, 5)
        self.cell(addr, f"?{value}")
        self.spec_lines.append(f"input {addr} in [{value - width}, {value + width}]")
        self.bounds[addr] = (value - width, value + width)
        return value

    def formula(self, addr: str, text: str, value: int | float,
                bound: tuple[int, int] | None, ranges: int = 0) -> None:
        self.cell(addr, "=" + text)
        self.values[addr] = value
        self.verdicts[addr] = NOT_JUDGED
        if bound is not None:
            self.bounds[addr] = bound
        self.range_args += ranges

    def expect(self, addr: str, verdict: str, rng: random.Random) -> None:
        """Write an expectation that gives `addr` the wanted verdict.

        d is the cell's value and [lo, hi] its interval bound; the
        generators keep d strictly inside the bound, so each verdict
        can be reached.
        """
        d = self.values[addr]
        lo, hi = self.bounds[addr]
        assert lo < d < hi, (addr, lo, d, hi)
        if verdict == NO_SYMPTOM:
            e = (d - rng.randint(0, d - lo), d + rng.randint(0, hi - d))
        elif verdict == VALUE_OUTSIDE:
            e = (d + 1, hi)
        elif verdict == MODEL_MISMATCH:
            e = (lo - rng.randint(1, 10), d)
        else:
            e = (hi + 1, hi + rng.randint(1, 10))
        self.spec_lines.append(f"expect {addr} in [{e[0]}, {e[1]}]")
        self.verdicts[addr] = verdict


def _random_verdict(rng: random.Random) -> str:
    """Mostly clean; about one cell in 25 gets each kind of symptom."""
    roll = rng.random()
    if roll < 0.04:
        return VALUE_OUTSIDE
    if roll < 0.08:
        return MODEL_MISMATCH
    if roll < 0.10:
        return BOTH
    return NO_SYMPTOM


def _sum_bounds(bounds: list[tuple[int, int]]) -> tuple[int, int]:
    return sum(b[0] for b in bounds), sum(b[1] for b in bounds)


def ledger(seed: int, n: int) -> Workload:
    """n item rows of label, input quantity, constant price and a copied
    `=B_r*C_r` amount, with SUM totals and an AVG below."""
    rng = random.Random(seed)
    w = Workload("ledger", seed, n)
    last = n + 1
    r_label, r_over, r_mis = rng.sample(range(10, last - 10), 3)
    for c, text in zip("ABCD", ("item", "qty", "price", "amount")):
        w.label(f"{c}1", text)
    qty: dict[int, int] = {}
    amount: dict[int, int] = {}
    for r in range(2, last + 1):
        w.label(f"A{r}", f"item {r - 1}")
        if r == r_label:
            # D2: a note typed into the quantity column, inside SUM(B).
            w.label(f"B{r}", "n/a")
            w.planted.append(("D2_WRONG_TYPE_IN_RANGE", f"B{r}"))
            continue
        qty[r] = w.input(f"B{r}", rng, 6, 50)
        price = rng.randint(1, 20)
        w.constant(f"C{r}", price)
        qlo, qhi = w.bounds[f"B{r}"]
        if r == r_over:
            # D5: one copy of the amount formula typed over by a number.
            amount[r] = qty[r] * price + rng.randint(1, 9)
            w.constant(f"D{r}", amount[r])
            w.planted.append(("D5_CONSTANT_OVERWRITE", f"D{r}"))
        elif r == r_mis:
            # D6: the quantity reference pinned to row 2 by a stray '$'.
            amount[r] = qty[2] * price
            blo, bhi = w.bounds["B2"]
            w.formula(f"D{r}", f"B$2*C{r}", amount[r], (blo * price, bhi * price))
            w.planted.append(("D6_COPY_MISREFERENCE", f"D{r}"))
        else:
            amount[r] = qty[r] * price
            w.formula(f"D{r}", f"B{r}*C{r}", amount[r], (qlo * price, qhi * price))
    total = last + 2
    w.label(f"A{total}", "total")
    w.formula(f"B{total}", f"SUM(B2:B{last})", sum(qty.values()),
              _sum_bounds([w.bounds[f"B{r}"] for r in qty]), ranges=1)
    # D3: the amount total stops one row short of the data.
    short = [r for r in amount if r < last]
    w.formula(f"D{total}", f"SUM(D2:D{last - 1})", sum(amount[r] for r in short),
              _sum_bounds([w.bounds[f"D{r}"] for r in short]), ranges=1)
    w.planted.append(("D3_INCORRECT_RANGE", f"D{last}"))
    w.label(f"A{total + 1}", "average")
    w.formula(f"D{total + 1}", f"AVG(D2:D{last})",
              float(sum(amount.values())) / len(amount), None, ranges=1)

    for r in range(2, last + 1):
        if f"D{r}" in w.verdicts:
            w.expect(f"D{r}", _random_verdict(rng), rng)
    w.expect(f"B{total}", NO_SYMPTOM, rng)
    w.expect(f"D{total}", VALUE_OUTSIDE, rng)
    return w


def running(seed: int, n: int) -> Workload:
    """n input amounts with running totals `B_r = SUM(A$2:A_r)`."""
    rng = random.Random(seed)
    w = Workload("running", seed, n)
    last = n + 1
    r_label, r_over, r_mis = rng.sample(range(5, last - 5), 3)
    w.label("A1", "amount")
    w.label("B1", "running")
    amounts: dict[int, int] = {}
    for r in range(2, last + 1):
        if r == r_label:
            # D2: a note in the amount column, inside every later range.
            w.label(f"A{r}", "n/a")
            w.planted.append(("D2_WRONG_TYPE_IN_RANGE", f"A{r}"))
        else:
            amounts[r] = w.input(f"A{r}", rng, 6, 100)
        running_total = sum(amounts.values())
        bound = _sum_bounds([w.bounds[f"A{q}"] for q in amounts])
        if r == r_over:
            # D5: one running total typed over by a number.
            w.constant(f"B{r}", running_total + rng.randint(1, 9))
            w.planted.append(("D5_CONSTANT_OVERWRITE", f"B{r}"))
        elif r == r_mis:
            # D6: the anchor lost its '$'; same value at this row.
            w.formula(f"B{r}", f"SUM(A2:A{r})", running_total, bound, ranges=1)
            w.planted.append(("D6_COPY_MISREFERENCE", f"B{r}"))
        elif r == last:
            # D3: the last total stops one row short.
            prev = [q for q in amounts if q < last]
            w.formula(f"B{r}", f"SUM(A$2:A{r - 1})", sum(amounts[q] for q in prev),
                      _sum_bounds([w.bounds[f"A{q}"] for q in prev]), ranges=1)
            w.planted.append(("D3_INCORRECT_RANGE", f"A{last}"))
        else:
            w.formula(f"B{r}", f"SUM(A$2:A{r})", running_total, bound, ranges=1)

    for r in range(2, last, 10):
        if f"B{r}" in w.verdicts:
            w.expect(f"B{r}", _random_verdict(rng), rng)
    w.expect(f"B{last}", VALUE_OUTSIDE, rng)
    return w


def blocks(seed: int, m: int) -> Workload:
    """m blocks of ten inputs and a SUM subtotal; a list of copies of
    the subtotals and a grand total over the copies."""
    rng = random.Random(seed)
    w = Workload("blocks", seed, m)
    # Seven planted blocks must stay a minority of the subtotals, or D6
    # finds no majority pattern to measure the stray '$' against.
    picks = rng.sample(range(1, m - 1), 7)
    k_label, k_over, k_mis = picks[:3]
    k_short = set(picks[3:])
    w.label("B1", "amount")
    w.label("C1", "subtotal")
    w.label("D1", "copy")
    subtotals: list[tuple[str, int]] = []
    for k in range(m):
        s = 2 + 11 * k
        values: list[int] = []
        bounds: list[tuple[int, int]] = []
        for j in range(10):
            addr = f"B{s + j}"
            if k == k_label and j == 4:
                # D2: a note among the block's inputs.
                w.label(addr, "n/a")
                w.planted.append(("D2_WRONG_TYPE_IN_RANGE", addr))
                continue
            v = w.input(addr, rng, 6, 100)
            if not (k in k_short and j == 9):
                values.append(v)
                bounds.append(w.bounds[addr])
        sub = f"C{s + 10}"
        w.label(f"A{s + 10}", f"subtotal {k + 1}")
        value = sum(values)
        if k == k_over:
            # D5: one subtotal typed over by a number.
            value += rng.randint(1, 9)
            w.constant(sub, value)
            w.planted.append(("D5_CONSTANT_OVERWRITE", sub))
        elif k == k_mis:
            # D6: a stray '$' pins the range start; same value here.
            w.formula(sub, f"SUM(B${s}:B{s + 9})", value, _sum_bounds(bounds), ranges=1)
            w.planted.append(("D6_COPY_MISREFERENCE", sub))
        elif k in k_short:
            # D3: the subtotal range stops one row short.
            w.formula(sub, f"SUM(B{s}:B{s + 8})", value, _sum_bounds(bounds), ranges=1)
            w.planted.append(("D3_INCORRECT_RANGE", f"B{s + 9}"))
        else:
            w.formula(sub, f"SUM(B{s}:B{s + 9})", value, _sum_bounds(bounds), ranges=1)
        subtotals.append((sub, value))

    for k, (sub, value) in enumerate(subtotals):
        w.formula(f"D{k + 2}", sub, value, w.bounds[sub])
    grand = f"D{m + 3}"
    w.formula(grand, f"SUM(D2:D{m + 1})", sum(v for _, v in subtotals),
              _sum_bounds([w.bounds[sub] for sub, _ in subtotals]), ranges=1)

    for k, (sub, _) in enumerate(subtotals):
        if sub not in w.verdicts:
            continue
        verdict = VALUE_OUTSIDE if k in k_short else _random_verdict(rng)
        w.expect(sub, verdict, rng)
    w.expect(grand, NO_SYMPTOM, rng)
    return w


GENERATORS = {"ledger": ledger, "running": running, "blocks": blocks}


def generate(shape: str, seed: int, size: int | None = None) -> Workload:
    return GENERATORS[shape](seed, SIZES[shape] if size is None else size)
