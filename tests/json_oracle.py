"""Seeded random JSON payloads, checked against the standard encoder.

``report.to_json`` must equal ``json.dumps(payload, indent=2,
sort_keys=True, allow_nan=False) + "\\n"`` byte for byte.  The
payloads nest dicts and lists up to depth 6, empty ones included, with
strings of quotes, backslashes, control characters, non-ASCII and
astral code points, big and negative ints, bools, edge floats and None.

A ``test`` payload holds its rows as the report's ``CellTest`` tuples,
which the writer spells from one template.  ``row_json`` builds the
dict each row stands for, the reference that template must match.
``interval_payload`` builds a payload of seeded rows; over a hundred
seeds they hold every fault kind as a value and as a bound,
the edge floats as values and as endpoints, rows with and without an
expectation, suspects that mix cells and ranges, and no rows at all.

test_report.py runs this oracle under pytest; it also runs as a plain
script on interpreters without pytest:

    PYTHONPATH=src python tests/json_oracle.py [COUNT]
"""

from __future__ import annotations

import json
import random
import sys

from sheetlint.evaluator import Fault, FaultKind, Interval, Number
from sheetlint.intervals import CellTest, TestReport, Verdict
from sheetlint.model import load_program
from sheetlint.report import Input, test_json, to_json
from sheetlint.scl import CellAddress, CellRef, RangeRef

MAX_DEPTH = 6
ALPHABET = (
    "a", "Z", "0", " ", "/", '"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f",
    "é", "Ü", "€", " ", "\ud800", "\U0001f600", "\U00010348",
)
FLOATS = (0.0, -0.0, 5e-324, 1e16, 1e300, -1e300, 0.1, -2.5, 1e-7, 123456789.125)
INTS = (0, 1, -1, 7, 2**53 + 1, -(2**63), 10**30, -(10**40))


def _string(rng: random.Random) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(6)))


def _scalar(rng: random.Random):
    kind = rng.randrange(6)
    if kind == 0:
        return _string(rng)
    if kind == 1:
        return rng.choice(INTS) if rng.random() < 0.5 else rng.randrange(-1000, 1000)
    if kind == 2:
        return rng.choice(FLOATS) if rng.random() < 0.5 else rng.uniform(-1e6, 1e6)
    if kind == 3:
        return rng.random() < 0.5
    if kind == 4:
        return None
    # A list of strings only, as cells, suspects and members are.
    return [_string(rng) for _ in range(rng.randrange(4))]


def payload(rng: random.Random, depth: int = 0):
    """A random value; containers down to ``MAX_DEPTH``, scalars below."""
    if depth < MAX_DEPTH and rng.random() < 0.6 - 0.08 * depth:
        size = rng.randrange(5)
        if rng.random() < 0.5:
            return {_string(rng): payload(rng, depth + 1) for _ in range(size)}
        return [payload(rng, depth + 1) for _ in range(size)]
    return _scalar(rng)


def expected(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False) + "\n"


def mismatches(count: int, base_seed: int = 0) -> list[int]:
    """The seeds among ``count`` whose payload the two encoders spell
    differently."""
    bad = []
    for seed in range(base_seed, base_seed + count):
        value = payload(random.Random(seed))
        if to_json(value) != expected(value):
            bad.append(seed)
    return bad


# ---------------------------------------------------------------------------
# Test payloads


def value_json(value) -> dict:
    """The dict a row's value or bound stands for.  A formula's value is
    a Number or a Fault, its bound an Interval or a Fault."""
    if isinstance(value, Number):
        return {"kind": "number", "value": value.value}
    if isinstance(value, Interval):
        return {"kind": "interval", "lo": value.lo, "hi": value.hi}
    if isinstance(value, Fault):
        return {"kind": "fault", "fault": value.kind.value}
    raise TypeError(f"not a value: {value!r}")


def row_json(row: CellTest) -> dict:
    """The dict a row of a ``test`` payload stands for."""
    return {
        "cell": str(row.cell),
        "value": value_json(row.value),
        "bounding": value_json(row.bounding),
        "expected": (
            {"lo": row.expected.lo, "hi": row.expected.hi}
            if row.expected is not None
            else None
        ),
        "verdict": row.verdict.value,
        "suspects": [str(a) for a in row.suspects],
    }


def with_row_dicts(payload: dict) -> dict:
    """A ``test`` payload with its rows as dicts, as json.dumps takes them."""
    section = payload["interval_test"]
    rows = [row_json(row) for row in section["rows"].rows]
    return {**payload, "interval_test": {**section, "rows": rows}}


def _box(rng: random.Random) -> Interval:
    return Interval(*sorted((rng.choice(FLOATS), rng.choice(FLOATS))))


def _address(rng: random.Random) -> CellAddress:
    return CellAddress(rng.randrange(1, 800), rng.randrange(1, 10**6))


def _range(rng: random.Random) -> RangeRef:
    # A suspect range is a run of empty cells: its corners carry no '$'.
    corners = [CellRef(*_address(rng)) for _ in range(2)]
    return RangeRef.normalized(*corners)


def _row(rng: random.Random) -> CellTest:
    faults = list(FaultKind)
    value = Fault(rng.choice(faults)) if rng.random() < 0.3 else Number(rng.choice(FLOATS))
    bounding = Fault(rng.choice(faults)) if rng.random() < 0.3 else _box(rng)
    expected = _box(rng) if rng.random() < 0.7 else None
    suspects = tuple(
        _range(rng) if rng.random() < 0.4 else _address(rng) for _ in range(rng.randrange(5))
    )
    return CellTest(_address(rng), value, bounding, expected, rng.choice(list(Verdict)), suspects)


PROGRAM = load_program("A1 = #1\nB1 = =A1*2\n")


def payload_of(rows: tuple[CellTest, ...]) -> dict:
    """The ``test`` payload of a report of these rows."""
    return test_json(PROGRAM, TestReport(rows), [Input("probe.sheet", b"A1 = #1\n")])


def interval_payload(rng: random.Random, rows: int | None = None) -> dict:
    """A ``test`` payload of ``rows`` seeded rows, 0 to 40 by default."""
    count = rng.randrange(41) if rows is None else rows
    return payload_of(tuple(_row(rng) for _ in range(count)))


def row_mismatches(count: int, base_seed: int = 0) -> list[int]:
    """The seeds among ``count`` whose test payload the writer and the
    row oracle spell differently."""
    bad = []
    for seed in range(base_seed, base_seed + count):
        value = interval_payload(random.Random(seed))
        if to_json(value) != expected(with_row_dicts(value)):
            bad.append(seed)
    return bad


if __name__ == "__main__":
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    bad = mismatches(count)
    print(f"Python {sys.version.split()[0]}: {count} payloads, {len(bad)} mismatches {bad[:10]}")
    bad_rows = row_mismatches(count // 10)
    print(f"{count // 10} test payloads, {len(bad_rows)} mismatches {bad_rows[:10]}")
    sys.exit(1 if bad or bad_rows else 0)
