"""Seeded random JSON payloads, checked against the standard encoder.

``report.to_json`` must equal ``json.dumps(payload, indent=2,
sort_keys=True, allow_nan=False) + "\\n"`` byte for byte.  The
payloads nest dicts and lists up to depth 6, empty ones included, with
strings of quotes, backslashes, control characters, non-ASCII and
astral code points, big and negative ints, bools, edge floats and None.

test_report.py runs this oracle under pytest; it also runs as a plain
script on interpreters without pytest:

    PYTHONPATH=src python tests/json_oracle.py [COUNT]
"""

from __future__ import annotations

import json
import random
import sys

from sheetlint.report import to_json

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


if __name__ == "__main__":
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    bad = mismatches(count)
    print(f"Python {sys.version.split()[0]}: {count} payloads, {len(bad)} mismatches {bad[:10]}")
    sys.exit(1 if bad else 0)
