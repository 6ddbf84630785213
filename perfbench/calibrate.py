"""A fixed amount of pure-Python work that does not use sheetlint.

run.py times this script as a subprocess once per round, next to the
commands, to gauge how fast the shared machine runs at that moment.
The work mixes what sheetlint spends its time on: small frozen
dataclasses as dict keys, tuple sorting, string building, regular
expressions and JSON.  It must never change, or results taken before
and after stop being comparable.
"""

import json
import re
from dataclasses import dataclass


@dataclass(frozen=True)
class Key:
    col: int
    row: int


def work(n: int) -> int:
    counts: dict[Key, int] = {}
    for i in range(n):
        key = Key(i % 7 + 1, i // 7 + 1)
        counts[key] = counts.get(key, 0) + i % 3
    ordered = sorted(counts.items(), key=lambda kv: (kv[0].row, kv[0].col))
    text = json.dumps([{"cell": f"{k.col}:{k.row}", "n": v} for k, v in ordered],
                      sort_keys=True, indent=2)
    return len(re.findall(r'"cell": "(\d+):(\d+)"', text)) + len(json.loads(text))


if __name__ == "__main__":
    work(12000)
