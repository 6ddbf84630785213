"""Self-check of the benchmark itself, on tiny sizes of each shape.

    python3 perfbench/selfcheck.py        (from the repository root)

1. One seed gives the same files and answers twice; another seed
   gives different files.
2. The output checks reject wrong answers: each is fed a deliberately
   wrong expectation and must report a problem.
3. Every shape passes every output check end to end and traced, and
   prints exactly the metric names and units BENCHMARK.json lists.
4. Two traced runs of one seed give the same counts and sizes.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import checks
import gen
import run

TINY = {"ledger": 40, "running": 20, "blocks": 20}
SEED = 11


def _snapshot(w: gen.Workload) -> tuple:
    return (w.sheet_text, w.intervals_text, w.values, w.verdicts, w.planted,
            w.range_args, w.nonempty)


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def check_generator(shape: str) -> list[str]:
    first = gen.generate(shape, SEED, TINY[shape])
    problems = []
    if _snapshot(first) != _snapshot(gen.generate(shape, SEED, TINY[shape])):
        problems.append("same seed gave different output")
    if first.sheet_text == gen.generate(shape, SEED + 1, TINY[shape]).sheet_text:
        problems.append("another seed gave the same sheet")
    return problems


def check_checks(shape: str, root: Path) -> list[str]:
    """Run each command once, then confirm each check catches a wrong
    answer planted in the expectations."""
    w = gen.generate(shape, SEED, TINY[shape])
    work = run.BENCH / "out" / f"selfcheck-{shape}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        b = run.Bench(w, root, work)
        for command in run.COMMANDS:
            b.command(command)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if b.failed:
        return [f"{b.failed} commands failed on correct output"]
    outputs = b.reference
    cell = next(iter(w.values))
    mutations = {
        "check": lambda: w.planted.append(("D1_BLANK_REF", "Z99")),
        "test": lambda: w.values.__setitem__(cell, w.values[cell] + 1),
        "graph": lambda: w.nonempty.append("Z99"),
        "areas": lambda: setattr(w, "range_args", w.range_args + 1),
    }
    problems = []
    for command, mutate in mutations.items():
        mutate()
        if not checks.CHECKS[command](w, outputs[command]):
            problems.append(f"{command}: a wrong expectation went unnoticed")
    return problems


def check_runs(shape: str, root: Path, listed: dict) -> list[str]:
    problems = []
    traced = []
    for trace, key in ((False, "end_to_end"), (True, "per_layer"), (True, "per_layer")):
        result = _quiet(run.measure, shape, SEED, 0.5, trace, root, TINY[shape])
        if not result["correct"] or result["failed"]:
            problems.append(f"trace={int(trace)}: {result['failed']} failed commands")
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        if units != listed[key]:
            problems.append(f"trace={int(trace)}: metrics differ from BENCHMARK.json {key}: "
                            f"{sorted(set(units) ^ set(listed[key]))}")
        if trace:
            traced.append(result["metrics"])
    counts = [{k: v["value"] for k, v in m.items() if not k.endswith("_s")} for m in traced]
    if counts[0] != counts[1]:
        problems.append("counts differ between two traced runs: " + ", ".join(
            k for k in counts[0] if counts[0][k] != counts[1].get(k)))
    return problems


def main() -> int:
    root = Path.cwd()
    spec = json.loads((run.BENCH.parent / "BENCHMARK.json").read_text())
    listed = {key: {m["name"]: m["unit"] for m in spec[key]}
              for key in ("end_to_end", "per_layer")}
    failures = 0
    for shape in gen.SHAPES:
        for step in (lambda: check_generator(shape),
                     lambda: check_checks(shape, root),
                     lambda: check_runs(shape, root, listed)):
            for problem in step():
                failures += 1
                print(f"FAIL {shape}: {problem}")
        print(f"{shape}: checked")
    print("selfcheck:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
