"""Seeded benchmark of the sheetlint CLI.

    python3 perfbench/run.py --workload ledger|running|blocks --seed N \
        --seconds S --trace 0|1

Run it from the repository root; it runs the program in `src/` as it
is, with nothing to build or install.  It generates one workload from
the seed (see gen.py for the shapes and why each was chosen), then:

--trace 0  runs `check`, `test`, `graph` and `areas` as subprocesses
           with `--format json`, one at a time (a closed loop with one
           client), round-robin for S seconds, and reports each
           command's median time, the median time to start the
           interpreter and `import sheetlint.cli` (setup_s) and the
           largest median child max-RSS.
--trace 1  runs the commands for a share of S to get their times, then
           a traced child (layers.py) for the rest, and reports the
           per-layer metrics.

Times are scaled to a reference machine speed.  The machine is shared,
and its speed drifts by tens of percent between runs.  So the loop
runs calibrate.py, a fixed piece of pure-Python work that does not use
sheetlint, before and after every sample.  Each sample is divided by
the mean of its two neighbouring calibrations and multiplied by
CALIBRATION_REF_S.  Raw medians are printed in the table.

Every command's exit code and output is checked: the first output of
each command against the generator's answers (checks.py), every later
one for byte-identity with the first.  Human-readable tables go to
stdout, and the last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  `failed / attempted`
is the benchmark's failure ratio.  Exits 2 without a result when the
program's sources are missing or the measurement itself fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import gen

BENCH = Path(__file__).resolve().parent
COMMANDS = ("check", "test", "graph", "areas")
SHEET, SPEC = "sheet.sheet", "sheet.intervals"
SETUP_ARGV = ["-c", "import sheetlint.cli"]
CALIBRATE_ARGV = [str(BENCH / "calibrate.py")]
# calibrate.py's wall time, interpreter start included, on a quiet
# shared 2-vCPU Intel Xeon VM under CPython 3.11.  Scaled times are
# seconds at that speed.
CALIBRATION_REF_S = 0.125
# A command this slow is hung; it is killed and counted as failed.
COMMAND_TIMEOUT_S = 60
# Share of a traced run's seconds spent timing the commands end to end.
TRACE_E2E_SHARE = 0.3


def cli_args(command: str, sheet: str, spec: str) -> list[str]:
    """A command's arguments as a user types them."""
    files = [sheet, spec] if command == "test" else [sheet]
    return [command, *files, "--format", "json"]


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_ratio"):
        return "1"
    return "count"


class Bench:
    """One generated workload in a work directory, and its samples."""

    def __init__(self, w: gen.Workload, root: Path, work: Path):
        self.w = w
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        # Measure what a user sees: bytecode cached after the warm-up.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        (work / SHEET).write_text(w.sheet_text, encoding="utf-8")
        (work / SPEC).write_text(w.intervals_text, encoding="utf-8")
        self.reference: dict[str, bytes] = {}
        names = COMMANDS + ("setup",)
        self.raw: dict[str, list[float]] = {name: [] for name in names}
        self.scaled: dict[str, list[float]] = {name: [] for name in names}
        self.rss_kb: dict[str, list[int]] = {c: [] for c in COMMANDS}
        self.calibrations: list[float] = []
        self.attempted = 0
        self.failed = 0

    def spawn(self, argv: list[str], env: dict | None = None,
              timeout: float = COMMAND_TIMEOUT_S) -> tuple[float, int, int, bytes]:
        """Run `python3 ARGV` in the work directory, stdout to a file.

        Returns wall seconds, exit code, max RSS in KiB and stdout.
        """
        out_path = self.work / "stdout"
        with open(out_path, "wb") as out, open(self.work / "stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.work,
                                    env=env or self.env, stdout=out, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return elapsed, proc.returncode, usage.ru_maxrss, out_path.read_bytes()

    def stderr(self) -> str:
        return (self.work / "stderr").read_text(errors="replace").strip()

    def command(self, command: str) -> float:
        """Run one command, check it and return its wall time.  The
        first run of each command is checked against the answers and
        kept as the reference for later runs."""
        elapsed, code, rss, data = self.spawn(["-m", "sheetlint.cli",
                                               *cli_args(command, SHEET, SPEC)])
        self.attempted += 1
        if command not in self.reference:
            problems = checks.check_output(self.w, command, code, data)
            self.reference[command] = data
        elif code != checks.expected_exit(self.w, command) or data != self.reference[command]:
            problems = [f"exit code {code} or output differs from the first run"]
        else:
            problems = []
        if problems:
            self.failed += 1
            stderr = self.stderr()
            for line in problems[:5] + ([stderr[-500:]] if stderr else []):
                print(f"FAIL {command}: {line}", file=sys.stderr)
        self.rss_kb[command].append(rss)
        return elapsed

    def run_ok(self, argv: list[str], what: str) -> float:
        elapsed, code, _, _ = self.spawn(argv)
        if code != 0:
            raise RuntimeError(f"{what} failed: {self.stderr()[-2000:]}")
        return elapsed

    def warm_up(self) -> None:
        """Fill the bytecode cache and check every command once."""
        self.run_ok(SETUP_ARGV, "importing sheetlint.cli")
        self.run_ok(CALIBRATE_ARGV, "calibration")
        for command in COMMANDS:
            self.command(command)
        for samples in self.rss_kb.values():
            samples.clear()

    def loop(self, seconds: float) -> None:
        """Round-robin over the commands and the setup sample until
        `seconds` have passed, with a calibration between samples."""
        deadline = time.perf_counter() + seconds
        before = self.run_ok(CALIBRATE_ARGV, "calibration")
        self.calibrations.append(before)
        while True:
            for name in self.raw:
                if name == "setup":
                    elapsed = self.run_ok(SETUP_ARGV, "importing sheetlint.cli")
                else:
                    elapsed = self.command(name)
                after = self.run_ok(CALIBRATE_ARGV, "calibration")
                self.calibrations.append(after)
                self.raw[name].append(elapsed)
                self.scaled[name].append(elapsed * CALIBRATION_REF_S * 2 / (before + after))
                before = after
            if time.perf_counter() >= deadline:
                return


def tail(values: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples above it."""
    n = len(values)
    if n <= 10:
        return None
    return 100 * (n - 10) // n, sorted(values)[n - 11]


def print_e2e_table(b: Bench) -> None:
    print(f"{'sample':8} {'n':>4} {'raw_s':>8} {'scaled_s':>9} {'scaled tail_s':>16} {'rss_mb':>7}")
    for name, values in b.scaled.items():
        t = tail(values)
        shown = f"{t[1]:.4f} (p{t[0]})" if t else "-"
        rss = f"{statistics.median(b.rss_kb[name]) / 1024:.1f}" if name in b.rss_kb else ""
        print(f"{name:8} {len(values):4d} {statistics.median(b.raw[name]):8.4f} "
              f"{statistics.median(values):9.4f} {shown:>16} {rss:>7}")
    print(f"calibration median {statistics.median(b.calibrations):.4f} s "
          f"(reference {CALIBRATION_REF_S} s)")
    print(f"attempted {b.attempted}  failed {b.failed}  "
          f"fail_ratio {b.failed / b.attempted:.4f}")


def e2e_metrics(b: Bench) -> dict[str, tuple[float, str]]:
    metrics = {f"{name}_s": (statistics.median(values), "s") for name, values in b.scaled.items()}
    rss = max(statistics.median(b.rss_kb[c]) for c in COMMANDS)
    metrics["peak_rss_mb"] = (rss / 1024, "MB")
    return metrics


def traced_metrics(b: Bench, seconds: float, run_id: str) -> dict[str, tuple[float, str]]:
    b.loop(seconds * TRACE_E2E_SHARE)
    child_seconds = seconds * (1 - TRACE_E2E_SHARE)
    trace_path = BENCH / "out" / f"trace-{b.w.shape}-{b.w.seed}.json"
    env = dict(b.env, PYTHONHASHSEED="0")
    _, code, _, data = b.spawn(
        [str(BENCH / "layers.py"), "--sheet", SHEET, "--intervals", SPEC,
         "--seconds", str(child_seconds), "--run-id", run_id, "--trace-out", str(trace_path)],
        env=env, timeout=child_seconds + 90)
    if code != 0:
        raise RuntimeError(f"traced run failed: {b.stderr()[-2000:]}")
    child = json.loads(data.decode().strip().splitlines()[-1])
    values = child["metrics"]
    values["cli.startup_s"] = statistics.median(
        statistics.median(b.scaled[c]) - values[f"cli.{c}_s"] for c in COMMANDS)

    print(f"traced run {run_id}: {child['passes']} passes, {child['spans']} spans in {trace_path}")
    print(f"{'span':32} {'self_s, all passes':>20}")
    for name, self_s in sorted(child["self_s"].items(), key=lambda kv: -kv[1])[:20]:
        print(f"{name:32} {self_s:20.4f}")
    return {name: (value, per_layer_unit(name)) for name, value in sorted(values.items())}


def measure(shape: str, seed: int, seconds: float, trace: bool,
            root: Path, size: int | None = None) -> dict:
    """One benchmark run; returns the result object."""
    w = gen.generate(shape, seed, size)
    run_id = f"{shape}-{seed}-{os.getpid()}-{time.time_ns()}"
    work = BENCH / "out" / f"work-{run_id}"
    work.mkdir(parents=True)
    try:
        b = Bench(w, root, work)
        print(f"workload {shape} seed {seed} size {w.size}: {len(w.nonempty)} cells, "
              f"{len(w.values)} formulas, {w.range_args} ranges, {len(w.planted)} planted "
              f"faults, {w.symptoms} planted symptoms")
        b.warm_up()
        if trace:
            metrics = traced_metrics(b, seconds, run_id)
        else:
            b.loop(seconds)
            metrics = e2e_metrics(b)
        print_e2e_table(b)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": b.failed == 0,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="Seeded benchmark of the sheetlint CLI.")
    parser.add_argument("--workload", choices=gen.SHAPES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "sheetlint" / "cli.py").is_file():
        print(f"run.py: no sheetlint sources under {root / 'src'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except (RuntimeError, OSError, ValueError) as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
