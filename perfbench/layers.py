"""Traced per-layer run, executed in a child process by run.py.

Calls each layer's public functions from outside, one span per call,
then replays every CLI command through `cli.main` with the functions
`cli.py` imports from other layers wrapped in spans, so the replay
follows whatever call sequence `cli.py` makes.  Each span records name,
start, end, parent and the run id; spans stay in memory and are
written to --trace-out at the end.  Sizes and counts come from the
results of the first pass; `*.py_calls` from running each layer call
once under cProfile (run.py fixes PYTHONHASHSEED so they repeat).
Span times are scaled by calibrate.py runs before and after each pass,
the way run.py scales its samples; the trace file keeps raw times.

    python3 perfbench/layers.py --sheet S --intervals I --seconds N \
        --run-id ID --trace-out PATH

Prints one JSON object: per-layer metrics and self time per span name.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import gc
import io
import json
import statistics
import subprocess
import sys
import time
import types
from collections import Counter, defaultdict

from run import CALIBRATE_ARGV, CALIBRATION_REF_S, COMMANDS, cli_args
from sheetlint import areas, cli, dataflow, detectors, evaluator, intervals, model, report, scl

CODES = tuple(code.value for code in detectors.Code)


class Tracer:
    """Spans kept in memory: [id, name, parent id, start, end]."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = [len(self.spans), name, self._stack[-1] if self._stack else None,
                  time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child spans."""
        child = defaultdict(float)
        for _, _, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, name, _, start, end in self.spans:
            out[name] += end - start - child[sid]
        return dict(out)

    def dump(self, path: str) -> None:
        origin = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([{"run": self.run_id, "id": sid, "name": name, "parent": parent,
                        "start": start - origin, "end": end - origin}
                       for sid, name, parent, start, end in self.spans], fh)


def _wrap(tracer: Tracer, name: str, fn):
    def traced(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return traced


class _TracedModule:
    """Stands in for a sheetlint module inside `cli`'s namespace."""

    def __init__(self, module: types.ModuleType, tracer: Tracer):
        self._module = module
        self._tracer = tracer

    def __getattr__(self, attr: str):
        value = getattr(self._module, attr)
        if isinstance(value, types.FunctionType):
            return _wrap(self._tracer, f"{self._module.__name__.split('.')[-1]}.{attr}", value)
        return value


@contextlib.contextmanager
def traced_cli(tracer: Tracer):
    """Wrap every sheetlint function and module `cli` imported."""
    saved = {}
    for name, value in vars(cli).items():
        if isinstance(value, types.FunctionType):
            module = value.__module__
            if module.startswith("sheetlint.") and module != cli.__name__:
                saved[name] = value
        elif isinstance(value, types.ModuleType) and value.__name__.startswith("sheetlint."):
            saved[name] = value
    try:
        for name, value in saved.items():
            if isinstance(value, types.ModuleType):
                setattr(cli, name, _TracedModule(value, tracer))
            else:
                setattr(cli, name, _wrap(tracer, f"{value.__module__.split('.')[-1]}.{name}", value))
        yield
    finally:
        for name, value in saved.items():
            setattr(cli, name, value)


def _cli_main(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)


def formula_bodies(sheet_text: str) -> list[str]:
    """Formula texts as written, without the leading '='."""
    bodies = []
    for line in sheet_text.splitlines():
        content = line.partition("=")[2].strip()
        if content.startswith("="):
            bodies.append(content[1:])
    return bodies


def layer_pass(t: Tracer, sheet: str, spec: str, sheet_text: str, spec_text: str) -> dict:
    """Call every layer once, each call in its own span; return results."""
    bodies = formula_bodies(sheet_text)
    with t.span("layers"):
        with t.span("model.load"):
            program = model.load_program(sheet_text)
        with t.span("scl.parse"):
            for body in bodies:
                scl.parse_formula(body)
        formulas = list(program.formula_cells())
        with t.span("scl.normalize"):
            for addr, cell in formulas:
                scl.normalize(cell.ast, addr)
        with t.span("dataflow.build_graph"):
            graph = dataflow.build_graph(program)
        with t.span("dataflow.topo_order"):
            graph.topo_order()
        with t.span("evaluator.eval"):
            result = evaluator.eval_instance(model.instantiate(program))
        with t.span("intervals.load_spec"):
            ispec = intervals.load_interval_spec(spec_text, program)
        with t.span("intervals.eval"):
            intervals.eval_intervals(program, ispec)
        with t.span("intervals.test"):
            test_report = intervals.run_interval_test(model.instantiate(program), ispec)
        with t.span("areas.physical"):
            physical = areas.infer_physical_areas(program)
        with t.span("areas.logical"):
            logical = areas.infer_logical_areas(program)
        with t.span("areas.structural"):
            structural = areas.structural_groups(program)
        for i, detect in enumerate((
            detectors.detect_blank_ref,
            detectors.detect_wrong_type_in_range,
            detectors.detect_incorrect_range,
            detectors.detect_area_mixup,
            detectors.detect_constant_overwrite,
            detectors.detect_copy_misreference,
        ), 1):
            with t.span(f"detectors.d{i}"):
                detect(program)
        with t.span("detectors.all"):
            diagnostics = detectors.detect_all(program, result)
        with t.span("report.check"):
            check_text = report.to_json(report.check_json(program, diagnostics, [sheet]))
        with t.span("report.test"):
            report.to_json(report.test_json(program, test_report, [sheet, spec]))
        with t.span("report.dot"):
            dot_text = report.cell_graph_dot(program, graph, physical, logical, diagnostics)
        with t.span("report.areas"):
            report.to_json(report.areas_json(program, physical, logical, [sheet]))
    return dict(program=program, graph=graph, result=result, ispec=ispec,
                test_report=test_report, physical=physical, logical=logical,
                structural=structural, diagnostics=diagnostics,
                check_text=check_text, dot_text=dot_text)


def cli_pass(t: Tracer, sheet: str, spec: str) -> float:
    """Each command through cli.main, untraced then traced; returns the
    summed gap between the two, the tracing overhead."""
    overhead = 0.0
    for command in COMMANDS:
        argv = cli_args(command, sheet, spec)
        start = time.perf_counter()
        _cli_main(argv)
        untraced = time.perf_counter() - start
        with traced_cli(t):
            start = time.perf_counter()
            with t.span(f"cli.{command}"):
                _cli_main(argv)
            overhead += time.perf_counter() - start - untraced
    return overhead


def sizes(r: dict) -> dict[str, float]:
    """Size and count metrics from one pass's results."""
    program = r["program"]
    covered = occupied = 0
    for area in r["physical"]:
        rect = area.rect
        covered += rect.width() * rect.height()
        occupied += sum(1 for addr in rect.cells() if program.content(addr) is not None)
    pairs = len(r["physical"]) * (len(r["physical"]) - 1) // 2
    # D4's overlap findings carry the area they came from; its
    # one-at-a-time addition findings do not.
    hits = sum(1 for d in r["diagnostics"]
               if d.code is detectors.Code.D4_AREA_MIXUP and d.area is not None)
    codes = Counter(d.code.value for d in r["diagnostics"])
    rows = r["test_report"].rows
    out = {
        "model.cells": len(program.cells),
        "model.formula_cells": sum(1 for _ in program.formula_cells()),
        "dataflow.nodes": len(r["graph"].nodes),
        "dataflow.edges": sum(1 for _ in r["graph"].edges()),
        "dataflow.covered_range_cells": covered,
        "dataflow.occupied_range_cells": occupied,
        "evaluator.notes": len(r["result"].notes),
        "intervals.judged": len(r["ispec"].expected),
        "intervals.symptoms": sum(1 for row in rows if row.symptomatic),
        "intervals.suspects": sum(len(row.suspects) for row in rows),
        "areas.physical": len(r["physical"]),
        "areas.logical": len(r["logical"]),
        "areas.structural": len(r["structural"]),
        "detectors.diagnostics": len(r["diagnostics"]),
        "detectors.d4_pairs": pairs,
        "detectors.d4_hit_ratio": hits / pairs if pairs else 0.0,
        "report.check_bytes": len(r["check_text"].encode("utf-8")),
        "report.dot_bytes": len(r["dot_text"].encode("utf-8")),
    }
    for code in CODES:
        out[f"detectors.diagnostics.{code}"] = codes[code]
    return out


def _calls(fn) -> int:
    """Python and builtin calls made by fn(), counted per code object.

    pstats is not used: it keys functions by file, line and name, and
    the `__init__`, `__eq__` and `__hash__` that dataclasses generate
    all share one key, so its totals drop calls depending on memory
    layout.
    """
    profile = cProfile.Profile()
    profile.enable()
    try:
        fn()
    finally:
        profile.disable()
    return sum(entry.callcount for entry in profile.getstats())


def py_calls(sheet_text: str, spec_text: str) -> dict[str, int]:
    """Python function calls per layer, each layer's calls made once."""
    program = model.load_program(sheet_text)
    result = evaluator.eval_instance(model.instantiate(program))

    def interval_layer():
        s = intervals.load_interval_spec(spec_text, program)
        intervals.eval_intervals(program, s)
        intervals.run_interval_test(model.instantiate(program), s)

    return {
        "model.py_calls": _calls(lambda: model.load_program(sheet_text)),
        "dataflow.py_calls": _calls(lambda: dataflow.build_graph(program).topo_order()),
        "evaluator.py_calls": _calls(lambda: evaluator.eval_instance(model.instantiate(program))),
        "intervals.py_calls": _calls(interval_layer),
        "detectors.py_calls": _calls(lambda: detectors.detect_all(program, result)),
    }


# Spans whose median duration is reported as `<name>_s`.
TIMED = [
    "model.load", "scl.parse", "scl.normalize",
    "dataflow.build_graph", "dataflow.topo_order",
    "evaluator.eval",
    "intervals.load_spec", "intervals.eval", "intervals.test",
    "areas.physical", "areas.logical", "areas.structural",
    "detectors.d1", "detectors.d2", "detectors.d3", "detectors.d4", "detectors.d5",
    "detectors.d6", "detectors.all",
    "report.check", "report.test", "report.dot", "report.areas",
] + [f"cli.{command}" for command in COMMANDS]


def calibration() -> float:
    """Wall time of one calibrate.py subprocess, as run.py takes it."""
    start = time.perf_counter()
    subprocess.run([sys.executable, *CALIBRATE_ARGV], check=True)
    return time.perf_counter() - start


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sheet", required=True)
    parser.add_argument("--intervals", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args()
    with open(args.sheet, encoding="utf-8") as fh:
        sheet_text = fh.read()
    with open(args.intervals, encoding="utf-8") as fh:
        spec_text = fh.read()

    deadline = time.perf_counter() + args.seconds
    metrics: dict[str, float] = dict(py_calls(sheet_text, spec_text))
    tracer = Tracer(args.run_id)
    durations = defaultdict(list)
    overheads = []
    passes = 0
    pass_s = 0.0
    before = calibration()
    # Stop before a pass that would likely end past the deadline.
    while passes == 0 or time.perf_counter() + pass_s < deadline:
        start = time.perf_counter()
        # Each pass starts from an empty collector, so the collections
        # inside it fall on the same calls in every pass.
        gc.collect()
        first = len(tracer.spans)
        results = layer_pass(tracer, args.sheet, args.intervals, sheet_text, spec_text)
        if passes == 0:
            metrics.update(sizes(results))
        del results
        overhead = cli_pass(tracer, args.sheet, args.intervals)
        after = calibration()
        # Scaled to the reference machine speed, as run.py scales samples.
        scale = CALIBRATION_REF_S * 2 / (before + after)
        for _, name, _, span_start, span_end in tracer.spans[first:]:
            durations[name].append((span_end - span_start) * scale)
        overheads.append(overhead * scale)
        before = after
        passes += 1
        pass_s = time.perf_counter() - start
    tracer.dump(args.trace_out)

    for name in TIMED:
        metrics[f"{name}_s"] = statistics.median(durations[name])
    metrics["trace.overhead_s"] = statistics.median(overheads)
    print(json.dumps({"passes": passes, "metrics": metrics,
                      "self_s": tracer.self_times(), "spans": len(tracer.spans)}))


if __name__ == "__main__":
    main()
