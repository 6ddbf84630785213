"""Command line interface.

    sheetlint check  SHEET             find faults
    sheetlint test   SHEET INTERVALS   interval-based testing
    sheetlint graph  SHEET             dependency graph as DOT
    sheetlint areas  SHEET             inferred areas

``main`` reads and loads the sheet and hands the program to the
command.  The command reads and analyses everything else, and returns
its exit code and a renderer; ``main`` then opens the output and the
renderer writes the report into it a batch at a time.  So an input that
cannot be loaded writes nothing.  Exit codes: 0 clean, 1 findings or
symptoms, 2 when an input could not be loaded or the report could not
be written.  Output for the same inputs is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import codecs
import gc
import os
import sys
from collections.abc import Callable
from functools import partial

from .areas import infer_logical_areas, infer_physical_areas
from .dataflow import build_graph
from .detectors import detect_all
from .intervals import load_interval_spec, run_interval_test
from .model import SpreadsheetProgram, instantiate, load_program
from .scl import SheetLintError
from . import report

# A report, ready to be written: it takes the output's ``write``.
Render = Callable[[Callable[[str], object]], None]


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("sheet", help="program in .sheet format")
    common.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    common.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="write the report to PATH instead of stdout",
    )

    parser = argparse.ArgumentParser(
        prog="sheetlint",
        description="Find faults in spreadsheet programs and test them over intervals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("check", parents=[common], help="run all fault detectors")

    p_test = sub.add_parser("test", parents=[common], help="interval-based testing")
    p_test.add_argument("intervals", help="input ranges and expectations")

    p_graph = sub.add_parser(
        "graph", parents=[common], help="dependency graph in DOT form (format flag is ignored)"
    )
    p_graph.add_argument(
        "--resolution",
        choices=("cell", "area"),
        default="cell",
        help="one node per cell, or one node per inferred area",
    )

    sub.add_parser("areas", parents=[common], help="list inferred areas")

    return parser.parse_args(argv)


def _read(path: str) -> tuple[str, report.Input]:
    """A file's text, and the file as a JSON report names it.

    Each input is opened once: a pipe cannot be read a second time, so
    the report digests the bytes read here.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8-sig"), report.Input(path, data)
    except UnicodeDecodeError as err:
        # The codec counts from after a byte-order mark; report the file's offset.
        bom = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
        raise SheetLintError(f"{path}: not UTF-8 text (byte {bom + err.start})") from None


def _emit(render: Render, output: str | None) -> None:
    if output is None:
        # A shell's ``>&-`` starts the process with no stdout at all.
        if sys.stdout is None:
            raise SheetLintError("standard output is closed")
        render(sys.stdout.write)
        # A write error (a full disk, a closed pipe) surfaces here, as an
        # error line and exit 2, not at interpreter exit.
        sys.stdout.flush()
    else:
        with open(output, "w", encoding="utf-8") as fh:
            render(fh.write)


def _cmd_check(
    args: argparse.Namespace, program: SpreadsheetProgram, sheet: report.Input
) -> tuple[int, Render]:
    diagnostics = detect_all(program)
    code = 1 if diagnostics else 0
    if args.format == "json":
        return code, partial(report.write_json, report.check_json(program, diagnostics, [sheet]))
    text = report.check_text(program, diagnostics, args.sheet)
    return code, lambda write: write(text)


def _cmd_test(
    args: argparse.Namespace, program: SpreadsheetProgram, sheet: report.Input
) -> tuple[int, Render]:
    spec_text, spec_input = _read(args.intervals)
    spec = load_interval_spec(spec_text, program)
    test_report = run_interval_test(instantiate(program), spec)
    code = 1 if test_report.any_symptom() else 0
    if args.format == "json":
        # The renderer holds the payload, and through it the report's
        # rows: the program is freed before the first write.
        payload = report.test_json(program, test_report, [sheet, spec_input])
        return code, partial(report.write_json, payload)
    text = report.test_text(test_report, args.sheet, args.intervals)
    return code, lambda write: write(text)


def _cmd_graph(
    args: argparse.Namespace, program: SpreadsheetProgram, sheet: report.Input
) -> tuple[int, Render]:
    diagnostics = detect_all(program)
    physical, logical = infer_physical_areas(program), infer_logical_areas(program)
    graph = build_graph(program)
    if args.resolution == "area":
        text = report.area_graph_dot(program, graph, physical, logical, diagnostics)
        return 0, lambda write: write(text)
    return 0, partial(report.write_cell_graph_dot, program, graph, physical, logical, diagnostics)


def _cmd_areas(
    args: argparse.Namespace, program: SpreadsheetProgram, sheet: report.Input
) -> tuple[int, Render]:
    physical = infer_physical_areas(program)
    logical = infer_logical_areas(program)
    if args.format == "json":
        return 0, partial(report.write_json, report.areas_json(program, physical, logical, [sheet]))
    text = report.areas_text(physical, logical, args.sheet)
    return 0, lambda write: write(text)


_COMMANDS = {
    "check": _cmd_check,
    "test": _cmd_test,
    "graph": _cmd_graph,
    "areas": _cmd_areas,
}


def _error_line(text: str) -> None:
    """Write an error line to stderr, if it can take one.  A shell's
    ``2>&-`` leaves no stderr, or one whose writes fail; the line is
    then dropped, and the exit status still tells the error."""
    if sys.stderr is None:
        return
    try:
        print(text, file=sys.stderr)
    except OSError:
        pass


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    try:
        sheet_text, sheet = _read(args.sheet)
        code, render = _COMMANDS[args.command](args, load_program(sheet_text), sheet)
        _emit(render, args.output)
        return code
    except (SheetLintError, OSError) as err:
        _error_line(f"sheetlint: error: {err}")
        return 2


def run() -> None:
    """The console entry: runs ``main`` in a process of its own.

    The process runs without the cyclic collector and freezes the heap
    before it exits.  A run makes no reference cycles of its own
    (tests/test_cli.py's TestNoCyclicGarbage guards this), so reference
    counting frees what it drops and a collection would only trace live
    objects.  Interpreter teardown collects regardless of
    ``gc.disable()``; ``gc.freeze()`` moves every object still alive out
    of its reach.  The exit itself is the ordinary ``sys.exit``: atexit
    handlers still run, so ``coverage run`` and ``python -m cProfile``
    keep their output, which ``os._exit`` would lose.  In-process
    callers of ``main`` keep their collector and their heap.
    """
    gc.disable()
    # Labels and paths may be non-ASCII; stdout and the error line on
    # stderr write UTF-8 whatever the locale, as --output does.  A
    # stream the shell closed is None, and _emit reports a closed stdout.
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.reconfigure(encoding="utf-8")
    code = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError:
        # main reported the failed write.  The bytes still buffered would
        # fail again at exit, with a second message and status 120; the
        # null device takes them instead.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
