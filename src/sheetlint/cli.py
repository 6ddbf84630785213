"""Command line interface.

    sheetlint check  SHEET             find faults
    sheetlint test   SHEET INTERVALS   interval-based testing
    sheetlint graph  SHEET             dependency graph as DOT
    sheetlint areas  SHEET             inferred areas

Exit codes: 0 clean, 1 findings or symptoms, 2 when an input could not
be loaded.  Output for the same inputs is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import sys

from .areas import infer_logical_areas, infer_physical_areas
from .dataflow import CyclicDependency, DependencyGraph, build_graph
from .detectors import detect_all
from .errors import SheetLintError
from .evaluator import EvalResult, eval_in_order
from .intervals import load_interval_spec, run_interval_test
from .model import SpreadsheetProgram, instantiate, load_program
from . import report


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    common = argparse.ArgumentParser(add_help=False)
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

    p_check = sub.add_parser("check", parents=[common], help="run all fault detectors")
    p_check.add_argument("sheet", help="program in .sheet format")

    p_test = sub.add_parser("test", parents=[common], help="interval-based testing")
    p_test.add_argument("sheet", help="program in .sheet format")
    p_test.add_argument("intervals", help="input ranges and expectations")

    p_graph = sub.add_parser(
        "graph", parents=[common], help="dependency graph in DOT form (format flag is ignored)"
    )
    p_graph.add_argument("sheet", help="program in .sheet format")
    p_graph.add_argument(
        "--resolution",
        choices=("cell", "area"),
        default="cell",
        help="one node per cell, or one node per inferred area",
    )

    p_areas = sub.add_parser("areas", parents=[common], help="list inferred areas")
    p_areas.add_argument("sheet", help="program in .sheet format")

    return parser.parse_args(argv)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _evaluate(program: SpreadsheetProgram, graph: DependencyGraph) -> EvalResult | None:
    """Concrete values in the graph's order, or None for a cyclic program."""
    try:
        return eval_in_order(instantiate(program), graph.topo_order())
    except CyclicDependency:
        return None


def _cmd_check(args: argparse.Namespace) -> int:
    program = load_program(_read(args.sheet))
    diagnostics = detect_all(program, _evaluate(program, build_graph(program)))
    if args.format == "json":
        text = report.to_json(report.check_json(program, diagnostics, [args.sheet]))
    else:
        text = report.check_text(program, diagnostics, args.sheet)
    _emit(text, args.output)
    return 1 if diagnostics else 0


def _cmd_test(args: argparse.Namespace) -> int:
    program = load_program(_read(args.sheet))
    spec = load_interval_spec(_read(args.intervals), program)
    test_report = run_interval_test(instantiate(program), spec)
    if args.format == "json":
        text = report.to_json(
            report.test_json(program, test_report, [args.sheet, args.intervals])
        )
    else:
        text = report.test_text(test_report, args.sheet, args.intervals)
    _emit(text, args.output)
    return 1 if test_report.any_symptom() else 0


def _cmd_graph(args: argparse.Namespace) -> int:
    program = load_program(_read(args.sheet))
    graph = build_graph(program)
    physical = infer_physical_areas(program)
    logical = infer_logical_areas(program)
    diagnostics = detect_all(
        program, _evaluate(program, graph), physical=physical, logical=logical
    )
    if args.resolution == "area":
        text = report.area_graph_dot(program, graph, physical, logical, diagnostics)
    else:
        text = report.cell_graph_dot(program, graph, physical, logical, diagnostics)
    _emit(text, args.output)
    return 0


def _cmd_areas(args: argparse.Namespace) -> int:
    program = load_program(_read(args.sheet))
    physical = infer_physical_areas(program)
    logical = infer_logical_areas(program)
    if args.format == "json":
        text = report.to_json(report.areas_json(program, physical, logical, [args.sheet]))
    else:
        text = report.areas_text(physical, logical, args.sheet)
    _emit(text, args.output)
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "test": _cmd_test,
    "graph": _cmd_graph,
    "areas": _cmd_areas,
}


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SheetLintError as err:
        print(f"sheetlint: error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"sheetlint: error: {err}", file=sys.stderr)
        return 2
    except RecursionError:
        # The formula walkers recurse once per nesting level.
        print("sheetlint: error: formula nested too deeply to analyse", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
