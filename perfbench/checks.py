"""Output checks: compare what a sheetlint command printed with the
answers the generator computed.  Each check returns a list of problems,
empty when the output is right."""

from __future__ import annotations

import json
import re

from gen import Workload

_DOT_NODE = re.compile(r'^\s*"([A-Z]+[0-9]+)" \[', re.MULTILINE)


def expected_exit(w: Workload, command: str) -> int:
    if command == "check":
        return 1
    if command == "test":
        return 1 if w.symptoms else 0
    return 0


def _json(data: bytes) -> tuple[dict | None, list[str]]:
    try:
        return json.loads(data), []
    except ValueError as err:
        return None, [f"output is not JSON: {err}"]


def check_check(w: Workload, data: bytes) -> list[str]:
    """Every planted (code, cell) is reported.  Precision is not checked."""
    doc, problems = _json(data)
    if doc is None:
        return problems
    found = {(d["code"], cell) for d in doc["diagnostics"] for cell in d["cells"]}
    return [f"planted {code} at {cell} not reported"
            for code, cell in w.planted if (code, cell) not in found]


def check_test(w: Workload, data: bytes) -> list[str]:
    """One row per formula cell with the generator's value and verdict."""
    doc, problems = _json(data)
    if doc is None:
        return problems
    rows = {row["cell"]: row for row in doc["interval_test"]["rows"]}
    if set(rows) != set(w.values):
        problems.append(f"rows for {len(rows)} cells, expected {len(w.values)} formula cells")
    for cell, value in w.values.items():
        row = rows.get(cell)
        if row is None:
            continue
        got = row["value"]
        if got.get("kind") != "number" or got.get("value") != value:
            problems.append(f"{cell}: value {got}, expected {value}")
        if row["verdict"] != w.verdicts[cell]:
            problems.append(f"{cell}: verdict {row['verdict']}, expected {w.verdicts[cell]}")
    if doc["interval_test"]["symptoms"] != w.symptoms:
        problems.append(f"{doc['interval_test']['symptoms']} symptoms, expected {w.symptoms}")
    return problems


def check_graph(w: Workload, data: bytes) -> list[str]:
    """DOT text naming every non-empty cell as a node."""
    text = data.decode("utf-8", "replace")
    if not text.startswith("digraph"):
        return ["output does not start with 'digraph'"]
    missing = set(w.nonempty) - set(_DOT_NODE.findall(text))
    return [f"{len(missing)} non-empty cells missing from DOT, e.g. {sorted(missing)[:3]}"] if missing else []


def check_areas(w: Workload, data: bytes) -> list[str]:
    """One physical area per range argument written."""
    doc, problems = _json(data)
    if doc is None:
        return problems
    physical = len(doc["areas"]["physical"])
    if physical != w.range_args:
        problems.append(f"{physical} physical areas, expected {w.range_args}")
    return problems


CHECKS = {"check": check_check, "test": check_test, "graph": check_graph, "areas": check_areas}


def check_output(w: Workload, command: str, exit_code: int, data: bytes) -> list[str]:
    """All checks for one command's exit code and output."""
    want = expected_exit(w, command)
    problems = [] if exit_code == want else [f"exit code {exit_code}, expected {want}"]
    if exit_code in (0, 1):
        try:
            problems += CHECKS[command](w, data)
        except (KeyError, TypeError, AttributeError) as err:
            problems.append(f"output lacks the expected structure: {err!r}")
    return problems
