"""The occupied-cell index against a brute-force oracle.

The oracle walks every address a range covers, as the graph, D1, D2
and majority types did before they read through the index, and groups
the empty ones into runs (see range_oracle).  The new code must agree
with it on the random corpus, the injection sheets, every fixture and
a few crafted edge cases.
"""

import heapq
import pathlib
import random
from collections import Counter

import pytest

import corpus
import injection
import range_oracle
from sheetlint import cli
from sheetlint.areas import infer_physical_areas
from sheetlint.dataflow import CyclicDependency, build_graph
from sheetlint.detectors import (
    Code,
    detect_all,
    detect_blank_ref,
    detect_incorrect_range,
    detect_wrong_type_in_range,
)
from sheetlint.intervals import Interval, IntervalSpec, run_interval_test
from sheetlint.model import Label, SpreadsheetProgram, cell_index, content_kind, instantiate, load_program
from sheetlint.scl import CellRef, RangeArg, RangeRef, Reference, iter_nodes, parse_address, row_major

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"

CRAFTED = {
    # Column B of the range is empty throughout.
    "empty-column": (
        'A1 = #1\nA2 = #2\nC1 = #3\nC3 = "t"\nA4 = =SUM(A1:C3)\nB4 = =A4+B2\n'
    ),
    # Wholly empty ranges, and a direct reference to an empty cell.
    "empty-range": "B1 = =SUM(A1:A4)\nC1 = =MAX(E5:F6)+COUNT(E5:E5)\nD1 = =G9*2\n",
    "labels-at-both-ends": (
        'A1 = "top"\nA2 = #1\nA3 = #2\nA4 = "bottom"\nB5 = =SUM(A1:A4)\n'
    ),
    "own-consumer": "B1 = #1\nB2 = =SUM(B1:B3)\n",
    # Formulas read each other through two-column ranges.
    "formulas-in-ranges": (
        "A1 = ?1\nB1 = =A1*2\nA2 = =SUM(A1:B1)\nB2 = =A2+1\n"
        "C3 = =SUM(A1:B2)+SUM(B1:B2)\nA3 = =COUNT(A1:A2)\n"
    ),
}


def _sources():
    fixtures = [(p.name, load_program(p.read_text())) for p in sorted(FIXTURES.glob("*.sheet"))]
    injected = []
    for k, case in enumerate(injection.cases(5)):
        injected.append((f"{case.code}-{k}-clean", load_program(case.clean)))
        injected.append((f"{case.code}-{k}-faulty", load_program(case.faulty)))
    return {
        "corpus": [(f"corpus-{cp.seed}", cp.program) for cp in corpus.corpus(300)],
        "injection": injected,
        "fixtures": fixtures,
        "crafted": [(name, load_program(text)) for name, text in CRAFTED.items()],
    }


SOURCES = _sources()


# ---------------------------------------------------------------------------
# The oracle: every range walked address by address


def oracle_reads(program):
    """What each formula reads, in source order: its direct references,
    and for each range its occupied cells and empty runs."""
    reads = {}
    for addr, cell in program.formula_cells():
        found = []
        for node in iter_nodes(cell.ast):
            if type(node) is Reference:
                found.append(node.ref.address())
            elif type(node) is RangeArg:
                found.extend(range_oracle.parts(program, node.rng))
        reads[addr] = found
    return reads


def oracle_graph(program):
    reads = oracle_reads(program)
    nodes = set(program.cells).union(*reads.values())
    precedents = {node: set(reads.get(node, ())) for node in nodes}
    edges = sorted(
        ((source, target) for target in reads for source in precedents[target]),
        key=lambda pair: (range_oracle.node_key(pair[0]), row_major(pair[1])),
    )
    return nodes, precedents, edges


def oracle_topo_order(program, precedents):
    """The cells other than formulas row-major, then the formulas by
    Kahn's sort over the formulas each reads, taking the row-major
    first ready one each time."""
    formulas = {addr for addr, _ in program.formula_cells()}
    leaves = sorted(set(program.cells) - formulas, key=row_major)
    reads = {addr: precedents[addr] & formulas for addr in formulas}
    readers = {addr: [] for addr in formulas}
    for addr, sources in reads.items():
        for source in sources:
            readers[source].append(addr)
    waiting = {addr: len(sources) for addr, sources in reads.items()}
    ready = [(row_major(addr), addr) for addr, count in waiting.items() if count == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        _, addr = heapq.heappop(ready)
        order.append(addr)
        for reader in readers[addr]:
            waiting[reader] -= 1
            if waiting[reader] == 0:
                heapq.heappush(ready, (row_major(reader), reader))
    assert len(order) == len(formulas), "acyclic"
    return leaves + order


def oracle_blank_refs(program):
    found = [
        ((source,), f"{addr} reads empty {'cells' if isinstance(source, RangeRef) else 'cell'} {source}")
        for addr, read in oracle_reads(program).items()
        for source in dict.fromkeys(read)
        if program.content(source) is None
    ]
    return sorted(found, key=lambda f: (range_oracle.node_key(f[0][0]), f[1]))


def oracle_labels(program):
    """One finding per label inside any range: the first range that
    covers it, row-major by consumer, and the count of the others."""
    covering = {}
    for area in infer_physical_areas(program):
        for addr in area.rect.cells():
            if isinstance(program.content(addr), Label):
                covering.setdefault(addr, []).append(area)
    found = []
    for addr, (area, *others) in covering.items():
        more = ""
        if others:
            more = f" and {len(others)} other range" + ("s" if len(others) > 1 else "")
        message = (
            f"label at {addr} lies inside {area.function} range "
            f"{area.rect} of {area.consumer}{more}; a number typed there "
            f"would silently join the aggregate"
        )
        found.append(((addr,), message, area))
    return sorted(found, key=lambda f: (row_major(f[0][0]), f[1]))


def oracle_majority(program, rect):
    counts = Counter(
        content_kind(program.content(a)) for a in rect.cells() if program.content(a) is not None
    )
    if not counts:
        return None
    priority = ("constant", "input", "formula", "label")
    return max(counts, key=lambda kind: (counts[kind], -priority.index(kind)))


# ---------------------------------------------------------------------------


@pytest.fixture(params=sorted(SOURCES))
def named_programs(request):
    return SOURCES[request.param]


# Each source read nodes first, and a fresh copy of it, with no graph
# built yet, read edges first: ``nodes`` reads the sources cache that
# ``edges()`` fills.
GRAPH_READS = [pytest.param(source, False, id=source) for source in sorted(SOURCES)] + [
    pytest.param(source, True, id=f"{source}-edges-first") for source in sorted(SOURCES)
]


class TestAgainstOracle:
    @pytest.mark.parametrize("source, edges_first", GRAPH_READS)
    def test_graph(self, source, edges_first):
        for name, program in SOURCES[source]:
            nodes, precedents, edges = oracle_graph(program)
            if edges_first:
                graph = build_graph(SpreadsheetProgram(program.cells, program.copy_classes))
                assert list(graph.edges()) == edges, name
                assert graph.nodes == nodes, name
            else:
                graph = build_graph(program)
                assert graph.nodes == nodes, name
                assert list(graph.edges()) == edges, name
            for node in nodes:
                assert graph.precedents(node) == precedents[node], (name, node)

    def test_blank_refs(self, named_programs):
        for name, program in named_programs:
            got = [(d.cells, d.message) for d in detect_blank_ref(program)]
            assert got == oracle_blank_refs(program), name

    def test_labels_in_ranges(self, named_programs):
        for name, program in named_programs:
            got = [(d.cells, d.message, d.area) for d in detect_wrong_type_in_range(program)]
            assert got == oracle_labels(program), name

    def test_majority_types(self, named_programs):
        for name, program in named_programs:
            for area in infer_physical_areas(program):
                assert area.majority_type == oracle_majority(program, area.rect), (name, area)

    def test_suspects(self):
        # About half the formulas get an expectation the value misses or
        # the bound cannot hold, so cells at one distance from a symptom
        # are a mix of symptomatic and clean: some suspect lists differ
        # from the one with no symptom to put first.
        mixed = 0
        for name, program in [named for programs in SOURCES.values() for named in programs]:
            rng = random.Random(name)
            formulas = [addr for addr, _ in program.formula_cells()]
            expected = {addr: Interval(0, 1) for addr in formulas if rng.random() < 0.5}
            try:
                report = run_interval_test(instantiate(program), IntervalSpec({}, expected))
            except CyclicDependency:
                continue
            graph = build_graph(program)
            symptomatic = {row.cell for row in report.rows if row.symptomatic}
            for row in report.rows:
                if row.symptomatic:
                    oracle = range_oracle.suspects(graph, row.cell, symptomatic)
                    assert row.suspects == oracle, (name, row.cell)
                    mixed += oracle != range_oracle.suspects(graph, row.cell, set())
        assert mixed > 0

    def test_topo_order(self, named_programs):
        for name, program in named_programs:
            _, precedents, _ = oracle_graph(program)
            try:
                order = build_graph(program).topo_order()
            except CyclicDependency as err:
                # The witness is a loop of formulas, each reading the next.
                loop = err.cycle + err.cycle[:1]
                for cell, nxt in zip(loop, loop[1:]):
                    assert nxt in precedents[cell], name
                continue
            assert order == oracle_topo_order(program, precedents), name


class TestCrafted:
    def test_own_consumer_is_the_cycle_witness(self):
        program = load_program(CRAFTED["own-consumer"])
        (diag,) = [d for d in detect_all(program) if d.code is Code.G_CYCLE]
        assert [str(a) for a in diag.cells] == ["B2"]

    def test_empty_column_reads(self):
        program = load_program(CRAFTED["empty-column"])
        # Column B of the range is one run; B4 reads B2 on its own.
        assert [d.message for d in detect_blank_ref(program)] == [
            "A4 reads empty cells B1:B3",
            "B4 reads empty cell B2",
            "A4 reads empty cell C2",
            "A4 reads empty cell A3",
        ]

    def test_index_queries(self):
        program = load_program(CRAFTED["empty-column"])
        index = cell_index(program)
        rect = RangeRef(CellRef(1, 1), CellRef(3, 3))
        assert [str(a) for a in index.occupied(rect)] == ["A1", "A2", "C1", "C3"]
        assert [str(a) for a in index.occupied(rect, "label")] == ["C3"]
        assert index.count(rect, "constant") == 3
        assert [str(a) for a in index.empty_runs(rect)] == ["A3", "B1:B3", "C2"]
        assert [str(a) for a in index.parts(rect)] == ["A1", "B1:B3", "C1", "A2", "C2", "A3", "C3"]
        # Every occupied cell a query returns is the program's own key,
        # and so is every one the graph keeps as a source.
        own = {addr: addr for addr in program.cells}
        sources = build_graph(program).sources(parse_address("A4"))
        for found in (
            index.occupied(rect),
            index.occupied(rect, "label"),
            [part for part in index.parts(rect) if part in own],
            [node for node in sources if node in own],
        ):
            assert found
            assert [id(addr) for addr in found] == [id(own[addr]) for addr in found]


# ---------------------------------------------------------------------------
# A range of 10**8 addresses around two cells


HUGE = 'A5 = #1\nA7 = "x"\nB1 = =SUM(A1:A99999999)\n'


@pytest.fixture
def no_range_walks(monkeypatch):
    def refuse(self):
        raise AssertionError(f"walked every address of {self}")

    monkeypatch.setattr(RangeRef, "cells", refuse)


@pytest.mark.usefixtures("no_range_walks")
class TestHugeRange:
    """The sparse paths never visit the covered addresses."""

    def test_physical_area(self):
        (area,) = infer_physical_areas(load_program(HUGE))
        assert area.majority_type == "constant"

    def test_label_and_adjoining_detectors(self):
        program = load_program(HUGE)
        assert [d.cells for d in detect_wrong_type_in_range(program)] == [
            (parse_address("A7"),)
        ]
        assert detect_incorrect_range(program) == []

    def test_topo_order(self):
        order = build_graph(load_program(HUGE)).topo_order()
        assert [str(a) for a in order] == ["A5", "A7", "B1"]

    def test_areas_command(self, tmp_path, capsys):
        sheet = tmp_path / "huge.sheet"
        sheet.write_text(HUGE)
        assert cli.main(["areas", str(sheet)]) == 0
        assert "SUM A1:A99999999 -> B1 (mostly constant)" in capsys.readouterr().out
