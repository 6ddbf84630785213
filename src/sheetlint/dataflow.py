"""Data dependencies between cells and their evaluation order.

An edge runs from what a formula reads to the formula.  A formula
reads the cells it references directly, empty or not, and through each
range the occupied cells there and the empty runs between them: an
empty run is a maximal run of empty cells in one column of the range,
one node however many addresses it spans (a run of one is its cell).
A formula depends on the cells, not on whether something is there yet.

The graph keeps each range as one rectangle.  Only formulas need
ranking: every other cell has no precedents.  So the edges between
formulas are found through the program's occupied-cell index.  Each
formula's sources, the cells and empty runs it reads, are listed once,
when first asked for; the nodes, edges and precedents all read them.
A topological order lists the non-empty cells only, ties broken
row-major.  On a sheet laid out top-down, where each formula's
references to formulas and the bottom-right corner of each of its
ranges come before it row-major, that order is the other cells and
then the formulas, each row-major, found in one pass with no edges
built; otherwise a min-heap sort over the edges between formulas finds
it, or a cycle.
Nodes sort by ``scl.rect_key``: row-major by their top-left cells.
The graph is built once per program and its order found once, so
callers must not mutate the list ``topo_order()`` returns.

What each formula reads is listed once per program, in one walk of its
tree, by ``formula_reads``; the graph, D1, the physical areas and D4
all read that table.
"""

from __future__ import annotations

import functools
import heapq
from typing import Iterator, Union

from .model import Formula, SpreadsheetProgram, cell_index, per_program
from .scl import (
    CellAddress,
    Call,
    RangeArg,
    RangeRef,
    Reference,
    SheetLintError,
    iter_nodes,
    rect_key,
    row_major,
)

# A graph node: a cell, or a run of empty cells in one column.
Node = Union[CellAddress, RangeRef]


class CyclicDependency(SheetLintError):
    """Formulas form a reference cycle.

    ``cycle`` lists the cells once around the loop, starting at the
    row-major smallest member, each cell followed by one it references;
    ``path`` spells the loop, back to its first cell.
    """

    def __init__(self, cycle: list[CellAddress]):
        self.cycle = list(cycle)
        self.path = " -> ".join(str(a) for a in self.cycle + self.cycle[:1])
        super().__init__(f"cyclic dependency: {self.path}")


@per_program
def formula_reads(
    program: SpreadsheetProgram,
) -> dict[CellAddress, tuple[list[CellAddress], list[tuple[str, RangeRef]]]]:
    """Each formula cell, row-major, mapped to what it reads: the
    addresses it references directly, in source order with repeats
    kept, and one (function, rectangle) pair per range argument, by
    call top-down and then argument left to right."""
    table = {}
    # A reference's column and row are 1 or more, as the parser built
    # it, so its address is built in C without CellAddress's check.
    new = tuple.__new__
    for addr, content in program.cells.items():
        if type(content) is not Formula:
            continue
        refs, ranges = table[addr] = [], []
        for node in iter_nodes(content.ast):
            kind = type(node)
            if kind is Reference:
                refs.append(new(CellAddress, node.ref[:2]))
            elif kind is Call:
                for arg in node.args:
                    if type(arg) is RangeArg:
                        ranges.append((node.name, arg.rng))
    return table


class DependencyGraph:
    """Reads-from relation over one program's cells."""

    def __init__(self, program: SpreadsheetProgram):
        self._index = cell_index(program)
        self._reads = formula_reads(program)
        # Cells other than formulas, row-major.  Kept on the program,
        # the graph holds these, not it, to form no reference cycle.
        self._leaves = [addr for addr in program.cells if addr not in self._reads]
        self._sources_cache: dict[Node, tuple[Node, ...]] = {}

    @functools.cached_property
    def nodes(self) -> set[Node]:
        """Every non-empty cell and everything a formula reads."""
        nodes = {*self._leaves, *self._reads}
        for target in self._reads:
            nodes.update(self.sources(target))
        return nodes

    def readers(self) -> dict[Node, list[CellAddress]]:
        """Each node a formula reads, mapped to the formulas reading it,
        row-major; the keys come in no set order.  Built anew each
        call, so it is held only while its caller walks it."""
        readers: dict[Node, list[CellAddress]] = {}
        # Formulas come row-major, so each list is built in order.
        for target in self._reads:
            for source in self.sources(target):
                readers.setdefault(source, []).append(target)
        return readers

    def edges(self) -> Iterator[tuple[Node, CellAddress]]:
        """All (read, reading) pairs, by the read node's ``rect_key``
        and then the formula row-major.  The call builds ``readers()``;
        the pairs come as they are iterated."""
        readers = self.readers()
        return (
            (source, target)
            for source in sorted(readers, key=rect_key)
            for target in readers[source]
        )

    def precedents(self, node: Node) -> set[Node]:
        """What a node reads directly: nothing unless it is a formula."""
        return set(self.sources(node))

    def sources(self, node: Node) -> tuple[Node, ...]:
        """What a node reads directly, each once, in no set order: the
        tuple is built once per formula, on first use, and shared by
        every caller.  Other nodes read nothing."""
        found = self._sources_cache.get(node)
        if found is None:
            if node not in self._reads:
                return ()
            refs, ranges = self._reads[node]
            sources = set(refs)
            for _, rect in ranges:
                sources.update(self._index.occupied(rect))
                sources.update(self._index.empty_runs(rect))
            found = self._sources_cache[node] = tuple(sources)
        return found

    def topo_order(self) -> list[CellAddress]:
        """Every non-empty cell, precedents before dependents.

        Cells other than formulas read nothing, so they come first in
        row-major order; the formulas follow, each after the formulas
        it reads, ties broken row-major: of the formulas whose
        precedents are placed, the row-major first comes next.  Where
        every formula reads only cells before it row-major, that is the
        formulas row-major, taken without a sort.  The order is a
        pure function of the program, found once: every call returns
        the same list.
        Raises a new CyclicDependency with a witness cycle each call.
        """
        order, cycle = self._sorted
        if cycle is not None:
            raise CyclicDependency(cycle)
        return order

    @functools.cached_property
    def _sorted(self) -> tuple:
        # (order, None), or (None, witness cycle): a kept exception
        # would hold this graph through its traceback once raised.  The
        # edges between formulas serve only the sort, so none is kept.
        reads = self._reads
        if not self._reads_ahead():
            # The first formula not yet placed reads only placed ones,
            # so the heap would place the formulas row-major.
            return [*self._leaves, *reads], None
        # Formula -> the formulas it reads; formula -> those reading it.
        precedents: dict[CellAddress, set[CellAddress]] = {}
        dependents: dict[CellAddress, set[CellAddress]] = {}
        for addr, (refs, ranges) in reads.items():
            sources = {ref for ref in refs if ref in reads}
            for _, rect in ranges:
                sources.update(self._index.occupied(rect, "formula"))
            precedents[addr] = sources
            for source in sources:
                dependents.setdefault(source, set()).add(addr)
        order = list(self._leaves)
        indegree = {addr: len(sources) for addr, sources in precedents.items()}
        ready = [(row_major(addr), addr) for addr, deg in indegree.items() if deg == 0]
        heapq.heapify(ready)
        while ready:
            _, node = heapq.heappop(ready)
            order.append(node)
            for dependent in dependents.get(node, ()):
                indegree[dependent] -= 1
                if indegree[dependent] == 0:
                    heapq.heappush(ready, (row_major(dependent), dependent))
        if len(order) < len(self._leaves) + len(reads):
            return None, _witness_cycle(precedents, set(reads) - set(order))
        return order, None

    def _reads_ahead(self) -> bool:
        """Whether some formula may read itself or a formula after it in
        row-major order: directly, or through a range whose bottom-right
        corner, its row-major last cell, lies at or after it.  Every
        cycle holds one."""
        reads = self._reads
        for host, (refs, ranges) in reads.items():
            at = row_major(host)
            for ref in refs:
                if row_major(ref) >= at and ref in reads:
                    return True
            for _, rect in ranges:
                if (rect.end.row, rect.end.col) >= at:
                    return True
        return False


def _witness_cycle(
    precedents: dict[CellAddress, set[CellAddress]], remaining: set[CellAddress]
) -> list[CellAddress]:
    # Every remaining formula keeps at least one formula precedent
    # within the remainder, so walking precedents must loop.
    start = min(remaining, key=row_major)
    path: list[CellAddress] = []
    index: dict[CellAddress, int] = {}
    cell = start
    while cell not in index:
        index[cell] = len(path)
        path.append(cell)
        cell = min(precedents[cell] & remaining, key=row_major)
    cycle = path[index[cell]:]
    pivot = cycle.index(min(cycle, key=row_major))
    return cycle[pivot:] + cycle[:pivot]


@per_program
def build_graph(program: SpreadsheetProgram) -> DependencyGraph:
    """The dependency graph over all non-empty and referenced cells,
    built once per program."""
    return DependencyGraph(program)
