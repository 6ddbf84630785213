"""Data dependencies between cells and their evaluation order.

An edge runs from a referenced cell to the formula that reads it.  A
formula reads the cells it references directly and every address its
ranges cover, including addresses that are empty; a formula depends
on the cell, not on whether something is there yet.

The graph keeps each range as one rectangle.  Only formulas need
ranking: every other cell has no precedents.  So the edges between
formulas are found through the program's occupied-cell index, and the
cell-level nodes, edges and precedents are derived from the rectangles
when asked for.  A topological order lists the non-empty cells only.

What each formula reads is listed once per program, in one walk of its
tree, by ``formula_reads``; the graph, D1, the physical areas and D4
all read that table.
"""

from __future__ import annotations

import functools
import heapq
from typing import Iterator

from .errors import SheetLintError
from .model import Formula, SpreadsheetProgram, cell_index, per_program
from .scl import CellAddress, Call, RangeArg, RangeRef, Reference, iter_nodes, row_major


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
    for addr, content in program.cells.items():
        if type(content) is not Formula:
            continue
        refs, ranges = table[addr] = [], []
        for node in iter_nodes(content.ast):
            kind = type(node)
            if kind is Reference:
                refs.append(node.ref.address())
            elif kind is Call:
                for arg in node.args:
                    if type(arg) is RangeArg:
                        ranges.append((node.name, arg.rng))
    return table


class DependencyGraph:
    """Reads-from relation over one program's cells."""

    def __init__(self, program: SpreadsheetProgram):
        self._program = program
        self._index = index = cell_index(program)
        cells = program.cells
        self._reads = formula_reads(program)
        # Formula -> the formulas it reads; formula -> those reading it.
        self._formula_precedents: dict[CellAddress, set[CellAddress]] = {}
        self._formula_dependents: dict[CellAddress, set[CellAddress]] = {}
        for addr, (refs, ranges) in self._reads.items():
            sources = {ref for ref in refs if type(cells.get(ref)) is Formula}
            for _, rect in ranges:
                sources.update(index.occupied(rect, "formula"))
            self._formula_precedents[addr] = sources
            for source in sources:
                self._formula_dependents.setdefault(source, set()).add(addr)
        self._cells_read_cache: dict[CellAddress, frozenset[CellAddress]] = {}

    @functools.cached_property
    def nodes(self) -> set[CellAddress]:
        """Every non-empty cell and every address a formula reads."""
        nodes = set(self._program.cells)
        for refs, ranges in self._reads.values():
            nodes.update(refs)
            for _, rect in ranges:
                nodes.update(self._index.empty(rect))
        return nodes

    def edges(self) -> Iterator[tuple[CellAddress, CellAddress]]:
        """All (referenced, referencing) pairs in row-major order."""
        pairs = [
            (source, target) for target in self._reads for source in self._cells_read(target)
        ]
        pairs.sort(key=lambda pair: (pair[0].row, pair[0].col, pair[1].row, pair[1].col))
        return iter(pairs)

    def precedents(self, addr: CellAddress) -> set[CellAddress]:
        """Cells an address reads directly."""
        return set(self._cells_read(addr))

    def _cells_read(self, addr: CellAddress) -> frozenset[CellAddress]:
        # Built once per formula, on first use.
        found = self._cells_read_cache.get(addr)
        if found is None:
            found = frozenset()
            if addr in self._reads:
                refs, ranges = self._reads[addr]
                cells = set(refs)
                for _, rect in ranges:
                    cells.update(self._index.occupied(rect))
                    cells.update(self._index.empty(rect))
                found = frozenset(cells)
            self._cells_read_cache[addr] = found
        return found

    def topo_order(self) -> list[CellAddress]:
        """Every non-empty cell, precedents before dependents.

        Cells other than formulas read nothing, so they come first in
        row-major order; the formulas follow, each after the formulas
        it reads, ties broken row-major.  The order is a pure function
        of the program.  Raises CyclicDependency with a witness cycle.
        """
        order = [addr for addr in self._program.cells if addr not in self._reads]
        indegree = {addr: len(sources) for addr, sources in self._formula_precedents.items()}
        ready = [(row_major(addr), addr) for addr, deg in indegree.items() if deg == 0]
        heapq.heapify(ready)
        while ready:
            _, node = heapq.heappop(ready)
            order.append(node)
            for dependent in self._formula_dependents.get(node, ()):
                indegree[dependent] -= 1
                if indegree[dependent] == 0:
                    heapq.heappush(ready, (row_major(dependent), dependent))
        if len(order) < len(self._program.cells):
            raise CyclicDependency(self._witness_cycle(set(self._reads) - set(order)))
        return order

    def _witness_cycle(self, remaining: set[CellAddress]) -> list[CellAddress]:
        # Every remaining formula keeps at least one formula precedent
        # within the remainder, so walking precedents must loop.
        start = min(remaining, key=row_major)
        path: list[CellAddress] = []
        index: dict[CellAddress, int] = {}
        cell = start
        while cell not in index:
            index[cell] = len(path)
            path.append(cell)
            cell = min(self._formula_precedents[cell] & remaining, key=row_major)
        cycle = path[index[cell]:]
        pivot = cycle.index(min(cycle, key=row_major))
        return cycle[pivot:] + cycle[:pivot]


def build_graph(program: SpreadsheetProgram) -> DependencyGraph:
    """The dependency graph over all non-empty and referenced cells."""
    return DependencyGraph(program)
