"""Data dependencies between cells and their evaluation order.

An edge runs from a referenced cell to the formula that reads it, so a
topological order lists every cell after all of its precedents.  Ranges
contribute one edge per covered address, including addresses that are
empty; a formula depends on the cell, not on whether something is
there yet.
"""

from __future__ import annotations

import heapq
from typing import Iterator

from .errors import SheetLintError
from .model import Formula, SpreadsheetProgram
from .scl import CellAddress, FormulaNode, RangeArg, Reference, iter_nodes, row_major


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


def referenced_addresses(ast: FormulaNode) -> Iterator[CellAddress]:
    """Every address a formula reads, ranges expanded, in source order.

    Addresses referenced more than once appear more than once.
    """
    for node in iter_nodes(ast):
        if isinstance(node, Reference):
            yield node.ref.address()
        elif isinstance(node, RangeArg):
            yield from node.rng.cells()


class DependencyGraph:
    """Reads-from relation over one program's cells."""

    def __init__(self, program: SpreadsheetProgram):
        self._precedents: dict[CellAddress, set[CellAddress]] = {}
        self._dependents: dict[CellAddress, set[CellAddress]] = {}
        self.nodes: set[CellAddress] = set(program.cells)
        for addr, content in program.cells.items():
            if not isinstance(content, Formula):
                continue
            for source in referenced_addresses(content.ast):
                self.nodes.add(source)
                self._precedents.setdefault(addr, set()).add(source)
                self._dependents.setdefault(source, set()).add(addr)

    def edges(self) -> Iterator[tuple[CellAddress, CellAddress]]:
        """All (referenced, referencing) pairs in row-major order."""
        for source in sorted(self._dependents, key=row_major):
            for target in sorted(self._dependents[source], key=row_major):
                yield source, target

    def precedents(self, addr: CellAddress) -> set[CellAddress]:
        """Cells an address reads directly."""
        return set(self._precedents.get(addr, ()))

    def topo_order(self) -> list[CellAddress]:
        """Every node, precedents before dependents.

        Ties break row-major, so the order is a pure function of the
        program.  Raises CyclicDependency with a witness cycle.
        """
        indegree = {node: len(self._precedents.get(node, ())) for node in self.nodes}
        ready = [(row_major(node), node) for node, deg in indegree.items() if deg == 0]
        heapq.heapify(ready)
        order: list[CellAddress] = []
        while ready:
            _, node = heapq.heappop(ready)
            order.append(node)
            for dependent in self._dependents.get(node, ()):
                indegree[dependent] -= 1
                if indegree[dependent] == 0:
                    heapq.heappush(ready, (row_major(dependent), dependent))
        if len(order) < len(self.nodes):
            raise CyclicDependency(self._witness_cycle(set(self.nodes) - set(order)))
        return order

    def _witness_cycle(self, remaining: set[CellAddress]) -> list[CellAddress]:
        # Every remaining node keeps at least one precedent within the
        # remainder, so walking precedents must loop.
        start = min(remaining, key=row_major)
        path: list[CellAddress] = []
        index: dict[CellAddress, int] = {}
        cell = start
        while cell not in index:
            index[cell] = len(path)
            path.append(cell)
            cell = min(self._precedents[cell] & remaining, key=row_major)
        cycle = path[index[cell]:]
        pivot = cycle.index(min(cycle, key=row_major))
        return cycle[pivot:] + cycle[:pivot]


def build_graph(program: SpreadsheetProgram) -> DependencyGraph:
    """The dependency graph over all non-empty and referenced cells."""
    return DependencyGraph(program)
