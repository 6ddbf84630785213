"""What a range reads, found address by address.

The reference the index-based readers are checked against: it walks
every address a rectangle covers, as the graph, D1, the evaluator and
the DOT claims did before they read through the occupied-cell index.
It also keeps `test`'s suspect search as it was before it sorted one
distance at a time.
"""

from itertools import groupby

from sheetlint.scl import CellAddress, CellRef, RangeRef, rect_key


def node_key(node):
    """Row-major by top-left cell, then by bottom-right cell."""
    if isinstance(node, RangeRef):
        return (node.start.row, node.start.col, node.end.row, node.end.col)
    return (node.row, node.col)


def empty_runs(program, rect):
    """Each maximal run of empty cells in one column of ``rect``, column
    by column: a run of one as its address, a longer one as a range."""
    rows_by_col = {}
    for addr in rect.cells():
        if program.content(addr) is None:
            rows_by_col.setdefault(addr.col, []).append(addr.row)
    runs = []
    for col in sorted(rows_by_col):
        rows = sorted(rows_by_col[col])
        # Rows of one run share their distance from the run's position.
        for _, run in groupby(enumerate(rows), key=lambda item: item[1] - item[0]):
            run = [row for _, row in run]
            if len(run) == 1:
                runs.append(CellAddress(col, run[0]))
            else:
                runs.append(RangeRef(CellRef(col, run[0]), CellRef(col, run[-1])))
    return runs


def parts(program, rect):
    """The occupied cells and empty runs of ``rect``, by ``node_key``."""
    occupied = [addr for addr in rect.cells() if program.content(addr) is not None]
    return sorted(occupied + empty_runs(program, rect), key=node_key)


def suspects(graph, addr, symptomatic):
    """The suspects of a symptomatic cell, found as `test` once did: the
    distance of every transitive precedent, then one sort of them all by
    distance, symptomatic first, and ``rect_key``."""
    distance = {}
    frontier = [addr]
    step = 0
    while frontier:
        step += 1
        nxt = []
        for cell in frontier:
            for pre in graph.precedents(cell):
                if pre not in distance and pre != addr:
                    distance[pre] = step
                    nxt.append(pre)
        frontier = nxt
    ordered = sorted(
        distance,
        key=lambda a: (distance[a], 0 if a in symptomatic else 1, rect_key(a)),
    )
    return tuple(ordered)
