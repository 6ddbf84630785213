"""Dependency graph tests: reachability, ordering, cycle witnesses."""

import pickle

import pytest

from sheetlint.dataflow import CyclicDependency, build_graph
from sheetlint.detectors import detect_blank_ref
from sheetlint.model import load_program
from sheetlint.scl import CellRef, RangeRef, parse_address

DIAMOND = "A1 = ?1\nB1 = =A1+1\nB2 = =A1*2\nC1 = =B1+B2\n"


def addrs(items):
    return [str(a) for a in items]


class TestReferencedAddresses:
    """What a formula reads: its direct references, and through its
    ranges the occupied cells and the runs of empty cells between them,
    as the graph's precedents and D1 see it."""

    @staticmethod
    def reads(formula, others=""):
        program = load_program(others + "Z9 = =" + formula + "\n")
        graph = build_graph(program)
        blank = [d.message for d in detect_blank_ref(program)]
        return sorted(addrs(graph.precedents(parse_address("Z9")))), blank

    def test_scalar_and_range_references(self):
        precedents, blank = self.reads("A1+SUM(B1:B3)", "B2 = #1\n")
        assert precedents == ["A1", "B1", "B2", "B3"]
        assert blank == ["Z9 reads empty cell A1", "Z9 reads empty cell B1",
                         "Z9 reads empty cell B3"]

    def test_address_read_twice_counts_once(self):
        precedents, blank = self.reads("SUM(A1:A1,A1)")
        assert precedents == ["A1"]
        assert blank == ["Z9 reads empty cell A1"]

    def test_empty_run_is_one_read(self):
        # A1 is read directly and inside the run A1:A3: two reads.
        precedents, blank = self.reads("SUM(A1:A3,A1)+SUM(B1:C4)", "B2 = #1\nC4 = #2\n")
        assert precedents == ["A1", "A1:A3", "B1", "B2", "B3:B4", "C1:C3", "C4"]
        assert blank == [
            "Z9 reads empty cell A1",
            "Z9 reads empty cells A1:A3",
            "Z9 reads empty cell B1",
            "Z9 reads empty cells C1:C3",
            "Z9 reads empty cells B3:B4",
        ]

    def test_absolute_markers_do_not_matter(self):
        precedents, blank = self.reads("$A$1+A1")
        assert precedents == ["A1"]
        assert blank == ["Z9 reads empty cell A1"]


class TestGraph:
    def test_edges_point_from_referenced_to_referencing(self):
        graph = build_graph(load_program(DIAMOND))
        assert [(str(s), str(t)) for s, t in graph.edges()] == [
            ("A1", "B1"),
            ("A1", "B2"),
            ("B1", "C1"),
            ("B2", "C1"),
        ]

    def test_readers_map_each_read_node_to_its_formulas_row_major(self):
        graph = build_graph(load_program("A1 = ?1\nB2 = =SUM(A1:A3)\nB1 = =A1+A2\n"))
        readers = {str(s): addrs(targets) for s, targets in graph.readers().items()}
        assert sorted(readers.items()) == [("A1", ["B1", "B2"]), ("A2", ["B1"]), ("A2:A3", ["B2"])]
        # Each call builds its own map.
        assert graph.readers() is not graph.readers()

    def test_precedents_and_dependents(self):
        graph = build_graph(load_program(DIAMOND))
        c1 = parse_address("C1")
        a1 = parse_address("A1")
        assert addrs(sorted(graph.precedents(c1), key=str)) == ["B1", "B2"]
        assert addrs(sorted(graph.precedents(parse_address("B1")), key=str)) == ["A1"]
        assert graph.precedents(a1) == set()
        # Dependents are the targets of a cell's edges.
        assert addrs(target for source, target in graph.edges() if source == a1) == [
            "B1",
            "B2",
        ]

    def test_referenced_empty_cells_become_nodes(self):
        graph = build_graph(load_program("B2 = #1\nB12 = =SUM(B2:B4)+B7\n"))
        run = RangeRef(CellRef(2, 3), CellRef(2, 4))
        # The run B3:B4 is one node; its cells are not nodes of their own.
        assert run in graph.nodes
        assert parse_address("B3") not in graph.nodes
        assert parse_address("B7") in graph.nodes
        assert graph.precedents(run) == set()
        assert [(str(s), str(t)) for s, t in graph.edges()] == [
            ("B2", "B12"),
            ("B3:B4", "B12"),
            ("B7", "B12"),
        ]

    def test_leaf_cells_have_no_edges(self):
        graph = build_graph(load_program('A1 = #1\nA2 = "note"\n'))
        assert list(graph.edges()) == []


class TestTopoOrder:
    def test_diamond_order(self):
        graph = build_graph(load_program(DIAMOND))
        assert addrs(graph.topo_order()) == ["A1", "B1", "B2", "C1"]

    def test_precedents_come_first(self):
        text = "A3 = =A2+1\nA2 = =A1+1\nA1 = ?1\nB1 = =SUM(A1:A3)\n"
        order = addrs(build_graph(load_program(text)).topo_order())
        assert order.index("A1") < order.index("A2") < order.index("A3")
        assert order.index("A3") < order.index("B1")

    def test_ties_break_row_major(self):
        text = "B1 = #1\nA2 = #2\nA1 = #3\nB2 = =A1+1\n"
        order = addrs(build_graph(load_program(text)).topo_order())
        assert order == ["A1", "B1", "A2", "B2"]

    def test_formula_reading_to_its_right_waits(self):
        text = "A1 = =B1+1\nB1 = =C1*2\nC1 = ?3\nA2 = =A1\n"
        order = addrs(build_graph(load_program(text)).topo_order())
        assert order == ["C1", "B1", "A1", "A2"]

    def test_range_reaching_below_its_host_waits(self):
        # B2's range holds A2, above it, and A3, below it.
        text = "A1 = ?1\nA2 = =A1*2\nB2 = =SUM(A1:A3)\nA3 = =A2+1\nB3 = =B2\n"
        order = addrs(build_graph(load_program(text)).topo_order())
        assert order == ["A1", "A2", "A3", "B2", "B3"]

    def test_range_reaching_right_in_its_row_waits(self):
        text = "A1 = ?1\nA2 = =SUM(B1:C2)\nC2 = =A1+1\n"
        order = addrs(build_graph(load_program(text)).topo_order())
        assert order == ["A1", "C2", "A2"]

    def test_top_down_sheet_is_in_order_row_major(self):
        # Each formula reads only cells above it or to its left: inputs,
        # running totals, a range ending at its host's left neighbour,
        # and empty cells.
        text = (
            'A1 = "qty"\nB1 = "sum"\nA2 = ?1\nB2 = =SUM(A$2:A2)\nA3 = ?2\n'
            "B3 = =SUM(A$2:A3)+B2\nC3 = =SUM(A1:B3)\nA5 = =B3*2+Z1\nB5 = =SUM(A1:A5)\n"
        )
        order = addrs(build_graph(load_program(text)).topo_order())
        leaves = ["A1", "B1", "A2", "A3"]
        formulas = ["B2", "B3", "C3", "A5", "B5"]
        assert order == leaves + formulas

    def test_order_ignores_source_line_order(self):
        lines = DIAMOND.strip().splitlines()
        a = build_graph(load_program("\n".join(lines)))
        b = build_graph(load_program("\n".join(reversed(lines))))
        assert a.topo_order() == b.topo_order()


class TestCycles:
    def test_two_cell_cycle_witness(self):
        prog = load_program("A1 = =B1+1\nB1 = =A1+1\n")
        with pytest.raises(CyclicDependency) as info:
            build_graph(prog).topo_order()
        assert addrs(info.value.cycle) == ["A1", "B1"]
        assert "A1 -> B1 -> A1" in str(info.value)

    def test_self_reference(self):
        prog = load_program("A1 = =A1+1\n")
        with pytest.raises(CyclicDependency) as info:
            build_graph(prog).topo_order()
        assert addrs(info.value.cycle) == ["A1"]

    def test_cycle_through_own_range(self):
        prog = load_program("B1 = #1\nB2 = =SUM(B1:B3)\n")
        with pytest.raises(CyclicDependency) as info:
            build_graph(prog).topo_order()
        assert addrs(info.value.cycle) == ["B2"]

    @pytest.mark.parametrize(
        "own_read", ["A3+1", "SUM(A1:A3)", "SUM(A2:B4)"], ids=["reference", "range", "range-past-host"]
    )
    def test_self_read_below_top_down_rows(self, own_read):
        # The rows above read only earlier cells; the last reads itself.
        prog = load_program(f"A1 = ?1\nA2 = =A1*2\nA3 = ={own_read}\n")
        with pytest.raises(CyclicDependency) as info:
            build_graph(prog).topo_order()
        assert addrs(info.value.cycle) == ["A3"]

    def test_witness_excludes_downstream_cells(self):
        prog = load_program("A1 = =B1+1\nB1 = =A1+1\nC1 = =A1+B1\n")
        with pytest.raises(CyclicDependency) as info:
            build_graph(prog).topo_order()
        assert addrs(info.value.cycle) == ["A1", "B1"]

    def test_witness_starts_at_first_row_major_member(self):
        # The same loop written in any source order names the same cycle.
        prog = load_program("C3 = =B2+1\nB2 = =C3+1\nA1 = #5\n")
        with pytest.raises(CyclicDependency) as info:
            build_graph(prog).topo_order()
        assert addrs(info.value.cycle) == ["B2", "C3"]

    def test_acyclic_program_has_no_witness(self):
        build_graph(load_program(DIAMOND)).topo_order()


class TestBuiltOncePerProgram:
    def test_graph_and_order_are_shared(self):
        prog = load_program(DIAMOND)
        graph = build_graph(prog)
        assert build_graph(prog) is graph
        assert graph.topo_order() is graph.topo_order()

    def test_cyclic_program_raises_on_every_call(self):
        prog = load_program("A1 = =B1+1\nB1 = =A1+1\nC1 = =A1\n")
        raised = []
        for _ in range(3):
            with pytest.raises(CyclicDependency) as info:
                build_graph(prog).topo_order()
            raised.append(info.value)
        assert len(set(map(id, raised))) == 3
        assert [addrs(err.cycle) for err in raised] == [["A1", "B1"]] * 3

    def test_program_pickles_after_sorting(self):
        prog = load_program(DIAMOND)
        order = build_graph(prog).topo_order()
        copy = pickle.loads(pickle.dumps(prog))
        assert copy == prog and build_graph(copy).topo_order() == order
