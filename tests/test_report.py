"""JSON, text, and DOT report rendering."""

import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import math
import pathlib
import random
import sys

import jsonschema
import pytest

import corpus
import injection
import json_oracle
import range_oracle
from sheetlint.areas import infer_logical_areas, infer_physical_areas
from sheetlint.cli import main
from sheetlint.dataflow import CyclicDependency, build_graph
from sheetlint.detectors import detect_all
from sheetlint.evaluator import BLANK, Fault, FaultKind, Interval, Number, Text, eval_instance
from sheetlint.intervals import CellTest, Verdict, load_interval_spec, run_interval_test
from sheetlint.model import instantiate, load_program, render_content
from sheetlint.scl import CellAddress, RangeRef, rect_key
from sheetlint import report

HERE = pathlib.Path(__file__).parent
FIXTURES = HERE.parent / "fixtures"
SCHEMA = json.loads((HERE.parent / "schema" / "report-v1.json").read_text())


def fixture_text(name):
    return (FIXTURES / name).read_text()


def checked(name):
    program = load_program(fixture_text(name))
    result = eval_instance(instantiate(program))
    return program, detect_all(program, result)


class TestCanonicalJson:
    def test_sorted_keys_indent_and_trailing_newline(self):
        text = report.to_json({"b": 1, "a": {"d": 2, "c": 3}})
        assert text == '{\n  "a": {\n    "c": 3,\n    "d": 2\n  },\n  "b": 1\n}\n'

    def test_random_payloads_match_json_dumps(self):
        assert json_oracle.mismatches(3000) == []

    def test_fixture_payloads_match_json_dumps(self, monkeypatch):
        payloads = []
        write_json = report.write_json

        def keep(payload, write):
            payloads.append(payload)
            return write_json(payload, write)

        monkeypatch.setattr(report, "write_json", keep)
        for sheet in sorted(FIXTURES.glob("*.sheet")):
            spec = sheet.with_suffix(".intervals")
            argvs = [["check", str(sheet)], ["areas", str(sheet)]]
            if spec.exists():
                argvs.append(["test", str(sheet), str(spec)])
            for argv in argvs:
                with contextlib.redirect_stdout(io.StringIO()):
                    main(argv + ["--format", "json"])
        monkeypatch.undo()
        assert {payload["command"] for payload in payloads} == {"check", "areas", "test"}
        for payload in payloads:
            # A test payload holds its rows as tuples; the oracle spells
            # each as the dict it stands for.
            if payload["command"] == "test":
                reference = json_oracle.with_row_dicts(payload)
            else:
                reference = payload
            assert report.to_json(payload) == json_oracle.expected(reference)

    @pytest.mark.parametrize("number", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_is_a_value_error(self, number):
        payload = {"a": [1, {"b": number}]}
        with pytest.raises(ValueError):
            json_oracle.expected(payload)
        with pytest.raises(ValueError):
            report.to_json(payload)

    # json.dumps would spell the key 1 as "1", and a tuple as a list;
    # no payload holds either, so the writer refuses them.
    @pytest.mark.parametrize(
        "payload", [{1: 2}, {"a": {None: 1}}, {"a": (1, 2)}, {"a": {1}}, {"a": b"x"}]
    )
    def test_other_types_are_a_type_error(self, payload):
        with pytest.raises(TypeError):
            report.to_json(payload)

    def test_file_digest_is_sha256_of_bytes(self, tmp_path):
        # Empty input, sizes around the 64 KiB a chunked reader would
        # split at, and 1 MB of seeded random bytes.  An input named by
        # its path alone is read and digested the same way.
        rng = random.Random(15)
        program = load_program("A1 = #1\n")
        path = tmp_path / "probe.sheet"
        for data in [b"", b"A1 = #1\n", *map(rng.randbytes, (65535, 65536, 65537, 10**6))]:
            expected = hashlib.sha256(data).hexdigest()
            path.write_bytes(data)
            for item in (report.Input(str(path), data), str(path)):
                inputs = report.envelope("check", [item], program)["inputs"]
                assert inputs == [{"path": str(path), "sha256": expected}]


class TestCheckJson:
    def test_envelope_and_diagnostics(self):
        path = str(FIXTURES / "quarterly_sums.sheet")
        program, diagnostics = checked("quarterly_sums.sheet")
        payload = report.check_json(program, diagnostics, [path])
        assert payload["schema"] == "report-v1"
        assert payload["tool"] == {"name": "sheetlint", "version": "0.1.0"}
        assert payload["command"] == "check"
        assert payload["inputs"] == [
            {"path": path, "sha256": hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()}
        ]
        assert payload["program"]["cells"] == {
            "constant": 6,
            "input": 0,
            "formula": 1,
            "label": 9,
        }
        codes = [d["code"] for d in payload["diagnostics"]]
        assert codes == [
            "D1_BLANK_REF",
            "D2_WRONG_TYPE_IN_RANGE",
            "D2_WRONG_TYPE_IN_RANGE",
        ]
        d2 = payload["diagnostics"][1]
        assert d2["cells"] == ["B2"]
        assert d2["severity"] == "warning"
        assert d2["area"] == "SUM B2:B10 -> B12"
        assert payload["diagnostics"][0]["area"] is None

    def test_two_findings_on_one_area(self):
        # Two labels inside one summed range: two D2 findings that hold
        # the same PhysicalArea, each spelled in full.
        program = load_program('A1 = #1\nA2 = "x"\nA3 = #3\nA4 = "y"\nA5 = #5\nA6 = =SUM(A1:A5)\n')
        diagnostics = detect_all(program)
        assert [d.code.value for d in diagnostics] == ["D2_WRONG_TYPE_IN_RANGE"] * 2
        area = diagnostics[0].area
        assert diagnostics[1].area is area
        payload = report.check_json(program, diagnostics, [report.Input("two.sheet", b"")])
        assert [d["area"] for d in payload["diagnostics"]] == [str(area)] * 2
        assert report.to_json(payload) == json_oracle.expected(payload)

    def test_validates_against_schema(self):
        path = str(FIXTURES / "quarterly_sums.sheet")
        program, diagnostics = checked("quarterly_sums.sheet")
        payload = report.check_json(program, diagnostics, [path])
        jsonschema.validate(payload, SCHEMA)


class TestTestJson:
    def run(self, sheet, intervals):
        sheet_path = str(FIXTURES / sheet)
        iv_path = str(FIXTURES / intervals)
        program = load_program(fixture_text(sheet))
        spec = load_interval_spec(fixture_text(intervals), program)
        result = run_interval_test(instantiate(program), spec)
        return report.test_json(program, result, [sheet_path, iv_path])

    def test_rows_and_symptom_count(self):
        payload = self.run("sales_appended.sheet", "sales_appended.intervals")
        payload = json.loads(report.to_json(payload))
        jsonschema.validate(payload, SCHEMA)
        assert payload["command"] == "test"
        assert len(payload["inputs"]) == 2
        rows = payload["interval_test"]["rows"]
        assert len(rows) == 1
        row = rows[0]
        assert row["cell"] == "C8"
        assert row["value"] == {"kind": "number", "value": 3300.0}
        assert row["bounding"] == {"kind": "interval", "lo": 0.0, "hi": 10000.0}
        assert row["expected"] == {"lo": 3500.0, "hi": 4500.0}
        assert row["verdict"] == "value_outside"
        assert row["suspects"] == ["C2", "C3", "C4", "C5", "C6"]
        assert payload["interval_test"]["symptoms"] == 1

    def test_fault_rows_fit_the_schema(self, tmp_path):
        sheet = tmp_path / "faulty.sheet"
        sheet.write_text("A1 = #0\nB1 = =1/A1\n")
        program = load_program(sheet.read_text())
        spec = load_interval_spec("expect B1 in [0, 1]\n", program)
        result = run_interval_test(instantiate(program), spec)
        payload = json.loads(report.to_json(report.test_json(program, result, [str(sheet)])))
        jsonschema.validate(payload, SCHEMA)
        row = payload["interval_test"]["rows"][0]
        assert row["value"] == {"kind": "fault", "fault": "div_by_zero"}
        assert row["bounding"] == {"kind": "fault", "fault": "div_by_zero"}
        assert row["verdict"] == "both"

    def test_random_rows_match_json_dumps(self):
        payloads = [json_oracle.interval_payload(random.Random(seed)) for seed in range(100)]
        payloads.append(json_oracle.interval_payload(random.Random(0), rows=0))
        for payload in payloads:
            assert report.to_json(payload) == json_oracle.expected(json_oracle.with_row_dicts(payload))
        # The oracle's rows are ones a report could hold.
        for payload in payloads[:10]:
            jsonschema.validate(json.loads(report.to_json(payload)), SCHEMA)
        # The seeds reach every case the row template spells.
        rows = [row for payload in payloads for row in payload["interval_test"]["rows"].rows]
        faults = {kind.value for kind in FaultKind}
        floats = set(map(repr, json_oracle.FLOATS))
        boxes = [box for row in rows for box in (row.bounding, row.expected) if type(box) is Interval]
        assert {row.value.kind.value for row in rows if type(row.value) is Fault} == faults
        assert {row.bounding.kind.value for row in rows if type(row.bounding) is Fault} == faults
        assert {repr(row.value.value) for row in rows if type(row.value) is Number} == floats
        assert {repr(x) for box in boxes for x in box} == floats
        assert {row.expected is None for row in rows} == {True, False}
        assert any(
            {type(a) for a in row.suspects} == {CellAddress, RangeRef} for row in rows
        )
        assert any(not payload["interval_test"]["rows"].rows for payload in payloads)

    def row_payload(self, value=Number(1.0), bounding=Interval(0.0, 2.0), expected=None):
        row = CellTest(CellAddress(2, 1), value, bounding, expected, Verdict.NO_SYMPTOM, ())
        return json_oracle.payload_of((row,))

    @pytest.mark.parametrize(
        "value, bounding",
        [
            (Text("x"), Interval(0.0, 2.0)),
            (BLANK, Interval(0.0, 2.0)),
            (Number(1.0), Text("x")),
            (Number("1"), Interval(0.0, 2.0)),
        ],
    )
    def test_a_value_of_another_type_is_a_type_error(self, value, bounding):
        with pytest.raises(TypeError):
            report.to_json(self.row_payload(value, bounding))

    @pytest.mark.parametrize(
        "value, bounding, expected",
        [
            (Number(math.nan), Interval(0.0, 2.0), None),
            (Number(math.inf), Interval(0.0, 2.0), None),
            (Number(1.0), Interval(0.0, math.inf), None),
            (Number(1.0), Interval(-math.inf, 2.0), None),
            (Number(1.0), Interval(0.0, 2.0), Interval(0.0, math.inf)),
        ],
    )
    def test_a_non_finite_number_is_a_value_error(self, value, bounding, expected):
        payload = self.row_payload(value, bounding, expected)
        with pytest.raises(ValueError):
            json_oracle.expected(json_oracle.with_row_dicts(payload))
        with pytest.raises(ValueError):
            report.to_json(payload)


class TestAreasJson:
    def test_physical_and_logical_shapes(self):
        path = str(FIXTURES / "subtotals_two_column.sheet")
        program = load_program(fixture_text("subtotals_two_column.sheet"))
        payload = report.areas_json(
            program,
            infer_physical_areas(program),
            infer_logical_areas(program),
            [path],
        )
        jsonschema.validate(payload, SCHEMA)
        assert payload["areas"]["physical"] == [
            {
                "rect": "C3:C5",
                "consumer": "D6",
                "function": "SUM",
                "majority_type": "constant",
            },
            {
                "rect": "C7:C9",
                "consumer": "D10",
                "function": "SUM",
                "majority_type": "constant",
            },
        ]
        assert payload["areas"]["logical"] == [
            {"members": ["D6", "D10"], "hull": "D6:D10"}
        ]


class TestTextReports:
    def test_check_text(self):
        path = str(FIXTURES / "quarterly_sums.sheet")
        program, diagnostics = checked("quarterly_sums.sheet")
        text = report.check_text(program, diagnostics, path)
        lines = text.splitlines()
        assert lines[0] == f"{path}: 16 cells"
        assert lines[1] == "B3: warning D1_BLANK_REF: B12 reads empty cell B3"
        assert lines[-1] == "3 warning(s), 0 error(s)"
        assert text.endswith("\n")

    def test_test_text(self):
        program = load_program(fixture_text("sales_appended.sheet"))
        spec = load_interval_spec(
            fixture_text("sales_appended.intervals"), program
        )
        result = run_interval_test(instantiate(program), spec)
        text = report.test_text(result, "s.sheet", "s.intervals")
        assert text == (
            "s.sheet against s.intervals\n"
            "C8: value_outside  d=3300  E=[3500, 4500]  B=[0, 10000]"
            "  suspects: C2 C3 C4 C5 C6\n"
            "1 symptom(s) in 1 judged cell(s), 0 not judged\n"
        )

    def test_areas_text(self):
        program = load_program(fixture_text("subtotals_two_column.sheet"))
        text = report.areas_text(
            infer_physical_areas(program),
            infer_logical_areas(program),
            "sub.sheet",
        )
        lines = text.splitlines()
        assert lines[0] == "sub.sheet: 2 physical area(s), 1 logical area(s)"
        assert lines[1] == "physical: SUM C3:C5 -> D6 (mostly constant)"
        assert lines[3] == "logical: 2 copies in D6:D10: D6 D10"


class TestCellGraphDot:
    def render(self, name):
        program, diagnostics = checked(name)
        return report.cell_graph_dot(
            program,
            build_graph(program),
            infer_physical_areas(program),
            infer_logical_areas(program),
            diagnostics,
        )

    def test_clusters_fills_outlines_and_edges(self):
        dot = self.render("quarterly_sums.sheet")
        assert dot.startswith("digraph sheet {\n")
        assert dot.endswith("}\n")
        assert 'label="SUM B2:B10 -> B12";' in dot
        b3 = next(l for l in dot.splitlines() if l.strip().startswith('"B3" ['))
        assert 'label="B3\\n(empty)\\nD1_BLANK_REF"' in b3
        assert 'style="dashed"' in b3
        # every diagnostic cell is visible and outlined with its code
        for cell, code in [
            ("B2", "D2_WRONG_TYPE_IN_RANGE"),
            ("B7", "D2_WRONG_TYPE_IN_RANGE"),
            ("B3", "D1_BLANK_REF"),
        ]:
            node = next(
                line for line in dot.splitlines() if line.strip().startswith(f'"{cell}" [')
            )
            assert code in node
            assert 'color="#cc2222"' in node
            assert "penwidth=2" in node
        for row in range(2, 11):
            assert f'"B{row}" -> "B12";' in dot

    def test_label_text_is_escaped(self):
        dot = self.render("quarterly_sums.sheet")
        assert '\\"January\\"' in dot

    def test_logical_copies_share_a_fill(self):
        program, diagnostics = checked("subtotals_two_column.sheet")
        dot = report.cell_graph_dot(
            program,
            build_graph(program),
            infer_physical_areas(program),
            infer_logical_areas(program),
            diagnostics,
        )
        d6 = next(l for l in dot.splitlines() if l.strip().startswith('"D6" ['))
        d10 = next(l for l in dot.splitlines() if l.strip().startswith('"D10" ['))
        assert 'fillcolor="#cfe8ff"' in d6
        assert 'fillcolor="#cfe8ff"' in d10


class TestAreaGraphDot:
    def test_quotient_nodes_and_lifted_edges(self):
        program, diagnostics = checked("subtotals_two_column.sheet")
        dot = report.area_graph_dot(
            program,
            build_graph(program),
            infer_physical_areas(program),
            infer_logical_areas(program),
            diagnostics,
        )
        assert dot.startswith("digraph sheet_areas {\n")
        assert '"p0" [label="SUM C3:C5 -> D6"];' in dot
        assert '"l0" [label="2 copies in D6:D10"' in dot
        assert '"p0" -> "l0";' in dot
        assert '"p1" -> "l0";' in dot
        # edges within one group vanish, none point at themselves
        for line in dot.splitlines():
            if "->" in line:
                src, dst = line.strip().rstrip(";").split(" -> ")
                assert src != dst

    def test_no_duplicate_edges(self):
        program, diagnostics = checked("quarterly_sums.sheet")
        dot = report.area_graph_dot(
            program,
            build_graph(program),
            infer_physical_areas(program),
            infer_logical_areas(program),
            diagnostics,
        )
        edges = [l for l in dot.splitlines() if "->" in l]
        assert len(edges) == len(set(edges))


def dot_inputs(program):
    """What `sheetlint graph` hands a DOT renderer, cyclic sheets included."""
    graph = build_graph(program)
    try:
        result = eval_instance(instantiate(program))
    except CyclicDependency as err:
        result = err
    physical, logical = infer_physical_areas(program), infer_logical_areas(program)
    return program, graph, physical, logical, detect_all(program, result)


class TestAreaGraphOracle:
    """The quotient view against the former renderer, which re-ran the
    cell view's claim loop and lifted the row-major sorted edge list."""

    PALETTE = ("#cfe8ff", "#d8f5d8", "#fff2cc", "#f3d9f2", "#e2e2e2", "#ffd9cc")

    # A4 is empty and A3 a label inside C1's range: one group gathers
    # D1 and D2.  The copies B1:B2 lie inside C2's range, which claims them.
    CRAFTED = (
        'A1 = #1\nA2 = #2\nA3 = "x"\nA5 = #5\n'
        "B1 = =A1*2\nB2 = =A2*2\nC1 = =SUM(A1:A5)\nC2 = =SUM(B1:B2)\n"
        "D1 = =C1*3\nD2 = =C2*3\n"
    )

    @classmethod
    def oracle(cls, program, graph, physical, logical, diagnostics):
        codes = {}
        for diag in diagnostics:
            for addr in diag.cells:
                cell_codes = codes.setdefault(addr, [])
                if diag.code.value not in cell_codes:
                    cell_codes.append(diag.code.value)
        group_of, group_label, group_fill = {}, {}, {}
        for i, area in enumerate(physical):
            group_label[f"p{i}"] = str(area)
            for addr in range_oracle.parts(program, area.rect):
                if addr in graph.nodes:
                    group_of.setdefault(addr, f"p{i}")
        for i, area in enumerate(logical):
            group_label[f"l{i}"] = str(area)
            group_fill[f"l{i}"] = cls.PALETTE[i % len(cls.PALETTE)]
            for addr in area.members:
                group_of.setdefault(addr, f"l{i}")
        nodes = sorted(graph.nodes, key=range_oracle.node_key)
        used_groups = dict.fromkeys(group_of[a] for a in nodes if a in group_of)
        group_codes = {}
        for addr, cell_codes in codes.items():
            if addr in group_of:
                merged = group_codes.setdefault(group_of[addr], [])
                merged.extend(c for c in cell_codes if c not in merged)

        def attrs(label, fill, marks, dashed=False):
            if marks:
                label += "\\n" + ",".join(marks)
            out = [f'label="{label}"']
            if dashed:
                out.append('style="dashed"')
            elif fill:
                out += ['style="filled"', f'fillcolor="{fill}"']
            if marks:
                out += ['color="#cc2222"', "penwidth=2"]
            return ", ".join(out)

        lines = ["digraph sheet_areas {", '  node [shape=box, fontname="Helvetica"];']
        for gid in used_groups:
            label = report._dot_escape(group_label[gid])
            marks = sorted(group_codes.get(gid, []))
            lines.append(f'  "{gid}" [{attrs(label, group_fill.get(gid), marks)}];')
        for addr in nodes:
            if addr in group_of:
                continue
            content = program.content(addr)
            if content is None:
                label = f"{addr}\\n(empty)"
            else:
                label = f"{addr}\\n{report._dot_escape(render_content(content))}"
            marks = sorted(codes.get(addr, []))
            lines.append(f'  "{addr}" [{attrs(label, None, marks, content is None)}];')
        emitted, edge_lines = set(), []
        for source, target in graph.edges():
            pair = (group_of.get(source, str(source)), group_of.get(target, str(target)))
            if pair[0] != pair[1] and pair not in emitted:
                emitted.add(pair)
                edge_lines.append(f'  "{pair[0]}" -> "{pair[1]}";')
        return "\n".join(lines + sorted(edge_lines) + ["}"]) + "\n"

    def assert_same(self, program):
        inputs = dot_inputs(program)
        assert report.area_graph_dot(*inputs) == self.oracle(*inputs)

    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.sheet")))
    def test_fixtures(self, name):
        self.assert_same(load_program(fixture_text(name)))

    def test_corpus(self):
        for cp in corpus.corpus(300):
            self.assert_same(cp.program)

    def test_injection_sheets(self):
        for case in injection.cases(20):
            self.assert_same(load_program(case.clean))
            self.assert_same(load_program(case.faulty))

    def test_crafted(self):
        program = load_program(self.CRAFTED)
        self.assert_same(program)
        dot = report.area_graph_dot(*dot_inputs(program))
        assert (
            '  "p0" [label="SUM A1:A5 -> C1\\nD1_BLANK_REF,D2_WRONG_TYPE_IN_RANGE", '
            'color="#cc2222", penwidth=2];\n'
        ) in dot
        assert '  "p1" [label="SUM B1:B2 -> C2"];\n' in dot
        assert '"l0"' not in dot
        assert '  "p0" -> "p1";\n' in dot


def full_size_shapes():
    """The benchmark's three shapes at full size and seed 301, from
    ``perfbench/gen.py``, loaded by path: ``perfbench`` is no package."""
    path = HERE.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    # A dataclass looks its module up while the class is made.
    sys.modules[spec.name] = gen
    try:
        spec.loader.exec_module(gen)
    finally:
        del sys.modules[spec.name]
    return {shape: gen.generate(shape, 301).sheet_text for shape in gen.SHAPES}


class TestCellGraphOracle:
    """The cell view against its writer as it stood before it took its
    nodes from the program: every node sorted by ``rect_key``, its own
    index of each read node's readers, and each address, number and
    formula spelled where it is printed."""

    # A2 holds -0, spelled as 0.  A3:A4 is an empty run in two ranges
    # and A3 an empty cell read directly, so two nodes start at A3.  A2
    # lies in both physical areas, and the first claims it.  B1 needs
    # DOT escapes.  C2:C4 are copies holding $B$1 and B$1, and the
    # copies E2:E4 are filled, clustered and outlined with G_DIV_ZERO.
    # G3 copies G2, whose nested call lists its ranges out of text order;
    # H3 copies H2, which holds markers and a range.
    CRAFTED = (
        "A1 = #1\nA2 = #-0\nA5 = #0\nA6 = ?1e20\nA7 = #0.1\n"
        'B1 = "a\\b "q""\nB2 = =SUM(A1:A5)\nB3 = =SUM(A2:A6)\nB4 = =A3+1\n'
        "C1 = #2\nC2 = =$B$1*B$1+A2\nC3 = =$B$1*B$1+A3\nC4 = =$B$1*B$1+A4\n"
        "D2 = =A2*2\nD3 = =A3*2\nD4 = =A4*2\nD5 = =A5*2\nD6 = =A6*2\n"
        "E2 = =A2/$A$5\nE3 = =A3/$A$5\nE4 = =A4/$A$5\nF5 = =SUM(E2:E4)\n"
        "G2 = =MAX(SUM(A1:A2),A5:A6)\nG3 = =MAX(SUM(A2:A3),A6:A7)\n"
        "H2 = =A2+SUM(A$1:A2)*$C$1\nH3 = =A3+SUM(A$1:A3)*$C$1\n"
    )

    @staticmethod
    def oracle(program, graph, physical, logical, diagnostics):
        codes = report._diag_codes(diagnostics)
        fills = report._FILLS
        fill = {addr: fills[i % len(fills)] for i, area in enumerate(logical) for addr in area.members}
        claimed = report._claims(program, physical)
        names = {addr: str(addr) for addr in sorted(graph.nodes, key=rect_key)}
        readers = {}
        for target in program.cells:
            for source in graph.sources(target):
                readers.setdefault(source, []).append(target)

        def node_line(addr):
            name = names[addr]
            attrs = report._cell_attrs(program, addr, name, fill.get(addr), codes.get(addr))
            return f'"{name}" [{attrs}];\n'

        lines = ["digraph sheet {\n", '  node [shape=box, fontname="Helvetica"];\n']
        for i, members in itertools.groupby(claimed, key=claimed.__getitem__):
            lines.append(f"  subgraph cluster_{i} {{\n")
            lines.append(f'    label="{report._dot_escape(str(physical[i]))}";\n')
            lines.append('    color="#888888";\n')
            lines += [f"    {node_line(addr)}" for addr in members]
            lines.append("  }\n")
        lines += [f"  {node_line(addr)}" for addr in names if addr not in claimed]
        for source in sorted(readers, key=rect_key):
            lines += [f'  "{names[source]}" -> "{names[target]}";\n' for target in readers[source]]
        lines.append("}\n")
        return "".join(lines)

    def assert_same(self, program):
        inputs = dot_inputs(program)
        assert report.cell_graph_dot(*inputs) == self.oracle(*inputs)

    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.sheet")))
    def test_fixtures(self, name):
        self.assert_same(load_program(fixture_text(name)))

    def test_corpus(self):
        for cp in corpus.corpus(300):
            self.assert_same(cp.program)

    def test_injection_sheets(self):
        for case in injection.cases(20):
            self.assert_same(load_program(case.clean))
            self.assert_same(load_program(case.faulty))

    @pytest.mark.parametrize("path", sorted((HERE / "shapes").glob("*.sheet")), ids=lambda p: p.stem)
    def test_shapes(self, path):
        self.assert_same(load_program(path.read_text()))

    def test_full_size_shapes(self):
        for shape, text in full_size_shapes().items():
            self.assert_same(load_program(text))

    def test_crafted(self):
        program = load_program(self.CRAFTED)
        self.assert_same(program)
        dot = report.cell_graph_dot(*dot_inputs(program))
        for line in [
            '    "A2" [label="A2\\n#0"];\n',
            '  "A3" [label="A3\\n(empty)\\nD1_BLANK_REF", style="dashed", color="#cc2222", penwidth=2];\n',
            '    "A6" [label="A6\\n?1e+20"];\n',
            '  "B1" [label="B1\\n\\"a\\\\b \\"q\\"\\""];\n',
            '  "C3" [label="C3\\n=$B$1*B$1+A3", style="filled", fillcolor="#d8f5d8"];\n',
            '    "E3" [label="E3\\n=A3/$A$5\\nG_DIV_ZERO", style="filled", fillcolor="#f3d9f2", '
            'color="#cc2222", penwidth=2];\n',
            '  "G3" [label="G3\\n=MAX(SUM(A2:A3),A6:A7)", style="filled", fillcolor="#e2e2e2"];\n',
            '  "H3" [label="H3\\n=A3+SUM(A$1:A3)*$C$1", style="filled", fillcolor="#ffd9cc"];\n',
        ]:
            assert line in dot
        assert dot.index('  "A3" [') < dot.index('  "B3" [')
        assert dot.index('  "A3" -> "B4";\n') < dot.index('  "A3:A4" -> "B2";\n')
        assert dot.index('    "E2" [') < dot.index('  "B1" [')


class TestDeterminism:
    @pytest.mark.parametrize(
        "name",
        [
            "quarterly_sums.sheet",
            "sales_expanded.sheet",
            "subtotals_one_column.sheet",
        ],
    )
    def test_same_inputs_same_bytes(self, name):
        path = str(FIXTURES / name)

        def render():
            program, diagnostics = checked(name)
            graph = build_graph(program)
            physical = infer_physical_areas(program)
            logical = infer_logical_areas(program)
            return (
                report.to_json(report.check_json(program, diagnostics, [path]))
                + report.cell_graph_dot(program, graph, physical, logical, diagnostics)
                + report.area_graph_dot(program, graph, physical, logical, diagnostics)
            )

        assert render() == render()
