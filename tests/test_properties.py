"""Randomized invariants over the generated corpus."""

import random

from corpus import corpus, make_program, sample_instance
from sheetlint.dataflow import build_graph
from sheetlint.evaluator import Fault, Number, eval_instance
from sheetlint.intervals import Interval, IntervalSpec, Verdict, eval_intervals, judge
from sheetlint.model import instantiate, load_program, render_program
from sheetlint.scl import normalize, skeleton, translate

PROGRAMS = corpus(10, base_seed=4000)


class TestContainment:
    def test_sampled_values_stay_inside_their_bounds(self):
        rng = random.Random(42)
        for cp in PROGRAMS:
            bounds = eval_intervals(cp.program, cp.spec())
            for _ in range(100):
                values = eval_instance(sample_instance(cp, rng)).values
                for addr, _ in cp.program.formula_cells():
                    d = values[addr]
                    if isinstance(d, Fault):
                        continue
                    box = bounds[addr]
                    assert isinstance(box, Interval)
                    assert box.lo <= d.value <= box.hi, (cp.seed, addr)


class TestCollapse:
    def test_degenerate_ranges_collapse_to_the_concrete_run(self):
        for cp in PROGRAMS:
            values = eval_instance(instantiate(cp.program)).values
            bounds = eval_intervals(cp.program, cp.degenerate_spec())
            for addr, _ in cp.program.formula_cells():
                d, box = values[addr], bounds[addr]
                if isinstance(d, Number):
                    assert box == Interval(d.value, d.value), (cp.seed, addr)
                else:
                    assert box == d, (cp.seed, addr)


class TestMonotonicity:
    def test_widening_one_input_never_shrinks_a_bound(self):
        for cp in PROGRAMS:
            if not cp.input_ranges:
                continue
            before = eval_intervals(cp.program, cp.spec())
            addr, box = sorted(
                cp.input_ranges.items(), key=lambda kv: (kv[0].row, kv[0].col)
            )[0]
            widened = dict(cp.input_ranges)
            widened[addr] = Interval(box.lo, box.hi + 7.0)
            after = eval_intervals(cp.program, IntervalSpec(widened, {}))
            for cell, _ in cp.program.formula_cells():
                old, new = before[cell], after[cell]
                if isinstance(old, Interval) and isinstance(new, Interval):
                    assert new.encloses(old), (cp.seed, cell)


class TestVerdictAlgebra:
    def test_judge_agrees_with_its_predicates(self):
        rng = random.Random(9)
        for _ in range(500):
            d = Number(rng.uniform(-20, 20))
            e_lo = rng.uniform(-15, 10)
            expected = Interval(e_lo, e_lo + rng.uniform(0, 12))
            b_lo = rng.uniform(-15, 10)
            bounding = Interval(b_lo, b_lo + rng.uniform(0, 12))
            value_ok = expected.lo <= d.value <= expected.hi
            model_ok = bounding.lo <= expected.lo and expected.hi <= bounding.hi
            verdict = judge(d, expected, bounding)
            if value_ok and model_ok:
                assert verdict is Verdict.NO_SYMPTOM
            elif value_ok:
                assert verdict is Verdict.SYMPTOM_MODEL_MISMATCH
            elif model_ok:
                assert verdict is Verdict.SYMPTOM_VALUE_OUTSIDE
            else:
                assert verdict is Verdict.SYMPTOM_BOTH


class TestRenderRoundTrip:
    def test_programs_survive_render_and_reload(self):
        for cp in PROGRAMS:
            text = render_program(cp.program)
            again = load_program(text)
            assert again == cp.program, cp.seed
            assert render_program(again) == text, cp.seed


class TestNormalizeTranslate:
    def test_translation_commutes_with_normalization(self):
        rng = random.Random(11)
        for cp in PROGRAMS:
            for addr, content in cp.program.formula_cells():
                dcol = rng.randrange(0, 4)
                drow = rng.randrange(0, 4)
                moved = translate(content.ast, dcol, drow)
                origin = type(addr)(addr.col + dcol, addr.row + drow)
                assert normalize(moved, origin) == normalize(content.ast, addr)

    def test_skeleton_is_translation_invariant(self):
        for cp in PROGRAMS:
            for addr, content in cp.program.formula_cells():
                assert skeleton(translate(content.ast, 2, 3)) == skeleton(content.ast)


class TestGraphDuality:
    def test_precedents_and_dependents_mirror_each_other(self):
        for cp in PROGRAMS:
            graph = build_graph(cp.program)
            for node in graph.nodes:
                for pre in graph.precedents(node):
                    assert node in graph.dependents(pre), (cp.seed, node)
                for dep in graph.dependents(node):
                    assert node in graph.precedents(dep), (cp.seed, node)

    def test_topological_order_respects_every_edge(self):
        for cp in PROGRAMS:
            order = {addr: k for k, addr in enumerate(build_graph(cp.program).topo_order())}
            for source, target in build_graph(cp.program).edges():
                assert order[source] < order[target], cp.seed


class TestGeneratorContract:
    def test_programs_fit_the_size_budget_and_defaults_fit_ranges(self):
        for cp in corpus(50, base_seed=6000):
            assert len(cp.program.cells) <= 100
            for addr, box in cp.input_ranges.items():
                default = cp.program.content(addr).default
                assert box.lo <= default <= box.hi

    def test_generation_is_deterministic(self):
        one = make_program(123)
        two = make_program(123)
        assert one.program == two.program
        assert one.input_ranges == two.input_ranges
