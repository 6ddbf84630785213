"""The evaluator against the earlier one kept in ``eval_oracle``.

On every fixture, 300 corpus programs, the injection cases, filled-down
and subtotal-block sheets and a sheet of every fault, the concrete run
(``eval_instance``) and the interval run (``evaluate`` over input
ranges) must each give what the earlier evaluator gave: equal values,
in the same key order, and equal notes.  So must each lane of the
two-lane run (``evaluate_lanes``): its point lane the earlier run over
points, and its ranged lane the earlier run over the ranges.
"""

import pathlib

import pytest

import corpus
import eval_oracle
import injection
from sheetlint.dataflow import CyclicDependency, build_graph
from sheetlint.evaluator import (
    Fault,
    FaultKind,
    Interval,
    NoteKind,
    eval_instance,
    evaluate,
    evaluate_lanes,
)
from sheetlint.intervals import load_interval_spec
from sheetlint.model import Input, instantiate, load_program
from test_scaling import filled_down, subtotal_blocks

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"

# Every fault and note the walker knows, over a point and over a range
# that holds the divisor's zero.
FAULTS = """\
L1 = "text"
A1 = #0
A2 = ?3
A3 = #1e308
B1 = =A2/A1
B2 = =A2/(A2-3)
B3 = =B1+1
B4 = =C9*2
B5 = =L1+1
B6 = =L1
B7 = =C9
B8 = =AVG(C1:C5)
B9 = =MIN(L1, C9)
B10 = =COUNT(A1:A3, L1)
B11 = =SUM(A1:L3)
B12 = =A3*10
B13 = =-A2
B14 = =-L1
B15 = =MAX(B1, 2)
B16 = =SUM(C1:C5)
"""
FAULTS_SPEC = "input A2 in [1, 5]\n"


def _widened(program) -> dict:
    """A range about each input's default that holds zero."""
    return {
        addr: Interval(content.default - abs(content.default) - 1, content.default + 1)
        for addr, content in program.cells.items()
        if isinstance(content, Input)
    }


def _cases() -> dict[str, list[tuple[str, str, str | None]]]:
    """(name, .sheet text, .intervals text or None) per source; with no
    .intervals text, every input is widened."""
    fixtures = []
    for sheet in sorted(FIXTURES.glob("*.sheet")):
        spec = sheet.with_suffix(".intervals")
        fixtures.append((sheet.name, sheet.read_text(), spec.read_text() if spec.exists() else None))
    injected = []
    for k, case in enumerate(injection.cases(20)):
        injected.append((f"{case.code}-{k}-clean", case.clean, None))
        injected.append((f"{case.code}-{k}-faulty", case.faulty, None))
    return {
        "fixtures": fixtures,
        "corpus": [(f"corpus-{cp.seed}", cp.text, None) for cp in corpus.corpus(300)],
        "injection": injected,
        "shapes": [
            ("filled-down", filled_down(300), None),
            ("subtotal-blocks", subtotal_blocks(60), None),
            ("faults", FAULTS, FAULTS_SPEC),
        ],
    }


CASES = _cases()


def _ranges(program, spec_text: str | None) -> dict:
    if spec_text is not None:
        return dict(load_interval_spec(spec_text, program).input_ranges)
    return _widened(program)


@pytest.mark.parametrize("source", sorted(CASES))
def test_evaluator_matches_the_oracle(source):
    cyclic = []
    for name, text, spec_text in CASES[source]:
        program = load_program(text)
        try:
            order = build_graph(program).topo_order()
        except CyclicDependency:
            cyclic.append(name)
            continue
        instance = instantiate(program)
        new, old = eval_instance(instance), eval_oracle.eval_in_order(instance, order)
        assert list(new.values.items()) == list(old.values.items()), name
        assert new.notes == old.notes, name
        ranges = _ranges(program, spec_text)
        new_notes, old_notes = [], []
        new_held = evaluate(instance, ranges, new_notes)
        old_held = eval_oracle.evaluate(instance, order, ranges, old_notes)
        assert list(new_held.items()) == list(old_held.items()), name
        assert new_notes == old_notes, name
    assert cyclic == (["cyclic.sheet"] if source == "fixtures" else [])


def test_the_fault_sheet_reaches_every_fault_and_note():
    program = load_program(FAULTS)
    instance = instantiate(program)
    concrete = eval_instance(instance)
    notes = list(concrete.notes)
    held = evaluate(instance, _ranges(program, FAULTS_SPEC), notes)
    values = [*concrete.values.values(), *held.values()]
    faults = {value.kind for value in values if isinstance(value, Fault)}
    assert faults == set(FaultKind) - {FaultKind.CYCLE}
    assert {note.kind for note in notes} == set(NoteKind)


def _lane(held: dict, k: int) -> list:
    """One lane of a two-lane run: lane k of each pair, and every other
    value as it is."""
    return [(addr, value[k] if type(value) is tuple else value) for addr, value in held.items()]


@pytest.mark.parametrize("source", sorted(CASES))
def test_each_lane_matches_the_oracle(source):
    split = set()
    for name, text, spec_text in CASES[source]:
        program = load_program(text)
        try:
            order = build_graph(program).topo_order()
        except CyclicDependency:
            continue
        instance = instantiate(program)
        ranges = _ranges(program, spec_text)
        held = evaluate_lanes(instance, ranges)
        points = eval_oracle.evaluate(instance, order, {}, [])
        bounds = eval_oracle.evaluate(instance, order, ranges, [])
        assert _lane(held, 0) == list(points.items()), name
        assert _lane(held, 1) == list(bounds.items()), name
        if name == "faults":
            split = {value for value in held.values() if type(value) is tuple}
        # With no range, every cell holds one value.
        assert tuple not in map(type, evaluate_lanes(instance, {}).values()), name
    if source == "shapes":
        # B2 = =A2/(A2-3) divides by zero at the point, and by a range
        # that holds zero over the ranges: the lanes fault differently.
        divided = (Fault(FaultKind.DIV_BY_ZERO), Fault(FaultKind.DIVISOR_CONTAINS_ZERO))
        assert divided in split
