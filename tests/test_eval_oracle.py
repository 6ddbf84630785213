"""The evaluator against the earlier one kept in ``eval_oracle``.

On every fixture, 300 corpus programs, the injection cases, filled-down
and subtotal-block sheets and a sheet of every fault, the concrete run
(``eval_instance``) and the interval run (``evaluate`` over input
ranges) must each give what the earlier evaluator gave: equal values,
in the same key order, and equal notes of the kinds the package still
has.  So must each lane of the two-lane run (``evaluate_lanes``): its
point lane the earlier run over points, and its ranged lane the earlier
run over the ranges.  And on 300 corpus programs, the fixtures and
``tests/shapes/``, the blank and label notes the oracle still raises
must say what D1 and D2 report.
"""

import pathlib

import pytest

import corpus
import eval_oracle
import injection
from sheetlint.dataflow import CyclicDependency, build_graph
from sheetlint.detectors import detect_blank_ref, detect_wrong_type_in_range
from sheetlint.evaluator import (
    Fault,
    FaultKind,
    Interval,
    NoteKind,
    RuntimeNote,
    eval_instance,
    evaluate,
    evaluate_lanes,
)
from sheetlint.intervals import load_interval_spec
from sheetlint.model import Input, instantiate, load_program
from sheetlint.scl import RangeRef, parse_address
from test_scaling import filled_down, subtotal_blocks

HERE = pathlib.Path(__file__).parent
FIXTURES = HERE.parent / "fixtures"

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


def _kept(notes) -> list[RuntimeNote]:
    """The oracle's notes of the kinds the package still has, as the
    package's notes."""
    return [
        RuntimeNote(NoteKind[note.kind.name], note.cell, note.subject)
        for note in notes
        if note.kind.name in NoteKind.__members__
    ]


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
        assert list(new.notes) == _kept(old.notes), name
        ranges = _ranges(program, spec_text)
        new_notes, old_notes = [], []
        new_held = evaluate(instance, ranges, new_notes)
        old_held = eval_oracle.evaluate(instance, order, ranges, old_notes)
        assert list(new_held.items()) == list(old_held.items()), name
        assert new_notes == _kept(old_notes), name
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


# ---------------------------------------------------------------------------
# The blank and label notes against D1 and D2
#
# The package's evaluator dropped these two kinds of note because D1
# and D2 report the same facts without evaluating.  The oracle still
# raises them, as the record of what they said.


def _notes(program) -> tuple | None:
    """The oracle's notes of the concrete run, all four kinds, or None
    for a cyclic program."""
    try:
        order = build_graph(program).topo_order()
    except CyclicDependency:
        return None
    return eval_oracle.eval_in_order(instantiate(program), order).notes


def _noted(program, notes) -> tuple[set, set]:
    """What the blank and label notes say: the (formula, subject) pairs
    of the BLANK_IN_ARITHMETIC notes and of the SKIPPED_NON_NUMERIC
    notes whose subject is empty, and the label subjects of the rest."""
    empty, labels = set(), set()
    for note in notes:
        if note.kind is eval_oracle.NoteKind.BLANK_IN_ARITHMETIC:
            empty.add((note.cell, note.subject))
        elif note.kind is eval_oracle.NoteKind.SKIPPED_NON_NUMERIC:
            if type(note.subject) is RangeRef or program.content(note.subject) is None:
                empty.add((note.cell, note.subject))
            else:
                labels.add(note.subject)
    return empty, labels


def _reported(program) -> tuple[set, set]:
    """D1's (formula, subject) pairs and D2's labels."""
    empty = {
        (parse_address(diag.message.split(" ", 1)[0]), diag.cells[0])
        for diag in detect_blank_ref(program)
    }
    labels = {diag.cells[0] for diag in detect_wrong_type_in_range(program)}
    return empty, labels


def _programs() -> list[tuple[str, str]]:
    """(name, .sheet text) for 300 corpus programs, the fixtures and
    the small benchmark shapes."""
    sheets = sorted(FIXTURES.glob("*.sheet")) + sorted((HERE / "shapes").glob("*.sheet"))
    return [(cp.seed, cp.text) for cp in corpus.corpus(300)] + [
        (sheet.name, sheet.read_text()) for sheet in sheets
    ]


def test_blank_and_label_notes_say_what_d1_and_d2_report():
    pairs = labels = 0
    for name, text in _programs():
        program = load_program(text)
        notes = _notes(program)
        if notes is None:
            assert name == "cyclic.sheet"
            continue
        noted, reported = _noted(program, notes), _reported(program)
        assert noted == reported, name
        pairs += len(reported[0])
        labels += len(reported[1])
    assert (pairs, labels) == (374, 189)


@pytest.mark.parametrize(
    "text, blanks, labels, d1",
    [
        # A label read as a grouping function's direct argument is
        # noted, but D2 reports labels inside ranges only.
        ('L1 = "x"\nB1 = =SUM(L1, A1)\n', {"A1"}, {"L1"}, {"A1"}),
        # The left operand faults first, so the blank on the right is
        # never coerced and never noted; D1 still reports it.
        ('L1 = "x"\nB1 = =L1+C9\n', set(), set(), {"C9"}),
    ],
)
def test_where_the_notes_and_the_detectors_differ(text, blanks, labels, d1):
    program = load_program(text)
    noted, reported = _noted(program, _notes(program)), _reported(program)
    assert {str(subject) for _, subject in noted[0]} == blanks
    assert set(map(str, noted[1])) == labels
    assert {str(subject) for _, subject in reported[0]} == d1
    assert reported[1] == set()
