"""The value-type contract: immutable named tuples compared by type."""

import copy
import math
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

from sheetlint.areas import PhysicalArea
from sheetlint.detectors import Code, Diagnostic, Severity
from sheetlint.evaluator import (
    BLANK,
    Blank,
    Fault,
    FaultKind,
    Interval,
    Number,
    RuntimeNote,
    NoteKind,
    Text,
)
from sheetlint import intervals
from sheetlint.model import Constant, Input, Label, load_program
from sheetlint.scl import (
    BinaryOp,
    CellAddress,
    CellRef,
    NormRef,
    NumberLiteral,
    RangeRef,
    Reference,
    parse_formula,
)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

ADDR = CellAddress(2, 3)

# Pairs of values of different types over the same fields.
LOOKALIKES = [
    (Constant(3.0), Input(3.0)),
    (Constant(3.0), Number(3.0)),
    (Constant(3.0), NumberLiteral(3.0)),
    (Input(3.0), Number(3.0)),
    (Input(3.0), NumberLiteral(3.0)),
    (Number(3.0), NumberLiteral(3.0)),
    (Text("a"), Label("a")),
    (Reference(CellRef(1, 1)), Reference(NormRef(1, 1))),
    (CellRef(1, 1), NormRef(1, 1)),
]


class TestEquality:
    @pytest.mark.parametrize("a, b", LOOKALIKES, ids=lambda v: type(v).__name__)
    def test_types_differ(self, a, b):
        assert hash(a) == hash(b)  # the same fields underneath
        assert not a == b and not b == a
        assert a != b and b != a

    @pytest.mark.parametrize("value", [Constant(3.0), Text("a"), BLANK, Interval(1.0, 2.0)])
    def test_plain_tuple_differs(self, value):
        plain = tuple(value)
        assert value != plain and plain != value
        assert not value == plain and not plain == value

    def test_equal_values(self):
        a = parse_formula("SUM(A1:B2)*-$C$3+1.5")
        b = parse_formula("SUM( A1 : B2 ) * -$C$3 + 1.5")
        assert a == b and not a != b
        assert Interval(1, 2) == Interval(1.0, 2.0)
        assert Blank() == BLANK

    def test_unequal_fields(self):
        assert Constant(3.0) != Constant(4.0)
        assert not Constant(3.0) == Constant(4.0)


class TestHashing:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: parse_formula("SUM(A1:B2)*-$C$3+1.5"),
            lambda: Constant(3.0),
            lambda: Fault(FaultKind.CYCLE),
            lambda: RuntimeNote(NoteKind.DIV_BY_ZERO, ADDR),
            lambda: Interval(0.5, 2.0),
            lambda: Blank(),
        ],
    )
    def test_equal_values_hash_equal(self, make):
        a, b = make(), make()
        assert a is not b and a == b
        assert hash(a) == hash(b)
        # The hash of the field tuple, as the dataclasses gave, so sets
        # of values iterate in the same order as before.
        assert hash(a) == hash(tuple(a))

    def test_lookalikes_are_distinct_keys(self):
        keys = {Constant(3.0): "c", Input(3.0): "i", Number(3.0): "n"}
        assert len(keys) == 3
        assert keys[Input(3.0)] == "i"


class TestImmutability:
    @pytest.mark.parametrize(
        "value, field",
        [
            (CellRef(1, 1), "col"),
            (Constant(3.0), "value"),
            (Interval(1.0, 2.0), "lo"),
            (Diagnostic(Code.G_CYCLE, Severity.ERROR, (ADDR,), "m"), "message"),
        ],
    )
    def test_assignment_raises(self, value, field):
        with pytest.raises(AttributeError):
            setattr(value, field, 0)
        with pytest.raises(AttributeError):
            value.extra = 0

    def test_blank_is_truthy(self):
        assert bool(BLANK) is True
        assert bool(Blank()) is True

    def test_replace_makes_a_checked_copy(self):
        ref = CellRef(1, 2)
        assert ref._replace(row=5) == CellRef(1, 5)
        assert ref == CellRef(1, 2)
        with pytest.raises(ValueError, match=r"start at 1, got \(0, 2\)"):
            ref._replace(col=0)
        with pytest.raises(ValueError, match="not an interval"):
            Interval(1.0, 2.0)._replace(lo=3.0)

    def test_pickle_round_trip(self):
        tree = parse_formula("SUM($A1:B$2)/-C3")
        assert pickle.loads(pickle.dumps(tree)) == tree


class TestDeepTrees:
    """Pickle and deepcopy of a tree take no frame per level, as the
    loader accepts chains of any length."""

    @pytest.mark.parametrize("terms", [3000, 100_000])
    @pytest.mark.parametrize(
        "round_trip",
        [lambda value: pickle.loads(pickle.dumps(value)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_program_round_trips(self, terms, round_trip, low_recursion_limit):
        chain = "+".join(["-SUM(A1:A2)*2", "MAX(A1,-(A2/4))"] + ["A1"] * (terms - 2))
        program = load_program(f"A1 = ?1\nA2 = #2\nB1 = ={chain}\n")
        copied = round_trip(program)
        assert copied is not program and copied == program


class TestRepr:
    # The spelling the dataclasses gave, one type per module.
    @pytest.mark.parametrize(
        "value, expected",
        [
            (
                BinaryOp("+", Reference(CellRef(1, 2, True)), NumberLiteral(2.5)),
                "BinaryOp(op='+', left=Reference(ref=CellRef(col=1, row=2, "
                "col_absolute=True, row_absolute=False)), right=NumberLiteral(value=2.5))",
            ),
            (Label("Net"), "Label(text='Net')"),
            (
                RuntimeNote(NoteKind.BLANK_IN_ARITHMETIC, ADDR),
                "RuntimeNote(kind=<NoteKind.BLANK_IN_ARITHMETIC: 'blank_in_arithmetic'>, "
                "cell=CellAddress(col=2, row=3), subject=None)",
            ),
            (BLANK, "Blank()"),
            (
                intervals.TestReport(
                    (
                        intervals.CellTest(
                            ADDR, Number(1.0), Interval(0.0, 1.0), None,
                            intervals.Verdict.NOT_JUDGED, (),
                        ),
                    )
                ),
                "TestReport(rows=(CellTest(cell=CellAddress(col=2, row=3), "
                "value=Number(value=1.0), bounding=Interval(lo=0.0, hi=1.0), expected=None, "
                "verdict=<Verdict.NOT_JUDGED: 'not_judged'>, suspects=()),))",
            ),
            (
                PhysicalArea(RangeRef(CellRef(1, 1), CellRef(1, 3)), ADDR, "SUM", "input"),
                "PhysicalArea(rect=RangeRef(start=CellRef(col=1, row=1, col_absolute=False, "
                "row_absolute=False), end=CellRef(col=1, row=3, col_absolute=False, "
                "row_absolute=False)), consumer=CellAddress(col=2, row=3), function='SUM', "
                "majority_type='input')",
            ),
            (
                Diagnostic(Code.D1_BLANK_REF, Severity.WARNING, (ADDR,), "B3 reads empty cell A1"),
                "Diagnostic(code=<Code.D1_BLANK_REF: 'D1_BLANK_REF'>, severity=<Severity.WARNING: "
                "'warning'>, cells=(CellAddress(col=2, row=3),), message='B3 reads empty cell A1', "
                "area=None)",
            ),
        ],
        ids=lambda v: type(v).__name__ if not isinstance(v, str) else "",
    )
    def test_repr_unchanged(self, value, expected):
        assert repr(value) == expected


class TestValidation:
    def test_cell_ref(self):
        with pytest.raises(ValueError) as info:
            CellRef(0, 1)
        assert str(info.value) == "cell coordinates start at 1, got (0, 1)"

    def test_range_corners(self):
        with pytest.raises(ValueError) as info:
            RangeRef(CellRef(2, 2), CellRef(1, 1))
        assert str(info.value) == "range corners out of order: B2:A1"

    def test_reversed_interval(self):
        with pytest.raises(ValueError) as info:
            Interval(2, 1)
        assert str(info.value) == "not an interval: lo=2, hi=1"

    def test_nan_interval(self):
        with pytest.raises(ValueError) as info:
            Interval(math.nan, math.nan)
        assert str(info.value) == "not an interval: lo=nan, hi=nan"


class TestImportCost:
    def test_cli_imports_neither_dataclasses_nor_inspect(self):
        # -S keeps site packages, and what they import, out of the result.
        code = (
            "import sys, sheetlint.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert proc.stdout == "[]\n"
