"""The readers against the earlier ones kept in ``loader_oracle``.

On every fixture, 300 corpus programs, the injection cases, the clean
idioms, the fuzz mutants and a few crafted texts, ``load_program``,
``parse_formula`` and ``load_interval_spec`` must each build what the
earlier reader built, or raise the same exception class with the same
message and line or offset.  Two differences are allowed, both on
purpose.  A digit of another script is no digit of the formats, so a
text holding one may now be refused where it was read before.  Only
'\n', '\r\n' and a lone '\r' end a line now, where the earlier
readers also broke lines at a form feed, U+0085, U+2028 and the other
breaks of ``str.splitlines``; a text holding one of those may now be
read, or refused, or refused at another line.

On the same inputs, each formula ``load_program`` reads through its
copy classes must get the tree ``parse_formula`` gives its body, and
the copy key and skeleton that tree has.
"""

import math
import pathlib
import random
import re
import sys

import pytest

import corpus
import injection
import loader_oracle
from idioms import IDIOMS
from sheetlint import SheetLintError
from sheetlint.areas import copy_keys, skeletons
from sheetlint.intervals import _SPEC_ENTRY, load_interval_spec
from sheetlint.model import (
    _CELL_LINE_RE,
    CellFormulaError,
    LoadError,
    SpreadsheetProgram,
    load_program,
    split_lines,
    strip_comment,
)
from sheetlint.scl import column_letters, copy_key, parse_address, parse_formula, render, skeleton
from test_fuzz import _cases as fuzz_cases

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"
# A decimal digit outside 0-9.
OTHER_DIGIT = re.compile(r"(?![0-9])\d")
# What str.splitlines breaks a line at beyond '\n' and '\r'.
OTHER_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"
OTHER_BREAK = re.compile(f"[{OTHER_BREAKS}]")
LONG_ROW = "1" * 5000


def spelled_copies(rows: int) -> str:
    """Copies filled down and across, spelled in several ways.

    Column B holds `=A_r*2` in four spellings: as written, in lower
    case with spaces, with a '$' moved onto the column, and with a space
    before the operator.  Column C holds running totals from A$10, whose
    corners are out of order above row 10, and column D ranges written
    bottom-up.  Row rows + 2 holds `=X*2+1` copied right from B to AD,
    across the Z to AA boundary, and the row below it bodies where a
    number takes in what the reference pattern alone would read as
    the reference E5.
    """
    spellings = ["=A{r}*2", "= a{r} * 2", "=$A{r}*2", "=A{r} *2"]
    lines = []
    for r in range(1, rows + 1):
        lines.append(f"A{r} = ?{r % 7 + 1}")
        lines.append(f"B{r} = " + spellings[r % 4].format(r=r))
        lines.append(f"C{r} = =SUM(A$10:A{r})")
        lines.append(f"D{r} = =sum(a{r}:$A$1)")
    across = rows + 2
    lines.append(f"A{across} = ?3")
    for c in range(2, 31):
        lines.append(f"{column_letters(c)}{across} = ={column_letters(c - 1)}{across}*2+1")
    lines += [f"A{across + 1} = =1E5+A1", f"B{across + 1} = =1E5+A2", f"C{across + 1} = =1E5+B1"]
    return "\n".join(lines) + "\n"


CRAFTED = [
    "A1 = ?1\nB1 = =A١+1\n",
    "A1 = #١٢\n",
    "A1 = ?1\nB1 = =A1 B2\n",
    "A1 = ?1\nB1 = =A0:A1\n",
    "A1 = ?1\nB1 = =SUM( A1 : $A$0 )\n",
    f"A1 = ?1\nB1 = =A1 B{LONG_ROW}\n",
    f"A1 = ?1\nB1 = =A{LONG_ROW}+%\n",
    f"A1 = ?1\nB1 = =A{LONG_ROW}:A1\n",
    "A1 = ?1\nB1 = =A1+  A1　\n",
    'A1 = "x;y"; z\nB1 = ?2 ; "q"\n',
    # At the edges of the one-match reading of a well-formed line.
    "B01 = #1\nb2 = #1\n",
    "B01 = #1\nB1 = #2\n",
    f"A{'1' * 19} = #1\n",
    f"A{'1' * 4300} = #1\nB1 = =A{'1' * 4300}\n",
    "A0 = #1e400\n",
    "A1 == B1\n",
    "A1 = =\n",
    'A1 = ""\n',
    'A1 = "a"b"\n',
    "A1 = # 5\n",
    "A1 = #1e400\n",
    "A1 = ?-1e400\n",
    "A1 = #1\nA1 = #1e400\n",
    "A1 = #1\nA1 = =(\n",
    "A1\t=\u00a0#1\u00a0\nB1 \u00a0=\t=A1 \t\n",
    'A1 = "a;b" ; c\nA2 = "a;b\n',
    "A1 = #1 2\n",
    "A1 = ?\n",
    'A1 = "\n',
    "= #1\n",
    "A1 #1\n",
    "\n  \t\n; c\nA1 = #1\n\u3000\n",
    # Copy classes: each later body shares the first one's tree only
    # where the full parse would build the same.
    spelled_copies(40),
    "A1 = ?1\nB20 = =SUM(A$10:A20)\nB5 = =SUM(A$10:A5)\nB21 = =SUM(A$10:A21)\n",
    "A1 = ?1\nA2 = ?2\nB1 = =1E5+A1\nB2 = =1E5+A2\nC2 = =1E5+B2\nB3 = =1e5+A3\n",
    "A1 = ?1\nB1 = =A1*2\nB2 = =a2*2\nB3 = = A3 * 2\nB4 = =$A4*2\nB5 = =A$5*2\nB6 = =A6*2\n",
    "Y1 = ?1\nZ1 = =Y1+1\nAA1 = =Z1+1\nAB1 = =AA1+1\nZZ2 = =ZY2*2\nAAA2 = =ZZ2*2\n",
    "A1 = ?1\nB5 = =A1*2\nB4 = =A0*2\n",
    # An absolute axis keys by its coordinate and its marker: $A1 at C1
    # and $B1 at D1 lie at one offset from their cells, and $A1 at C1
    # and B2 at A2 put the same column number in the key, yet neither
    # pair is a copy.
    "A1 = ?1\nB1 = ?2\nA2 = ?3\nC1 = =$A1+B1\nD1 = =$B1+C1\nC2 = =C$1*2\nC3 = =C$2*2\n",
    "A1 = ?1\nB2 = ?2\nC1 = =$A1*2\nA2 = =B2*2\n",
    "A1 = ?1\nB5 = =SUM(A1:A2)\nB6 = =SUM(A2:A3)\nB7 = =SUM(A3:A2)\nB8 = =SUM(A4:A5)\n",
    # Errors that compete: a duplicate address comes before anything
    # wrong with its content, and a bad row before a bad number.
    "A1 = #1\nA1 = foo\n",
    'A1 = #1\nA1 = "x\n',
    "A1 = #1\nA1 = #x\n",
    "A1 = #1\nA1 = ?1e400\n",
    "A0 = #x\n",
    # Line ends: '\r\n' and a lone '\r' end a line, as '\n' does.
    'A1 = #1\r\nA2 = "a"\rA3 = =A1+1\r\n\rA5 = foo\r\n',
]
# Each other break of str.splitlines, inside a line: in a label, as
# whitespace in a formula and after a number, and where it once split
# two cells that share one line now.
CRAFTED += [
    text
    for c in OTHER_BREAKS
    for text in (
        f'A1 = "a{c}b"\nB1 = ?1\nC1 = =B1{c}+1\n',
        f"A1 = #1{c}\nA2 = ?2 {c}; note\n",
        f"A1 = #1{c}A2 = #2\nA3 = foo\n",
    )
]
# Specs read against SPEC_SHEET.
SPEC_SHEET = "A1 = ?1\nB2 = ?2\nC1 = =A1+B2\n"
CRAFTED_SPECS = [
    "input  b2 in [ 1 , 2 ]\n",
    "expect B2 in [2, 1]\n",
    "input B2 in [1e400, 2]\n",
    "expect C1 in [2, 1]\n",
    "input B02 in [1,2]\nexpect C01 in [0, 9]\n",
    "input B0 in [1, 2]\n",
    "input B2 in[1, 2]\n",
    "input B2 in [1, 2] ; c\n\n  \n",
    "input B2 in [1,2]\ninput B2 in [1,2]\n",
    "expect A1 in [0, 1]\n",
    "input C1 in [0, 1]\n",
    "input B2\tin\u00a0[1,\t2]\u00a0\n",
    "input B2 in [1, 2, 3]\n",
    "input B2 in [1., .5e1]\n",
    # Errors that compete: a bad endpoint before an empty interval, and
    # a bad row before either.
    "input B2 in [1e400, -1]\n",
    "input B2 in [5, -1e400]\n",
    "input B0 in [2, 1]\n",
    "expect C1 in [x, 1]\n",
    "input B2 in [1, 2]\r\nexpect C1 in [0, 9]\r\rinput B2 in [3, 4]\n",
]
CRAFTED_SPECS += [
    text
    for c in OTHER_BREAKS
    for text in (f"input B2 in [1,{c}2]{c}\n", f"input B2 in [1, 2]{c}expect C1 in [0, 9]\n")
]


def _spec_text(cp: corpus.CorpusProgram) -> str:
    return "".join(f"input {addr} in [{box.lo!r}, {box.hi!r}]\n" for addr, box in cp.input_ranges.items())


def _inputs() -> dict[str, list[tuple[str, str, str]]]:
    """(name, .sheet text, .intervals text) per source."""
    fixtures = []
    for sheet in sorted(FIXTURES.glob("*.sheet")):
        spec = sheet.with_suffix(".intervals")
        fixtures.append((sheet.name, sheet.read_text(), spec.read_text() if spec.exists() else ""))
    injected = []
    for k, case in enumerate(injection.cases(20)):
        injected.append((f"{case.code}-{k}-clean", case.clean, ""))
        injected.append((f"{case.code}-{k}-faulty", case.faulty, ""))
    idioms = [
        (f"{name}-{seed}", make(random.Random(seed)), "")
        for name, make in IDIOMS.items()
        for seed in range(5)
    ]
    return {
        "fixtures": fixtures,
        "idioms": idioms,
        "corpus": [(f"corpus-{cp.seed}", cp.text, _spec_text(cp)) for cp in corpus.corpus(300)],
        "injection": injected,
        "fuzz": fuzz_cases(),
        "crafted": [(f"crafted-{k}", text, "") for k, text in enumerate(CRAFTED)]
        + [(f"crafted-spec-{k}", SPEC_SHEET, spec) for k, spec in enumerate(CRAFTED_SPECS)],
    }


INPUTS = _inputs()


def _outcome(fn, *args):
    """What a reader made of its input, in comparable form."""
    try:
        result = fn(*args)
    except Exception as err:  # the oracle compares every exception
        where = getattr(err, "line", None), getattr(err, "position", None)
        cause = err.__cause__
        return ("raise", type(err), str(err), where, type(cause), str(cause))
    return ("ok", result)


def _agree(new, old, text: str) -> bool:
    """Equal outcomes; or a refusal now of what held another script's
    digit and was read before; or, for a text holding a break other
    than '\n' and '\r', any outcome short of a crash."""
    if new == old:
        return True
    refused = new[0] == "raise" and issubclass(new[1], SheetLintError)
    if OTHER_BREAK.search(text) is not None:
        return new[0] == "ok" or refused
    return OTHER_DIGIT.search(text) is not None and refused


def _spec(outcome):
    if outcome[0] == "ok":
        spec = outcome[1]
        return ("ok", list(spec.input_ranges.items()), list(spec.expected.items()))
    return outcome


def _tree(outcome):
    if outcome[0] == "ok":
        return ("ok", outcome[1], render(outcome[1]))
    return outcome


@pytest.mark.parametrize("source", sorted(INPUTS))
def test_readers_match_the_oracle(source):
    for name, sheet_text, spec_text in INPUTS[source]:
        new = _outcome(load_program, sheet_text)
        old = _outcome(loader_oracle.load_program, sheet_text)
        assert _agree(new, old, sheet_text), (name, new, old)
        if new[0] == "ok" and old[0] == "ok":
            program = new[1]
            new_spec = _spec(_outcome(load_interval_spec, spec_text, program))
            old_spec = _spec(_outcome(loader_oracle.load_interval_spec, spec_text, program))
            assert _agree(new_spec, old_spec, spec_text), (name, new_spec, old_spec)
        for line in sheet_text.splitlines():
            content = line.partition("=")[2].strip()
            if content.startswith("="):
                body = content[1:]
                new_tree = _tree(_outcome(parse_formula, body))
                old_tree = _tree(_outcome(loader_oracle.parse_formula, body))
                assert _agree(new_tree, old_tree, body), (name, body[:80], new_tree, old_tree)


def test_the_inputs_reach_both_outcomes():
    outcomes = {
        source: {_outcome(load_program, text)[0] for _, text, _ in inputs}
        for source, inputs in INPUTS.items()
    }
    assert outcomes["fuzz"] == outcomes["crafted"] == {"ok", "raise"}
    assert outcomes["corpus"] == {"ok"}


def test_other_script_digits_are_refused_now():
    for text in CRAFTED[:2]:
        assert _outcome(loader_oracle.load_program, text)[0] == "ok"
        assert _outcome(load_program, text)[0] == "raise"


def test_strip_comment_matches_the_quadratic_scan():
    rng = random.Random(1313)
    lines = ["", ";", '"', '";"', 'a"b;c"d;e', '";";";"', ';"', '"";']
    lines += ["".join(rng.choice(';"a ') for _ in range(rng.randrange(16))) for _ in range(20000)]
    lines += [
        line
        for inputs in INPUTS.values()
        for _, text, spec in inputs
        for line in (text + spec).splitlines()
        if len(line) < 1000
    ]
    for line in lines:
        assert strip_comment(line) == loader_oracle.quadratic_strip_comment(line), line


def test_whitespace_class_is_str_isspace():
    # The one-match readers skip whitespace with \s where the step-by-step
    # reading strips it with str.strip; they agree on every code point.
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", everything) == [c for c in everything if c.isspace()]


def test_crafted_specs_reach_both_outcomes():
    program = load_program(SPEC_SHEET)
    outcomes = {_outcome(load_interval_spec, spec, program)[0] for spec in CRAFTED_SPECS}
    assert outcomes == {"ok", "raise"}


# One digit past the 4300 that ``int`` reads from a string by default.
# The oracle predates the check and fails there with a ValueError.
OVERLONG = "1" * 4301


@pytest.mark.parametrize(
    "sheet_text, spec_text, line",
    [
        (f"A1 = #1\nA{OVERLONG} = #1\n", None, 2),
        (f"A{OVERLONG} = =(\n", None, 1),
        (SPEC_SHEET, f"input B2 in [1, 2]\ninput B{OVERLONG} in [1, 2]\n", 2),
    ],
    ids=["cell", "cell-before-content", "intervals"],
)
def test_rows_past_the_int_limit_name_their_line(sheet_text, spec_text, line):
    with pytest.raises(SheetLintError) as caught:
        load_interval_spec(spec_text, load_program(sheet_text))
    assert caught.value.line == line
    assert str(caught.value) == f"line {line}: row number too long: 4301 digits"


def _formula_lines(text: str):
    """The host and body of each formula line of a .sheet text, the
    body as the loader reads it: after the second '=', up to any
    comment, with trailing whitespace dropped."""
    for line in split_lines(text):
        addr_text, _, content = strip_comment(line).partition("=")
        content = content.strip()
        if content.startswith("="):
            yield parse_address(addr_text.strip()), content[1:]


@pytest.mark.parametrize("source", sorted(INPUTS))
def test_copy_classes_match_a_parse_per_formula(source):
    for name, sheet_text, _ in INPUTS[source]:
        try:
            program = load_program(sheet_text)
        except SheetLintError:
            continue
        keys, shapes = copy_keys(program), skeletons(program)
        for host, body in _formula_lines(sheet_text):
            tree, expected = program.content(host).ast, parse_formula(body)
            assert (tree, render(tree)) == (expected, render(expected)), (name, host, body)
            assert keys[host] == copy_key(expected, host), (name, host, body)
            assert shapes[host] == skeleton(expected), (name, host, body)


def test_copies_share_only_what_a_parse_would_build():
    program = load_program(spelled_copies(40))
    classes = program.copy_classes
    first = {addr: classes.get(addr, addr) for addr, _ in program.formula_cells()}
    spelled = {str(addr): str(first[addr]) for addr in first}
    # Each spelling of `=A_r*2` is a class of its own: 10 copies each.
    assert [spelled[f"B{r}"] for r in (1, 2, 3, 4, 5, 6, 7, 8)] == [
        "B1", "B2", "B3", "B4", "B1", "B2", "B3", "B4"
    ]
    # Running totals share from row 10 on; above it the corners are out
    # of order, and each is parsed on its own.
    assert [spelled[f"C{r}"] for r in (8, 9, 10, 11, 40)] == ["C8", "C9", "C10", "C10", "C10"]
    # A bottom-up range is parsed on its own; so is every `1E5+X` body.
    assert all(spelled[f"D{r}"] == f"D{r}" for r in range(1, 41))
    assert [spelled[f"{col}43"] for col in "ABC"] == ["A43", "B43", "C43"]
    # The copies across Z to AA are one class.
    assert {spelled[f"{column_letters(c)}42"] for c in range(2, 31)} == {"B42"}


@pytest.mark.parametrize(
    "row, message",
    [("0", "row numbers start at 1: 'A0'"), (OVERLONG, "row number too long: 4301 digits")],
    ids=["row-0", "overlong-row"],
)
def test_a_later_copy_with_a_bad_row_names_its_line(row, message):
    # A0 from B4 is the offset A1 has from B5: the body would share
    # B5's class but for its row.
    text = f"A1 = ?1\nB5 = =A1*2\nB6 = =A2*2\nB4 = =A{row}*2\n"
    with pytest.raises(CellFormulaError) as caught:
        load_program(text)
    assert caught.value.line == 4
    assert str(caught.value) == f"line 4: cell B4: {message} (at offset 0)"


def test_only_newline_and_carriage_return_end_a_line():
    for c in OTHER_BREAKS:
        # The form feed and the others are inside the line: a label
        # holds one, and a formula or a number takes it as whitespace.
        program = load_program(f'A1 = "a{c}b"\nB1 = ?1\nC1 = =B1{c}+1\n')
        assert program.content(parse_address("A1")).text == f"a{c}b"
        assert render(program.content(parse_address("C1")).ast) == "B1+1"
        with pytest.raises(LoadError) as caught:
            load_program(f"A1 = #1{c}A2 = #2\nA3 = foo\n")
        assert caught.value.line == 1
        assert str(caught.value) == f"line 1: bad number in constant: {f'1{c}A2 = #2'!r}"
        # The readers before split the line in two, and so refused the
        # label as unterminated.
        assert _outcome(loader_oracle.load_program, f'A1 = "a{c}b"\n')[0] == "raise"
    with pytest.raises(LoadError) as caught:
        load_program('A1 = #1\r\nA2 = "a"\rA3 = =A1+1\r\n\rA5 = foo\r\n')
    assert caught.value.line == 5


def test_split_lines_is_splitlines_without_the_other_breaks():
    texts = [text for inputs in INPUTS.values() for _, sheet, spec in inputs for text in (sheet, spec)]
    texts += ["", "\n", "\r", "a\r", "a\r\n\rb", "\r\r\n\n"]
    for text in texts:
        if OTHER_BREAK.search(text) is None:
            old = text.splitlines()
            new = split_lines(text)
            assert new[: len(old)] == old and not any(new[len(old):]), repr(text[:80])


def _row_ok(digits: str) -> bool:
    try:
        return int(digits) >= 1
    except ValueError:  # more digits than ``int`` reads from a string
        return False


def _cell_line_rejected(line: str) -> bool:
    """Whether ``load_program`` rejects a line: its one match fails, or
    the row or the number does not pass the checks after."""
    m = _CELL_LINE_RE.match(line)
    if m is None or not _row_ok(m.group(2)):
        return True
    return m.group(3) is not None and not math.isfinite(float(m.group(4)))


def _spec_line_rejected(line: str) -> bool:
    """Whether ``load_interval_spec`` rejects a line: its one match
    fails, or the row or the endpoints do not pass the checks after."""
    m = re.match(_SPEC_ENTRY, line)
    if m is None or not _row_ok(m.group(3)):
        return True
    lo, hi = float(m.group(4)), float(m.group(5))
    return not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi)


def test_every_rejected_line_alone_raises_its_error():
    """The explainers name an error for every line the one-match
    readings reject: loaded alone, each such line raises a LoadError,
    the one the earlier readers raise."""
    empty = SpreadsheetProgram({})
    sheet_lines, spec_lines = set(), set()
    for source in ("crafted", "fuzz"):
        for _, sheet_text, spec_text in INPUTS[source]:
            sheet_lines.update(map(strip_comment, split_lines(sheet_text)))
            spec_lines.update(map(strip_comment, split_lines(spec_text)))
    rejected_cells = [l for l in sorted(sheet_lines) if l.strip() and _cell_line_rejected(l)]
    rejected_specs = [l for l in sorted(spec_lines) if l.strip() and _spec_line_rejected(l)]
    assert len(rejected_cells) > 100 and len(rejected_specs) > 20
    for line in rejected_cells:
        new = _outcome(load_program, line)
        assert new[0] == "raise" and issubclass(new[1], LoadError), (line, new)
        assert _agree(new, _outcome(loader_oracle.load_program, line), line), line
    for line in rejected_specs:
        new = _outcome(load_interval_spec, line, empty)
        assert new[0] == "raise" and issubclass(new[1], LoadError), (line, new)
        old = _outcome(loader_oracle.load_interval_spec, line, empty)
        assert _agree(new, old, line), line
