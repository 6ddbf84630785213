"""Seeded mutation fuzz: mangled fixture text never escapes as a
traceback, a hang or an undocumented exit code.

Each case mutates one fixture sheet, or the intervals file given with
it, and runs all four commands in-process.  Every run must exit 0, 1
or 2 within five seconds; exit 2 prints exactly one stderr line,
``sheetlint: error: ...``, and the other exits print nothing there.

Random insertions are single characters, so a range written in a
fixture grows by at most a factor of ten per mutation.  They include
digits of other scripts, which are not digits of the formats, and a
non-breaking space, which is whitespace.  One mutation puts a long run
of ';' inside a label, where it is text: a comment scan that looks back
over the line for every ';' would read there as a hang.  Far addresses
come in whole, as a cell's own address or a direct reference, and one
mutation stretches a range over millions of rows: a path that visits
every address a range covers would read there as a hang.
"""

import contextlib
import io
import pathlib
import random
import re
import signal

import pytest

from sheetlint.cli import main

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"
SHEETS = sorted(FIXTURES.glob("*.sheet"))

SEED = 1108
CASES = 500
LIMIT_S = 5

# Inserted at random offsets.
CHARACTERS = list("$:();\"=#?,+-*/.e ") + list("0179") + ["\n", "\t", "\ufeff"]
# Arabic-Indic one and three, and a non-breaking space.
CHARACTERS += ["\u0661", "\u0663", "\u00a0"]
# The length of the run of ';' put inside a label.
SEMICOLONS = 200_000
# Whole addresses far from the fixtures' cells, and a few that are not
# addresses at all.
FAR = ["A1048577", "XFD1", "ZZZ99999999", "AB123456", "B99999999"]
BAD = ["A0", "B-1", "1e999", "\x00"]
# Rows a range's second corner is moved to, and where that corner's row is.
FAR_ROWS = ["1048576", "3000000", "99999999"]
RANGE_END = re.compile(r"(:\s*\$?[A-Za-z]+\$?)[0-9]+")


class Hang(BaseException):
    """Raised by the alarm; not an OSError, which `main` would report."""


def _alarm(signum, frame):
    raise Hang()


def _far(rng: random.Random) -> str:
    return rng.choice(BAD) if rng.random() < 0.2 else rng.choice(FAR)


def _mutate(text: str, rng: random.Random) -> str:
    for _ in range(rng.randint(1, 3)):
        lines = text.splitlines(keepends=True) or [""]
        i = rng.randrange(len(lines))
        kind = rng.randrange(7)
        if kind == 0:
            at = rng.randint(0, len(text))
            text = text[:at] + rng.choice(CHARACTERS) + text[at:]
        elif kind == 1:
            at = rng.randint(0, len(text))
            text = text[:at] + text[at + rng.randint(1, 5):]
        elif kind == 2:
            # A line moved, or now and then given twice.
            line = lines[i] if rng.random() < 0.2 else lines.pop(i)
            lines.insert(rng.randint(0, len(lines)), line)
            text = "".join(lines)
        elif kind == 3:
            # A far address on the left of a line.
            lines[i] = _far(rng) + " " + lines[i].partition(" ")[2]
            text = "".join(lines)
        elif kind == 4:
            # A far address read directly by a formula.
            formulas = [k for k, line in enumerate(lines) if "= =" in line]
            if formulas:
                k = rng.choice(formulas)
                lines[k] = f"{lines[k].rstrip()}+{_far(rng)}\n"
            else:
                lines.append(f"Z1 = =A1+{_far(rng)}\n")
            text = "".join(lines)
        elif kind == 5:
            # A range stretched over millions of rows.
            ranged = [k for k, line in enumerate(lines) if RANGE_END.search(line)]
            row = rng.choice(FAR_ROWS)
            if ranged:
                k = rng.choice(ranged)
                lines[k] = RANGE_END.sub(lambda m: m.group(1) + row, lines[k], count=1)
            else:
                lines.append(f"Z3 = =SUM(A1:B{row})\n")
            text = "".join(lines)
        else:
            # A long run of ';' inside a label.
            run = ";" * SEMICOLONS
            labels = [k for k, line in enumerate(lines) if '= "' in line]
            if labels:
                k = rng.choice(labels)
                head, quote, tail = lines[k].partition('= "')
                lines[k] = head + quote + run + tail
            else:
                lines.append(f'Z2 = "{run}"\n')
            text = "".join(lines)
    return text


def _cases():
    rng = random.Random(SEED)
    out = []
    for k in range(CASES):
        sheet = rng.choice(SHEETS)
        spec = sheet.with_suffix(".intervals")
        sheet_text = sheet.read_text()
        spec_text = spec.read_text() if spec.exists() else ""
        if spec_text and rng.random() < 0.25:
            spec_text = _mutate(spec_text, rng)
        else:
            sheet_text = _mutate(sheet_text, rng)
        out.append((f"{k}-{sheet.stem}", sheet_text, spec_text))
    return out


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(LIMIT_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Hang:
        pytest.fail(f"{argv[0]} ran past {LIMIT_S} s")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue()


def test_mutants_exit_cleanly(tmp_path):
    sheet, spec = tmp_path / "mutant.sheet", tmp_path / "mutant.intervals"
    for name, sheet_text, spec_text in _cases():
        sheet.write_text(sheet_text, encoding="utf-8")
        spec.write_text(spec_text, encoding="utf-8")
        for command in ("check", "test", "graph", "areas"):
            argv = [command, str(sheet)] + ([str(spec)] if command == "test" else [])
            code, err = _run(argv)
            assert code in (0, 1, 2), (name, command, code)
            if code == 2:
                assert err.count("\n") == 1 and err.startswith("sheetlint: error: "), (
                    name, command, err
                )
            else:
                assert err == "", (name, command, err)
