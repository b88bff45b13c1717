"""README.md states the contract, and this module runs it.

The library tour runs as a doctest.  Every `partition-ot` line of the
command-line block runs through `cli.main`, and a trailing comment is the
line's stdout or its exit code.  Every row of the two refusal tables runs:
a library call must raise exactly the type its row names, in one line of
at most 120 characters, and a command must exit with its row's code and
start its stderr with the row's text.  A row that stops being true fails
here.
"""

import doctest
import json
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from partition_ot import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _section(title):
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end if end >= 0 else None]


def _blocks(text, lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, flags=re.M | re.S)


def _table_rows(text, header):
    """The cells of each row of the table under `header`, backticks stripped."""
    lines = text[text.index(header):].splitlines()
    rows = []
    for line in lines[2:]:  # past the header and its rule
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip().strip("|").split(" | ")]
        rows.append([cell[1:-1] if cell.startswith("`") else cell for cell in cells])
    return rows


REFUSALS = _section("Refusals")
LIBRARY_ROWS = _table_rows(REFUSALS, "| Call | Raises | Message contains |")
COMMAND_ROWS = _table_rows(REFUSALS, "| Command | Exit | stderr starts with |")
EXAMPLES = _blocks(_section("Command line"), "sh")[0].splitlines()
# every `echo '<json>' > <file>` line in the README, tables' inputs included
INPUT_FILES = re.findall(r"^echo '(.*)' > (\S+)$", README, flags=re.M)


def _namespace():
    namespace = {"Fraction": Fraction}
    exec("from partition_ot import *", namespace)
    return namespace


def _run(argv, capsys):
    """(exit code, stdout, stderr) of one command, run in-process."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # the parser's refusals
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for text, name in INPUT_FILES:
        (tmp_path / name).write_text(text + "\n", encoding="utf-8")


def test_the_tables_and_blocks_are_found():
    assert len(LIBRARY_ROWS) >= 40 and len(COMMAND_ROWS) >= 15
    assert all(len(row) == 3 for row in LIBRARY_ROWS + COMMAND_ROWS)
    assert {name for _, name in INPUT_FILES} >= {"p.json", "q.json", "huge.json"}


def test_the_library_tour_runs_as_shown():
    tour = _blocks(_section("Library tour"), "python")[0]
    test = doctest.DocTestParser().get_doctest(tour, {}, "README tour", "README.md", 0)
    assert len(test.examples) >= 15
    assert doctest.DocTestRunner().run(test).failed == 0


@pytest.mark.parametrize(
    "call, error, fragment", LIBRARY_ROWS, ids=[row[0] for row in LIBRARY_ROWS]
)
def test_a_library_row_raises_what_the_readme_says(call, error, fragment):
    namespace = _namespace()
    with pytest.raises(Exception) as info:
        eval(call, namespace)
    assert type(info.value) is eval(error, namespace)
    assert fragment in str(info.value)
    # one line of at most 120 characters, as the section says
    assert len(str(info.value)) <= 120 and "\n" not in str(info.value)


@pytest.mark.parametrize(
    "command, code, stderr", COMMAND_ROWS, ids=[row[0] for row in COMMAND_ROWS]
)
def test_a_command_row_exits_as_the_readme_says(capsys, inputs, command, code, stderr):
    name, *argv = shlex.split(command)
    assert name == "partition-ot"
    got, out, err = _run(argv, capsys)
    assert (got, out) == (int(code), "")
    assert err.startswith(stderr)
    lines = err.splitlines()
    if stderr.startswith("error: "):  # the program's refusal: one line
        assert len(lines) == 1
    else:  # the parser's: its usage, then one error line
        assert stderr.startswith("usage: ")
        assert [": error: " in line for line in lines] == [False] * (len(lines) - 1) + [True]


def test_every_command_line_example_runs_as_shown(capsys, inputs):
    ran = 0
    for line in EXAMPLES:
        if not line.startswith("partition-ot "):
            continue
        command, _, shown = line.partition(" # ")
        _, *argv = shlex.split(command)
        code, out, err = _run(argv, capsys)
        exit_shown = re.fullmatch(r"exit (\d)(?:: (\d+) violations)?", shown.strip())
        if exit_shown:
            assert code == int(exit_shown[1]), line
            if exit_shown[2]:
                summary = json.loads(out.splitlines()[-1])
                assert summary["violations"] == int(exit_shown[2]), line
        else:
            assert code == 0, (line, err)
            if shown:
                assert out.strip() == shown.strip(), line
        ran += 1
    assert ran >= 12
