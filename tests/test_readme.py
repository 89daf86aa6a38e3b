"""The README's examples run as written and print what the README shows.

The Python tour is executed and each comment block right after a ``print``
is its expected output.  Every ``$ pcplab ...`` command in the CLI section
(continuation lines joined) is split as a POSIX shell would split it, so an
unquoted ``;`` or parenthesis fails, and run through ``pcplab.cli.main``; its
output must match the lines that follow it up to the next blank line, with
``elapsed=<n>ms`` masked.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from pcplab.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


def _mask(text):
    return re.sub(r"elapsed=\d+ms", "elapsed=<n>ms", text)


def _commands():
    """(command, expected output) for every ``$ pcplab`` line of the CLI blocks."""
    out = []
    for block in _blocks("text"):
        lines = block.splitlines()
        i = 0
        while i < len(lines):
            if not lines[i].startswith("$ pcplab "):
                i += 1
                continue
            command = lines[i][2:]
            while command.endswith("\\"):
                i += 1
                command = command[:-1].rstrip() + " " + lines[i].strip()
            expected = []
            i += 1
            while i < len(lines) and lines[i] and not lines[i].startswith("$ "):
                expected.append(lines[i])
                i += 1
            out.append((command, "".join(ln + "\n" for ln in expected)))
    return out


COMMANDS = _commands()


def test_readme_has_examples():
    assert len(_blocks("python")) == 1
    assert len(COMMANDS) == 5


def test_python_tour():
    (source,) = _blocks("python")
    expected, printed = [], False
    for line in source.splitlines():
        printed = line.startswith("print(") or (printed and line.startswith("# "))
        if printed and line.startswith("# "):
            expected.append(line[2:] + "\n")
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        exec(compile(source, "README.md", "exec"), {})
    assert expected and buffer.getvalue() == "".join(expected)


@pytest.mark.parametrize("command, expected", COMMANDS, ids=[c for c, _ in COMMANDS])
def test_cli_example(capsys, command, expected):
    lexer = shlex.shlex(command, posix=True, punctuation_chars=True)
    lexer.whitespace_split = True
    argv = list(lexer)
    punctuation = [tok for tok in argv if tok and set(tok) <= set(lexer.punctuation_chars)]
    assert not punctuation, f"unquoted shell punctuation {punctuation} in {command!r}"
    assert argv[0] == "pcplab"
    assert main(argv[1:]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert _mask(captured.out) == _mask(expected)
