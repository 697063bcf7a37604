import doctest
import re
import shlex
from pathlib import Path

from koverbs import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_session_runs_as_shown():
    failed, attempted = doctest.testfile(str(README), module_relative=False, encoding="utf-8")
    assert attempted and not failed


def test_readme_command_line_examples_print_as_shown(capsys, monkeypatch):
    # Each `$ koverbs ...` example of the "Command line" section runs on the
    # shipped data through cli.main, and `| head -N` keeps the first N lines.
    # What it shows runs to the next blank line or the closing fence.
    monkeypatch.delenv(cli.DATA_ENV, raising=False)
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1].split("\n## ")[0]
    examples = re.findall(r"^\$ (koverbs .*)\n((?:(?!```).+\n)*)", section, re.MULTILINE)
    assert len(examples) == 5
    for command, shown in examples:
        command, _, head = command.partition(" | head -")
        assert cli.main(shlex.split(command)[1:]) == 0, command
        lines = capsys.readouterr().out.splitlines(keepends=True)
        assert "".join(lines[:int(head)] if head else lines) == shown, command
