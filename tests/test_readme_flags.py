"""README's per-command flag lists are the parser's.

The CLI quick start in ``README.md`` lists, for each command, the flags it
takes, one ``- `command`: `--flag ...`, ...`` item per command.  These tests
read that list and ``cli.COMMANDS`` and fail when they disagree, so the docs
cannot drift from the parser.
"""

import re
from pathlib import Path

import pytest

from causalplan import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _documented() -> dict[str, list[str]]:
    """Each command's flags as the README lists them, in order."""
    text = README.read_text()
    items = re.findall(r"^- `(\w+)`: (.*?)(?=^\S|^- |\Z)", text, re.M | re.S)
    return {command: re.findall(r"`(--[a-z-]+)", body) for command, body in items
            if command in cli.COMMANDS}


DOCUMENTED = _documented()


def test_readme_lists_every_command():
    assert sorted(DOCUMENTED) == sorted(cli.COMMANDS)


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_readme_flags_are_the_commands_flags(command):
    _, _, dests = cli.COMMANDS[command]
    assert DOCUMENTED.get(command) == [cli.FLAGS[dest][0] for dest in dests]
