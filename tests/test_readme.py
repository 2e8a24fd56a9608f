"""The README's examples run and print what the README shows."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from efrac.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under 'Quick start'"
    return match.group(1)


def shell_blocks():
    """Each fenced block that starts with ``$ ef``: its argv and its lines."""
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```\n\$ ef (.*?)\n(.*?)```", text, re.DOTALL)
    return [(shlex.split(command), shown.splitlines()) for command, shown in blocks]


def test_quick_start_runs_and_prints_its_comments():
    code = quick_start_block()
    expected = [
        line.split("#", 1)[1].strip()
        for line in code.splitlines()
        if line.startswith("print(") and "#" in line
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


SHELL_BLOCKS = shell_blocks()


def test_every_shell_example_is_collected():
    text = README.read_text(encoding="utf-8")
    assert len(SHELL_BLOCKS) == text.count("\n$ ef ") == 10


@pytest.mark.parametrize(
    "argv, shown", SHELL_BLOCKS, ids=[" ".join(a) for a, _ in SHELL_BLOCKS]
)
def test_shell_example_prints_what_it_shows(capsys, argv, shown):
    # no example writes to both streams, so the block is stdout or stderr
    code = run(argv)
    out, err = capsys.readouterr()
    assert (out + err).splitlines() == shown
    assert code == (1 if err else 0)
