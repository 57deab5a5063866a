"""The README documents the package's public surface, and its CLI block runs."""

import re
import shlex
from pathlib import Path

import hpda
from hpda import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_names_every_public_name():
    text = README.read_text()
    assert [name for name in hpda.__all__ if f"`{name}`" not in text] == []


def _cli_block():
    """(argv, its `# ->` lines) of each command in the README's CLI block."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = []
    for line in block.splitlines():
        if line.startswith("hpda "):
            commands.append((shlex.split(line)[1:], []))
        elif line.startswith("# -> ") or (line.startswith("#    ") and commands[-1][1]):
            commands[-1][1].append(line[5:])
    return commands


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _cli_block()
    assert len(commands) == 8 and sum(bool(expected) for _, expected in commands) == 4
    for argv, expected in commands:
        assert cli.main(argv) == 0, argv
        out = capsys.readouterr().out.splitlines()
        if expected and expected[-1].endswith(" ..."):  # more lines follow
            expected = [*expected[:-1], expected[-1][: -len(" ...")]]
            out = out[: len(expected)]
        if expected:
            assert out == expected, argv
