"""The README's Quick start commands do what the README says."""

import pathlib
import re
import shlex

from gltlab.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def quick_start_commands():
    """Each command of the first shell block under "## Quick start", without
    its leading ``gltlab``, with line continuations joined."""
    section = README.read_text().split("## Quick start", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.strip() and not line.lstrip().startswith("#")]
    commands = [shlex.split(line) for line in lines]
    assert all(argv[0] == "gltlab" for argv in commands)
    return [argv[1:] for argv in commands]


def test_quick_start_commands_exit_as_documented(tmp_path, monkeypatch, capsys):
    commands = quick_start_commands()
    assert [argv[0] for argv in commands] == [
        "parse", "spectrum", "check-dist", "check-zero", "check-acs", "check-sacs", "check-glt5",
    ]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        # the documented correct FAIL: the skew part of T(exp(i*t)) is not small
        expected = 1 if argv[:3] == ["check-glt5", "--expr", "T(exp(i*t1))"] else 0
        assert main(argv) == expected, (argv, capsys.readouterr().err)
