"""README's examples run as written."""

import re
import shlex
from pathlib import Path

from orbifold.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def code_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    # The python block runs as a script; each orbifold command line runs
    # through cli.main from tmp_path, where a "> FILE" redirect writes stdout.
    [block] = code_blocks("python")
    exec(compile(block, "README.md", "exec"), {})
    monkeypatch.chdir(tmp_path)
    lines = [line for block in code_blocks("sh") for line in block.splitlines()
             if line.startswith("orbifold ")]
    assert len(lines) == 8
    for line in lines:
        command, _, target = line.partition(" > ")
        assert main(shlex.split(command)[1:]) == 0, line
        out = capsys.readouterr().out
        if target:
            Path(target).write_text(out)
