"""The README's library example and command-line walkthrough run against
the package as it is."""

import math
import re
import shlex
from pathlib import Path

from cosy.cli import EXIT_OK, main

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    """The first python block after the README's `## Library` heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README's ## Library section has no python block"
    return match.group(1)


def command_lines() -> list[str]:
    """The commands of the `sh` blocks under `## Command line`, in order,
    with backslash-continued lines joined."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```sh\n(.*?)```", section, re.DOTALL)
    assert blocks, "README's ## Command line section has no sh block"
    return [
        line for block in blocks
        for line in block.replace("\\\n", " ").splitlines() if line.strip()
    ]


def test_readme_command_line_walkthrough_runs_in_order(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for line in command_lines():
        argv = shlex.split(line)
        assert argv[0] == "cosy", line
        assert main(argv[1:]) == EXIT_OK, line


def test_readme_library_block_runs_on_a_simulated_scene(tmp_path, monkeypatch):
    assert main(["simulate", "--out-dir", str(tmp_path / "scene"), "--seed", "3",
                 "--n-objects", "4", "--n-views", "3"]) == EXIT_OK
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(compile(library_block(), str(README), "exec"), scope)
    assert scope["kept"] and math.isfinite(scope["loss"])
    records = scope["records"]
    assert len(records) == len(scope["state"].camera_poses) * len(scope["kept"])
