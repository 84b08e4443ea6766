"""The README's library example runs against the package as it is."""

import math
import re
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


def test_readme_library_block_runs_on_a_simulated_scene(tmp_path, monkeypatch):
    assert main(["simulate", "--out-dir", str(tmp_path / "scene"), "--seed", "3",
                 "--n-objects", "4", "--n-views", "3"]) == EXIT_OK
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(compile(library_block(), str(README), "exec"), scope)
    assert scope["kept"] and math.isfinite(scope["loss"])
    records = scope["records"]
    assert len(records) == len(scope["state"].camera_poses) * len(scope["kept"])
