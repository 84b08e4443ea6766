"""The package imports only what pyproject.toml declares."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# pyproject.toml's [project] dependencies, plus the package itself.
DECLARED = {"cosy", "numpy"}

PROBE = """
import json, sys
before = set(sys.modules)
import cosy.cli, cosy.simulation, cosy.singleview
print(json.dumps(sorted({m.split(".")[0] for m in set(sys.modules) - before})))
"""


def test_imports_load_only_declared_and_stdlib_modules():
    # A stray import of an undeclared package (scipy, say) would pass every
    # other test wherever that package happens to be installed.
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run([sys.executable, "-c", PROBE], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    loaded = set(json.loads(run.stdout))
    assert DECLARED <= loaded
    assert loaded - DECLARED - set(sys.stdlib_module_names) == set()
