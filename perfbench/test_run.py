"""Self-test of the benchmark harness on a tiny scene set.

Checks the output schema, metric names and units against BENCHMARK.json,
and that the correctness gate trips; never checks timings. Run from the
repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = run.Workload(
    "tiny", ("--n-objects", "3", "--n-views", "3"), ("--threads", "2"),
    n_scenes=2, n_traced=2,
)


@pytest.fixture(autouse=True)
def scratch_dirs(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK_DIR", tmp_path / "work")
    monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")


def _check_schema(result: dict, spec_key: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    expected = {m["name"]: m["unit"] for m in SPEC[spec_key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for value in result["metrics"].values():
        assert isinstance(value["value"], float)
    json.dumps(result)


def test_untraced_run_reports_every_end_to_end_metric():
    result = run.run(TINY, seed=3, seconds=0.0, trace=False)
    _check_schema(result, "end_to_end")
    assert result["correct"], result
    assert result["attempted"] == TINY.n_scenes


def test_traced_run_reports_every_per_layer_metric_and_unwraps():
    result = run.run(TINY, seed=3, seconds=0.0, trace=True)
    _check_schema(result, "per_layer")
    assert result["correct"], result
    for module_name, names in spans.TRACED.items():
        module = sys.modules[module_name]
        for name in names:
            assert not hasattr(getattr(module, name), "__wrapped__"), name


def test_gate_trips_on_tampered_estimate(monkeypatch):
    solve = run.solve_scene

    def tampering_solve(cli, scene, out, extra, gate):
        rc, dt = solve(cli, scene, out, extra, gate)
        if out.name.startswith("traced_") and scene.index == 1:
            with open(out, "ab") as f:
                f.write(b" ")
        return rc, dt

    monkeypatch.setattr(run, "solve_scene", tampering_solve)
    result = run.run(TINY, seed=3, seconds=0.0, trace=True)
    assert result["correct"] is False
    assert result["failed"] >= 1
    out = json.loads((run.OUT_DIR / "tiny-seed3-trace1.json").read_text())
    assert any(f.startswith("scene 1 ") for f in out["gate_failures"])


def test_missing_trace_point_stops_the_run(monkeypatch, capsys):
    import cosy.matching

    monkeypatch.delattr(cosy.matching, "two_view_ransac")
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)
    assert run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0",
                     "--trace", "1"]) == 2
    assert "cosy.matching.two_view_ransac" in capsys.readouterr().err


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sym-match", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
