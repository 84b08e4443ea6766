"""cosy benchmark: seeded simulated scenes, solved and scored end to end.

Usage (from the repository root):

    python3 perfbench/run.py --workload sym-match --seed 1 --seconds 30 --trace 0

Every scene is generated by ``cosy simulate`` and solved and evaluated
in-process through ``cosy.cli.main``, the entry point of ``cosy solve`` and
``cosy eval``. With ``--trace 0`` the run times the untraced program and
prints the end-to-end metrics; with ``--trace 1`` it solves the first
scenes of the same set once untraced and once with the layer wrappers of
``spans.py`` installed, and prints the per-layer metrics. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. See README.md in this directory for the workloads and
what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from spans import MissingTracePoint, Tracer, scene_sums

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

# ROADMAP baseline noise, shared by every workload.
NOISE = (
    "--rot-sigma-deg", "5",
    "--trans-sigma", "0.01",
    "--outlier-prob", "0.2",
    "--miss-prob", "0.1",
)
SETUP_ROUNDS = 3
TAIL_BEYOND = 10  # scenes that must lie beyond the reported tail percentile


@dataclass(frozen=True)
class Workload:
    name: str
    simulate: tuple[str, ...]  # `cosy simulate` shape flags
    solve: tuple[str, ...]  # extra `cosy solve` flags
    n_scenes: int  # scenes per untraced run
    n_traced: int  # leading scenes of the same set in a traced run


# Why these two workloads and sizes: see README.md. Scene counts are set so
# that one run holds enough scenes for a steady median in about 50 s.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sym-match",
            ("--n-objects", "8", "--n-views", "4", "--n-labels", "8",
             "--symmetric-labels", "obj_00"),
            ("--threads", "2"),
            n_scenes=60,
            n_traced=28,
        ),
        Workload(
            "refine-heavy",
            ("--n-objects", "8", "--n-views", "5", "--n-points", "250"),
            ("--restarts", "6"),
            n_scenes=36,
            n_traced=16,
        ),
    )
}

END_TO_END_UNITS = {
    "solve_s_p50": "s",
    "solve_s_tail": "s",
    "scenes_per_min": "1/min",
    "eval_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "adds_auc": "ratio",
    "recall_0p1d": "ratio",
    "map_adds": "ratio",
}
PER_LAYER_UNITS = {
    "scene_io.load_s": "s",
    "scene_io.save_s": "s",
    "matching.match_s": "s",
    "matching.self_s": "s",
    "matching.view_pairs": "count",
    "matching.view_pairs_accepted": "count",
    "matching.view_pairs_sampled": "count",
    "matching.hypotheses": "count",
    "matching.hypothesis_s": "s",
    "matching.inlier_evals": "count",
    "matching.inlier_hit_ratio": "ratio",
    "symmetry.distance_calls": "count",
    "symmetry.distance_s": "s",
    "symmetry.points_transformed": "count",
    "symmetry.group_builds": "count",
    "refinement.refine_s": "s",
    "refinement.self_s": "s",
    "refinement.linearize_s": "s",
    "refinement.select_targets_s": "s",
    "refinement.frozen_loss_s": "s",
    "refinement.total_loss_s": "s",
    "refinement.lm_iterations": "count",
    "refinement.lm_trials": "count",
    "refinement.jacobian_mb_max": "MB",
    "evaluation.nms_s": "s",
    "evaluation.evaluate_s": "s",
    "cli.solve_traced_s": "s",
    "cli.trace_overhead": "ratio",
}


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no cosy sources, bad input)."""


def derive_seed(seed: int, workload: str, index: int, stream: str) -> int:
    digest = hashlib.blake2b(
        f"{workload}|{seed}|{index}|{stream}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") >> 33


@dataclass
class Scene:
    index: int
    sim_seed: int
    solve_seed: int
    dir: Path

    def solve_argv(self, out: Path, extra: tuple[str, ...]) -> list[str]:
        return [
            "solve",
            "--models", str(self.dir / "models.json"),
            "--observations", str(self.dir / "observations.json"),
            "--out", str(out),
            "--seed", str(self.solve_seed),
            *extra,
        ]

    def eval_argv(self, estimate: Path, out: Path) -> list[str]:
        return [
            "eval",
            "--models", str(self.dir / "models.json"),
            "--estimate", str(estimate),
            "--ground-truth", str(self.dir / "ground_truth.json"),
            "--out", str(out),
        ]


def import_cosy():
    """Import cosy from this checkout's sources, never from elsewhere."""
    if not (SRC / "cosy" / "__init__.py").is_file():
        raise SetupError(f"no cosy sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cosy.cli

    if Path(cosy.cli.__file__).resolve().parent != SRC / "cosy":
        raise SetupError(f"imported cosy from {cosy.cli.__file__}, not {SRC}")
    return cosy.cli


def _import_seconds() -> float:
    """Wall time of `import cosy.cli` in a fresh interpreter."""
    code = (
        "import sys, time\n"
        "t = time.perf_counter()\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import cosy.cli\n"
        "print(time.perf_counter() - t)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    if done.returncode != 0:
        raise SetupError(f"importing cosy failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


def run_cli(cli, argv: list[str]) -> int:
    """cosy.cli.main with its console output swallowed."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        return cli.main(argv)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def make_scenes(cli, wl: Workload, seed: int, n: int, work: Path) -> list[Scene]:
    scenes = []
    for i in range(n):
        scene = Scene(
            index=i,
            sim_seed=derive_seed(seed, wl.name, i, "simulate"),
            solve_seed=derive_seed(seed, wl.name, i, "solve"),
            dir=work / f"scene_{i:03d}",
        )
        argv = ["simulate", "--out-dir", str(scene.dir), "--seed", str(scene.sim_seed)]
        rc = run_cli(cli, argv + list(wl.simulate) + list(NOISE))
        if rc != 0:
            raise SetupError(f"cosy simulate exited {rc} for scene {i}")
        scenes.append(scene)
    return scenes


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND values above it.

    Returns (percentile, value); with too few values, the minimum.
    """
    ordered = sorted(values)
    k = max(len(ordered) - TAIL_BEYOND, 1)  # 1-based rank of the reported value
    return 100.0 * k / len(ordered), ordered[k - 1]


class Gate:
    """Correctness gate: collects named failures per scene."""

    def __init__(self):
        self.failures: list[str] = []
        self.failed_scenes: set[int] = set()

    def fail(self, scene: Scene, message: str) -> None:
        self.failures.append(f"scene {scene.index} (seed {scene.sim_seed}): {message}")
        self.failed_scenes.add(scene.index)


def timed_cli(cli, scene: Scene, argv: list[str], allowed: tuple[int, ...], gate: Gate):
    """Run one cosy command; return (exit code or None if it raised, seconds).

    An exit code outside `allowed`, or an exception, fails the scene.
    """
    t = perf_counter()
    try:
        rc = run_cli(cli, argv)
    except Exception as exc:  # a traceback is a failed scene, not a dead run
        gate.fail(scene, f"cosy {argv[0]} raised {type(exc).__name__}: {exc}")
        return None, perf_counter() - t
    dt = perf_counter() - t
    if rc not in allowed:
        gate.fail(scene, f"cosy {argv[0]} exited {rc}")
    return rc, dt


def solve_scene(cli, scene: Scene, out: Path, extra: tuple[str, ...], gate: Gate):
    return timed_cli(cli, scene, scene.solve_argv(out, extra), (0, 3), gate)


def check_thread_independence(cli, wl, scene, expected_hash, work, gate) -> None:
    """A solve with --threads 1 must write the same bytes as the workload's."""
    if "--threads" not in wl.solve or wl.solve[wl.solve.index("--threads") + 1] == "1":
        return
    extra = list(wl.solve)
    extra[extra.index("--threads") + 1] = "1"
    out = work / "threads1.json"
    rc, _ = solve_scene(cli, scene, out, tuple(extra), gate)
    if rc is not None and sha256(out) != expected_hash:
        gate.fail(scene, "estimate differs between --threads 1 and the workload's threads")


def untraced_run(cli, wl, scenes, seconds, work, gate) -> tuple[dict, list[dict]]:
    records = [
        {"scene": s.index, "seed": s.sim_seed, "exit": None, "sha256": None,
         "solve_s": [], "eval_s": [], "adds_auc": 0.0, "recall_0p1d": 0.0,
         "map_adds": 0.0}
        for s in scenes
    ]
    # Solve every scene once, then keep cycling until `seconds` have passed.
    n = len(scenes)
    start = perf_counter()
    k = 0
    while k < n or perf_counter() - start < seconds:
        scene, rec = scenes[k % n], records[k % n]
        first_pass = k < n
        k += 1
        est = work / f"estimate_{scene.index:03d}.json"
        rc, dt = solve_scene(cli, scene, est, wl.solve, gate)
        rec["solve_s"].append(dt)
        if rc is None:
            continue
        digest = sha256(est)
        if first_pass:
            rec["exit"], rec["sha256"] = rc, digest
        elif digest != rec["sha256"]:
            gate.fail(scene, "estimate changed between two solves of one scene")
        if rc != 0:
            continue
        ev = work / f"eval_{scene.index:03d}.json"
        erc, dt = timed_cli(cli, scene, scene.eval_argv(est, ev), (0,), gate)
        rec["eval_s"].append(dt)
        if erc == 0 and first_pass:
            agg = json.loads(ev.read_text())["aggregate"]
            rec["adds_auc"] = agg["auc_adds"]
            rec["recall_0p1d"] = agg["recall_0p1d"]
            rec["map_adds"] = agg["map_adds"]

    if records[0]["sha256"] is not None:
        check_thread_independence(cli, wl, scenes[0], records[0]["sha256"], work, gate)

    n_ok = 0
    for r in records:
        if r["exit"] == 0 and r["scene"] not in gate.failed_scenes:
            n_ok += 1
        else:  # a failed scene scores zero
            r["adds_auc"] = r["recall_0p1d"] = r["map_adds"] = 0.0
    solve_times = [statistics.median(r["solve_s"]) for r in records]
    eval_times = [statistics.median(r["eval_s"]) for r in records if r["eval_s"]]
    pct, tail = tail_percentile(solve_times)
    metrics = {
        "solve_s_p50": statistics.median(solve_times),
        "solve_s_tail": tail,
        "scenes_per_min": 60.0 * n / sum(solve_times),
        "eval_s_p50": statistics.median(eval_times) if eval_times else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": n_ok / n,
        "adds_auc": sum(r["adds_auc"] for r in records) / n,
        "recall_0p1d": sum(r["recall_0p1d"] for r in records) / n,
        "map_adds": sum(r["map_adds"] for r in records) / n,
    }
    print(
        f"solve time over {n} scenes ({sum(len(r['solve_s']) for r in records)} solves): "
        f"p50 {metrics['solve_s_p50']:.4f} s, tail p{pct:.1f} {tail:.4f} s "
        f"({TAIL_BEYOND} scenes beyond it)"
    )
    return metrics, records


def traced_run(cli, wl, scenes, work, gate) -> tuple[dict, list[dict]]:
    # No workload sets --inlier-threshold, so solves use the default.
    threshold = sys.modules["cosy.matching"].DEFAULT_INLIER_THRESHOLD
    tracer = Tracer()
    totals: dict[str, float] = {}
    records = []
    untraced_total = 0.0
    jacobian_max = 0.0
    for scene in scenes:
        plain = work / f"plain_{scene.index:03d}.json"
        traced = work / f"traced_{scene.index:03d}.json"
        rc_plain, dt = solve_scene(cli, scene, plain, wl.solve, gate)
        untraced_total += dt
        with tracer.installed():
            with tracer.span("solve"):
                rc, _ = solve_scene(cli, scene, traced, wl.solve, gate)
            if rc == 0:
                with tracer.span("eval"):
                    timed_cli(cli, scene, scene.eval_argv(traced, work / "eval.json"),
                              (0,), gate)
        sums = scene_sums(tracer.take(), threshold)
        jacobian_max = max(jacobian_max, sums.pop("refinement.jacobian_mb_max"))
        for key, value in sums.items():
            totals[key] = totals.get(key, 0.0) + value
        rec = {"scene": scene.index, "seed": scene.sim_seed, "exit": rc, "sha256": None,
               "untraced_s": dt, "layers": sums}
        if rc is not None and rc_plain is not None:
            rec["sha256"] = sha256(traced)
            if rc != rc_plain or sha256(plain) != rec["sha256"]:
                gate.fail(scene, "traced and untraced solves wrote different estimates")
        records.append(rec)

    n = len(scenes)
    metrics = {
        name: totals[name] / n
        for name in PER_LAYER_UNITS
        if name in totals
    }
    evals = totals["matching.inlier_evals"]
    metrics["matching.inlier_hit_ratio"] = totals["matching.inlier_hits"] / evals if evals else 0.0
    metrics["refinement.jacobian_mb_max"] = jacobian_max
    metrics["cli.solve_traced_s"] = totals["solve_s"] / n
    metrics["cli.trace_overhead"] = totals["solve_s"] / untraced_total
    solve = totals["solve_s"]
    shares = {
        "load": totals["scene_io.load_s"],
        "match": totals["matching.match_s"],
        "refine": totals["refinement.refine_s"],
        "final_loss": totals["refinement.total_loss_s"],
        "output": totals["output_s"],
    }
    print("traced solve time shares: " + ", ".join(
        f"{k} {100.0 * v / solve:.1f}%" for k, v in shares.items()))
    return {k: metrics[k] for k in PER_LAYER_UNITS}, records


def run(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object printed last."""
    cli = import_cosy()
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-{seed}-", dir=WORK_DIR))
    try:
        gate = Gate()
        if trace:
            scenes = make_scenes(cli, wl, seed, wl.n_traced, work)
            metrics, records = traced_run(cli, wl, scenes, work, gate)
            units = PER_LAYER_UNITS
        else:
            # setup_s: a fresh interpreter's import (median of several) plus
            # generating and writing every scene, before the first timed solve.
            imports = [_import_seconds() for _ in range(SETUP_ROUNDS)]
            t = perf_counter()
            scenes = make_scenes(cli, wl, seed, wl.n_scenes, work)
            setup_s = statistics.median(imports) + perf_counter() - t
            metrics, records = untraced_run(cli, wl, scenes, seconds, work, gate)
            metrics["setup_s"] = setup_s
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{wl.name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(
        {"workload": wl.name, "seed": seed, "scenes": records,
         "gate_failures": gate.failures}, indent=1, sort_keys=True) + "\n")
    for r in records:
        print(f"scene {r['scene']:3d} seed {r['seed']:>10} exit {r['exit']} "
              f"sha256 {r['sha256']}")
    for failure in gate.failures:
        print(f"GATE FAILURE: {failure}")
    print(f"wrote {out}")
    failed = {r["scene"] for r in records if r["exit"] != 0} | gate.failed_scenes
    return {
        "correct": not gate.failures,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except (SetupError, MissingTracePoint) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
