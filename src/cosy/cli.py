"""Command-line pipeline: simulate a scene, solve it, evaluate the result.

Subcommands
    simulate  write models / observations / ground-truth files for a synthetic scene
    solve     observations -> matching -> refinement -> estimate file
    eval      score an estimate against ground truth, optional before/after table
    report    render an eval output file as readable text

All randomness flows from --seed: subsystem generators are seeded by
stable hashes of it, so reruns are byte-identical. Timing is printed to
stdout and kept out of output files for the same reason. The solve runs
its view pairs in one thread, because that work is GIL-bound; --threads
is accepted for compatibility and changes nothing.

Each command reads the parsed arguments directly. The `config` block that
solve and eval write echoes every flag except file paths and --threads.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from dataclasses import fields

import numpy as np

from .evaluation import (
    DEFAULT_AUC_MAX,
    DEFAULT_DIAMETER_FRACTION,
    DEFAULT_NMS_RADIUS,
    PairErrors,
    PosePrediction,
    evaluate,
    nms_3d,
)
from .matching import (
    MatchParams,
    PhysicalObject,
    build_match_graph,
    extract_physical_objects,
    label_geometry,
)
from .refinement import (
    _DAMPING_CEILING,
    RefineConfig,
    SceneState,
    express_in_camera_frames,
    refine_best_of,
)
# perfbench/spans.py traces cosy.cli.total_loss by this name.
from .refinement import total_loss  # noqa: F401
from .scene_io import (
    EstimatedCamera,
    EstimatedObject,
    InvariantError,
    ParseError,
    SceneEstimate,
    SceneObservations,
    SchemaError,
    UnknownLabelError,
    UnknownViewError,
    dump_json,
    is_json_number,
    json_integer,
    load_estimate,
    load_ground_truth,
    load_json,
    load_models,
    load_observations,
    save_estimate,
    save_ground_truth,
    save_models,
    save_observations,
)
from .simulation import (
    NoiseModel,
    ScenarioConfig,
    generate_observations,
    generate_scene,
    make_models,
)
from .symmetry import DEFAULT_ANGLES_PER_AXIS, GroupTooLargeError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_SCENE = 3

_CONFIG_ERRORS = (
    ValueError,
    KeyError,
    OSError,
    ParseError,
    SchemaError,
    InvariantError,
    UnknownLabelError,
)


def derive_seed(seed: int, stream: str) -> int:
    """Stable 63-bit child seed for a named subsystem."""
    digest = hashlib.blake2b(f"{seed}:{stream}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


# Dests left out of the written `config`: file paths say where a run reads
# and writes, not how it computes, and --threads is accepted for
# compatibility only (the solve runs in one thread), so neither belongs in
# byte-compared output files.
_NOT_ECHOED = frozenset(
    {"models", "observations", "out", "init_out", "estimate", "ground_truth",
     "before", "threads"}
)


def _config(args: argparse.Namespace) -> dict:
    """The flag echo written into an output file for provenance."""
    return {k: v for k, v in vars(args).items() if k not in _NOT_ECHOED}


def _check_flags(args: argparse.Namespace, rules) -> None:
    """Raise a ValueError naming the first flag that breaks its rule; solve
    and eval call it before they read any file."""
    for flag, ok, rule in rules:
        value = getattr(args, flag[2:].replace("-", "_"))
        if not ok(value):
            raise ValueError(f"{flag} must {rule}, got {value}")


# (flag, predicate, rule) rows. A non-finite value would reach the config
# block as the non-JSON token Infinity; a damping ladder that starts above
# its ceiling never runs, and one whose factor is <= 1 never ends.
_POSITIVE = (lambda v: np.isfinite(v) and v > 0), "be finite and > 0"
_COUNT = (lambda v: v >= 1), "be >= 1"
_SOLVE_FLAG_RULES = (
    ("--min-score", np.isfinite, "be finite"),
    ("--inlier-threshold", *_POSITIVE),
    ("--ransac-max-iters", *_COUNT),
    ("--min-inliers", lambda v: v >= 3, "be >= 3"),
    ("--lm-iters", *_COUNT),
    ("--truncation-px", *_POSITIVE),
    ("--damping-init", lambda v: 0 < v <= _DAMPING_CEILING,
     f"be > 0 and <= {_DAMPING_CEILING:g}"),
    ("--damping-factor", lambda v: np.isfinite(v) and v > 1, "be finite and > 1"),
    ("--rel-tol", *_POSITIVE),
    ("--symmetry-angles", *_COUNT),
    ("--nms-radius", *_POSITIVE),
    ("--restarts", *_COUNT),
    ("--threads", *_COUNT),
)

# ----------------------------------------------------------------- simulate


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.n_objects < 1:
        raise ValueError(f"--n-objects must be >= 1, got {args.n_objects}")
    n_labels = args.n_labels if args.n_labels is not None else args.n_objects
    if n_labels < 1:
        raise ValueError(f"--n-labels must be >= 1, got {n_labels}")
    labels = tuple(f"obj_{i:02d}" for i in range(n_labels))
    symmetric = tuple(s for s in args.symmetric_labels.split(",") if s)
    for s in symmetric:
        if s not in labels:
            raise ValueError(f"symmetric label {s!r} not among {labels}")
    # A one-point model has diameter 0; a symmetric label's model is an
    # orbit of at least 16 points whatever --n-points is.
    if args.n_points == 1 and set(labels) - set(symmetric):
        raise ValueError("--n-points must be >= 2 for labels without symmetry, got 1")
    scenario = ScenarioConfig(
        n_objects=args.n_objects,
        n_views=args.n_views,
        model_labels=labels,
        box_size=args.box_size,
        camera_distance_range=tuple(args.camera_distance),
        seed=derive_seed(args.seed, "scene"),
    )
    noise = NoiseModel(
        rot_sigma_deg=args.rot_sigma_deg,
        trans_sigma=args.trans_sigma,
        depth_sigma_extra=args.depth_sigma_extra,
        miss_prob=args.miss_prob,
        outlier_prob=args.outlier_prob,
        label_confusion_prob=args.label_confusion_prob,
    )

    rng_obs = np.random.default_rng(derive_seed(args.seed, "observations"))
    db = make_models(
        labels,
        seed=derive_seed(args.seed, "models"),
        n_points=args.n_points,
        symmetric=symmetric,
        radius_range=tuple(args.radius_range),
    )
    scene = generate_scene(scenario, db)
    obs, provenance = generate_observations(scene, noise, rng_obs)

    out = args.out_dir
    os.makedirs(out, exist_ok=True)
    save_models(db, f"{out}/models.json")
    save_observations(obs, f"{out}/observations.json")
    save_ground_truth(scene, provenance, f"{out}/ground_truth.json")

    n_outliers = sum(1 for p in provenance if p < 0)
    print(
        f"scene: {scenario.n_views} views, {scenario.n_objects} objects, "
        f"{len(obs.candidates)} candidates ({n_outliers} outliers)"
    )
    print(f"wrote {out}/models.json, {out}/observations.json, {out}/ground_truth.json")
    return EXIT_OK


# -------------------------------------------------------------------- solve


def _object_records(
    state: SceneState,
    objects: list[PhysicalObject],
    obs: SceneObservations,
    keep_idx: list[int],
) -> list[EstimatedObject]:
    """One record per physical object at its `state` pose; members name the
    candidates' indices in the unfiltered observations file."""
    return [
        EstimatedObject(
            object_id=f"P{o.id:03d}",
            label=o.label,
            pose_world=state.object_poses[o.id],
            score=sum(obs.candidates[i].score for _, i in o.members),
            members=tuple((v, keep_idx[i]) for v, i in o.members),
        )
        for o in objects
    ]


def _estimate(
    state: SceneState, records: list[EstimatedObject], config: dict, stats: dict
) -> SceneEstimate:
    """Every camera of `state` and the object `records`."""
    return SceneEstimate(
        cameras=tuple(
            EstimatedCamera(view_id=v, pose_world=state.camera_poses[v])
            for v in sorted(state.camera_poses)
        ),
        objects=tuple(records),
        config=config,
        stats=stats,
    )


def cmd_solve(args: argparse.Namespace) -> int:
    _check_flags(args, _SOLVE_FLAG_RULES)
    match = MatchParams(
        inlier_threshold=args.inlier_threshold,
        max_iterations=args.ransac_max_iters,
        min_inliers=args.min_inliers,
        seed=derive_seed(args.seed, "match"),
    )
    refine_cfg = RefineConfig(
        max_iterations=args.lm_iters,
        truncation=args.truncation_px,
        damping_init=args.damping_init,
        damping_factor=args.damping_factor,
        rel_tol=args.rel_tol,
        seed=derive_seed(args.seed, "refine"),
    )
    config = _config(args)

    t0 = time.perf_counter()
    db = load_models(args.models)
    raw = load_observations(args.observations, db)
    keep_idx = [i for i, c in enumerate(raw.candidates) if c.score > args.min_score]
    obs = SceneObservations(
        views=raw.views, candidates=tuple(raw.candidates[i] for i in keep_idx)
    )
    for label in sorted({c.label for c in obs.candidates}):
        db[label].require_matchable()
    t_load = time.perf_counter() - t0
    print(
        f"load: {len(raw.candidates)} candidates, {len(obs.candidates)} above "
        f"score {args.min_score} ({t_load:.3f}s)"
    )

    stats = {
        "n_candidates_raw": len(raw.candidates),
        "n_candidates": len(obs.candidates),
        "n_edges": 0,
        "n_components": 0,
        "n_inlier_members": 0,
        "n_objects": 0,
        "final_loss": None,
    }

    t0 = time.perf_counter()
    try:
        geometry = label_geometry(
            db, (c.label for c in obs.candidates), args.symmetry_angles
        )
    except GroupTooLargeError as exc:
        raise GroupTooLargeError(
            f"--symmetry-angles {args.symmetry_angles}: {exc}"
        ) from None
    graph = build_match_graph(obs, geometry, match)
    objects = extract_physical_objects(graph)
    t_match = time.perf_counter() - t0
    stats["n_edges"] = len(graph.edges)
    stats["n_components"] = len(objects)
    print(f"match: {len(graph.edges)} edges, {len(objects)} components ({t_match:.3f}s)")
    if not objects:
        save_estimate(SceneEstimate((), (), config, stats), args.out)
        print("no physical objects recovered; wrote diagnostic estimate")
        return EXIT_NO_SCENE

    t0 = time.perf_counter()
    state, kept, init_state, final_loss = refine_best_of(
        objects, graph.hypotheses, obs, geometry, refine_cfg, n_starts=args.restarts
    )
    t_refine = time.perf_counter() - t0
    stats["n_components"] = len(kept)
    stats["n_inlier_members"] = sum(len(o.members) for o in kept)
    if not kept:
        save_estimate(SceneEstimate((), (), config, stats), args.out)
        print("all components lost to disconnected views; wrote diagnostic estimate")
        return EXIT_NO_SCENE
    # Placement reaches every view connected to the root, member or not,
    # so the member views left without a camera are exactly the pruned ones.
    member_views = {v for o in objects for v, _ in o.members}
    dropped = sorted(member_views - set(state.camera_poses))
    if dropped:
        print(
            "refine: dropped candidates in views unreachable from the root "
            f"camera: {', '.join(dropped)}"
        )
    stats["final_loss"] = final_loss
    print(
        f"refine: {len(kept)} objects over {len(state.camera_poses)} cameras, "
        f"loss {final_loss:.6f} ({t_refine:.3f}s)"
    )

    # 3D non-max suppression on refined world poses, then per-view records.
    t0 = time.perf_counter()
    records = _object_records(state, kept, obs, keep_idx)
    surviving = nms_3d(records, radius=args.nms_radius)
    surviving_ids = {r.object_id for r in surviving}
    final_objects = [o for o, r in zip(kept, records) if r.object_id in surviving_ids]
    expressed = express_in_camera_frames(state, final_objects, obs)
    t_out = time.perf_counter() - t0
    stats["n_objects"] = len(surviving)
    stats["n_view_object_records"] = len(expressed)
    print(
        f"output: {len(surviving)} objects after nms, "
        f"{len(expressed)} view-object records ({t_out:.3f}s)"
    )

    save_estimate(_estimate(state, surviving, config, stats), args.out)
    print(f"wrote {args.out}")

    if args.init_out:
        init_records = _object_records(init_state, final_objects, obs, keep_idx)
        init_est = _estimate(
            init_state, init_records, config, {"stage": "initialization"}
        )
        save_estimate(init_est, args.init_out)
        print(f"wrote {args.init_out}")
    return EXIT_OK


# --------------------------------------------------------------------- eval


def _per_view_records(cameras, objects) -> list[PosePrediction]:
    """Every object in every camera's frame, cameras in the given order.

    `cameras` holds (view_id, camera-to-world pose) pairs and `objects`
    (label, score, object-to-world pose) triples.
    """
    records = []
    for view_id, camera_pose in cameras:
        inv = camera_pose.inverse()
        records += [
            PosePrediction(view_id, label, score, inv.compose(pose))
            for label, score, pose in objects
        ]
    return records


def _estimate_records(est: SceneEstimate) -> list[PosePrediction]:
    return _per_view_records(
        [(c.view_id, c.pose_world) for c in est.cameras],
        [(o.label, o.score, o.pose_world) for o in est.objects],
    )


def _metrics_doc(metrics) -> dict:
    """A MetricReport's or LabelMetrics' values by field name; `per_label`
    and `label` are the document's structure, not metrics."""
    return {
        f.name: getattr(metrics, f.name)
        for f in fields(metrics)
        if f.name not in ("per_label", "label")
    }


def _load_estimate(path, db, view_ids) -> SceneEstimate:
    """load_estimate, with each object's label checked against the models
    and each camera's view against the ground truth's `view_ids`."""
    est = load_estimate(path)
    for i, obj in enumerate(est.objects):
        if obj.label not in db:
            raise UnknownLabelError(
                f"{path}: objects[{i}].label: unknown label {obj.label!r}"
            )
    for i, cam in enumerate(est.cameras):
        if cam.view_id not in view_ids:
            raise UnknownViewError(
                f"{path}: cameras[{i}].view_id: unknown view_id {cam.view_id!r}, "
                "not in the ground truth"
            )
    return est


def cmd_eval(args: argparse.Namespace) -> int:
    # 0 or nan would score every pair a miss, and a negative gate would be
    # written into the comparison.
    flags = ("--diameter-fraction", "--compare-fraction", "--auc-max")
    _check_flags(args, [(flag, *_POSITIVE) for flag in flags])
    db = load_models(args.models)
    scene, _provenance = load_ground_truth(args.ground_truth, db)
    view_ids = {v.view_id for v in scene.views}
    est = _load_estimate(args.estimate, db, view_ids)
    before_est = _load_estimate(args.before, db, view_ids) if args.before else None

    gts = _per_view_records(
        [(v.view_id, p) for v, p in zip(scene.views, scene.camera_poses)],
        [(label, 1.0, p) for label, p in zip(scene.object_labels, scene.object_poses)],
    )
    preds = _estimate_records(est)
    # The comparison report scores the same pairs at another fraction.
    errors = PairErrors(preds, gts, db)
    report = evaluate(
        preds, gts, db, fraction=args.diameter_fraction, auc_max=args.auc_max,
        errors=errors,
    )

    doc = {
        "aggregate": _metrics_doc(report),
        "per_label": {
            label: _metrics_doc(m) for label, m in sorted(report.per_label.items())
        },
        "config": _config(args),
    }

    if before_est is not None:
        # Stage comparison gates at a generous fraction of the diameter so
        # pre-refinement states (which rarely clear the strict recall gate)
        # still produce a number; wildly wrong poses count as misses.
        before_report = evaluate(
            _estimate_records(before_est),
            gts,
            db,
            fraction=args.compare_fraction,
            auc_max=args.auc_max,
        )
        after_report = evaluate(
            preds, gts, db, fraction=args.compare_fraction, auc_max=args.auc_max,
            errors=errors,
        )
        before_mm = None if before_report.adds is None else before_report.adds * 1000.0
        after_mm = None if after_report.adds is None else after_report.adds * 1000.0
        reduction = None
        if before_mm and after_mm is not None:
            reduction = 100.0 * (1.0 - after_mm / before_mm)
        doc["comparison"] = {
            "before_adds_mm": before_mm,
            "after_adds_mm": after_mm,
            "before_matched": before_report.n_matched,
            "after_matched": after_report.n_matched,
            "gate_fraction": args.compare_fraction,
            "reduction_percent": reduction,
        }

    dump_json(doc, args.out)
    adds_mm = "n/a" if report.adds is None else f"{report.adds * 1000.0:.2f} mm"
    print(
        f"eval: ADD-S {adds_mm}, AUC {report.auc_adds:.4f}, "
        f"recall@0.1d {report.recall_0p1d:.4f}, mAP {report.map_adds:.4f}"
    )
    print(f"wrote {args.out}")
    return EXIT_OK


# ------------------------------------------------------------------- report


def _report_object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{where}: must be an object, got {type(value).__name__}")
    return value


def _report_metric(obj: dict, key: str, where: str, spec: str = ".4f") -> str:
    """obj[key] formatted with `spec`; "n/a" when it is null or absent."""
    value = obj.get(key)
    if value is None:
        return "n/a"
    if not is_json_number(value):
        raise SchemaError(f"{where}.{key}: must be a number or null, got {value!r:.40}")
    return format(value, spec)


def _report_count(obj: dict, key: str, where: str) -> int:
    return json_integer(obj.get(key), f"{where}.{key}")


def cmd_report(args: argparse.Namespace) -> int:
    doc = load_json(args.input)
    for key in ("aggregate", "per_label"):
        if key not in doc:
            raise SchemaError(f"{args.input}: missing '{key}'")
    where = f"{args.input}: aggregate"
    agg = _report_object(doc["aggregate"], where)
    lines = [
        "aggregate metrics",
        f"  ADD     : {_report_metric(agg, 'add', where)}",
        f"  ADD-S   : {_report_metric(agg, 'adds', where)}",
        f"  AUC     : {_report_metric(agg, 'auc_adds', where)}",
        f"  recall  : {_report_metric(agg, 'recall_0p1d', where)}",
        f"  mAP     : {_report_metric(agg, 'map_adds', where)}",
        f"  matched : {_report_count(agg, 'n_matched', where)}/"
        f"{_report_count(agg, 'n_gt', where)} "
        f"({_report_count(agg, 'n_predictions', where)} predictions)",
        "",
        f"{'label':<12} {'ADD-S':>10} {'AUC':>8} {'recall':>8} {'AP':>8} {'gt':>4}",
    ]
    per_label = _report_object(doc["per_label"], f"{args.input}: per_label")
    for label, m in sorted(per_label.items()):
        where = f"{args.input}: per_label.{label}"
        m = _report_object(m, where)
        lines.append(
            f"{label:<12} {_report_metric(m, 'adds', where, '.6f'):>10} "
            f"{_report_metric(m, 'auc_adds', where):>8} "
            f"{_report_metric(m, 'recall_0p1d', where):>8} "
            f"{_report_metric(m, 'ap_adds', where):>8} "
            f"{_report_count(m, 'n_gt', where):>4}"
        )
    if "comparison" in doc:
        where = f"{args.input}: comparison"
        comp = _report_object(doc["comparison"], where)
        lines += [
            "",
            "refinement comparison (ADD-S, mm)",
            f"  before : {_report_metric(comp, 'before_adds_mm', where, '.2f')} "
            f"({_report_count(comp, 'before_matched', where)} matched)",
            f"  after  : {_report_metric(comp, 'after_adds_mm', where, '.2f')} "
            f"({_report_count(comp, 'after_matched', where)} matched)",
            f"  change : {_report_metric(comp, 'reduction_percent', where, '.1f')}"
            "% reduction",
        ]
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
        print(f"wrote {args.out}")
    return EXIT_OK


# ------------------------------------------------------------------ parsing


def _simulate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n-objects", type=int, default=6)
    p.add_argument("--n-views", type=int, default=4)
    p.add_argument("--n-labels", type=int, default=None,
                   help="distinct model labels (default: one per object)")
    p.add_argument("--box-size", type=float, default=0.5)
    p.add_argument("--camera-distance", type=float, nargs=2, default=(1.0, 1.5),
                   metavar=("MIN", "MAX"))
    p.add_argument("--n-points", type=int, default=48)
    p.add_argument("--radius-range", type=float, nargs=2, default=(0.03, 0.07),
                   metavar=("MIN", "MAX"))
    p.add_argument("--symmetric-labels", default="",
                   help="comma-separated labels given a continuous z symmetry")
    p.add_argument("--rot-sigma-deg", type=float, default=0.0)
    p.add_argument("--trans-sigma", type=float, default=0.0)
    p.add_argument("--depth-sigma-extra", type=float, default=0.0)
    p.add_argument("--miss-prob", type=float, default=0.0)
    p.add_argument("--outlier-prob", type=float, default=0.0)
    p.add_argument("--label-confusion-prob", type=float, default=0.0)


def _solve_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--models", required=True)
    p.add_argument("--observations", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--init-out", default=None,
                   help="also write the pre-refinement estimate here")
    p.add_argument("--min-score", type=float, default=0.3)
    p.add_argument("--inlier-threshold", type=float, default=0.02)
    p.add_argument("--ransac-max-iters", type=int, default=2000)
    p.add_argument("--min-inliers", type=int, default=3)
    p.add_argument("--lm-iters", type=int, default=100)
    p.add_argument("--truncation-px", type=float, default=25.0)
    p.add_argument("--damping-init", type=float, default=1e-4,
                   help="initial and minimum Levenberg-Marquardt damping")
    p.add_argument("--damping-factor", type=float, default=10.0)
    p.add_argument("--rel-tol", type=float, default=1e-6)
    p.add_argument("--symmetry-angles", type=int, default=DEFAULT_ANGLES_PER_AXIS)
    p.add_argument("--nms-radius", type=float, default=DEFAULT_NMS_RADIUS)
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility: the solve runs its view "
                        "pairs in one thread, because the work is GIL-bound")


def _eval_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--models", required=True)
    p.add_argument("--estimate", required=True)
    p.add_argument("--ground-truth", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--before", default=None,
                   help="pre-refinement estimate for a before/after table")
    p.add_argument("--diameter-fraction", type=float,
                   default=DEFAULT_DIAMETER_FRACTION)
    p.add_argument("--auc-max", type=float, default=DEFAULT_AUC_MAX)
    p.add_argument("--compare-fraction", type=float, default=0.5,
                   help="matching gate (fraction of diameter) for the "
                        "before/after table")


def _report_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True)
    p.add_argument("--out", default=None)


# name: (help, arguments, handler)
_COMMANDS = {
    "simulate": ("generate a synthetic scene on disk", _simulate_arguments,
                 cmd_simulate),
    "solve": ("reconstruct a consistent scene from observations", _solve_arguments,
              cmd_solve),
    "eval": ("score an estimate against ground truth", _eval_arguments, cmd_eval),
    "report": ("render an eval output as text", _report_arguments, cmd_report),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `cosy` parser, or, given a command, one that parses only that
    command: its usage names every command as the full parser's does, so
    its help and error text are the full parser's."""
    parser = argparse.ArgumentParser(
        prog="cosy",
        description="multi-view object-pose scene reconstruction pipeline",
    )
    if command is None:
        sub = parser.add_subparsers(dest="command", required=True)
        names = list(_COMMANDS)
    else:
        sub = parser.add_subparsers(
            dest="command", required=True, metavar="{%s}" % ",".join(_COMMANDS)
        )
        names = [command]
    for name in names:
        help_text, add_arguments, _ = _COMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Only the invoked command's parser is built; anything else (-h, a
    # missing or unknown command) gets the full parser.
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, 0 on --help; keep those codes
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command][2](args)
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
