"""Pose-accuracy metrics and 3D duplicate suppression.

Metrics operate on camera-frame pose pairs (prediction vs ground truth):

  - add_error: mean distance between same-index model points.
  - adds_error: mean distance from each ground-truth-posed point to its
    nearest predicted-posed point (symmetric-object friendly). The nearest
    point's squared distance comes from numeric.nearest_sq, which equals
    the row minimum of a full pairwise scan bit for bit, with one sqrt per
    ground-truth point.
  - add_s_auc: exact area under the accuracy-vs-threshold curve for
    thresholds 0..max (closed form over the error list, no sampling grid).
  - recall_at_fraction_of_diameter: hit rate at a per-object threshold.
  - average_precision: detection-style AP; evaluate reports its mean over
    labels as MetricReport.map_adds, where a prediction counts as a true
    positive when its ADD-S error clears fraction*diameter.

nms_3d greedily keeps the highest-aggregate-score object among any set
whose world positions fall within a radius of each other.

evaluate poses each record's model points once and computes ADD-S once
per (prediction, ground truth) pair that greedy matching examines, through
a PairErrors; matched pairs reuse the errors matching found, and evaluate
calls over the same records at other fractions can share one PairErrors,
so none of them scores a pair again.
Error computations follow the fixed accumulation-order conventions (see
numeric module) and reproduce loop-based reference implementations bit for
bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Pose, apply_matrices, apply_matrix
from .numeric import nearest_sq, point_norms, seq_sum
from .scene_io import ModelDB, ObjectModel

DEFAULT_AUC_MAX = 0.10
DEFAULT_DIAMETER_FRACTION = 0.1
DEFAULT_NMS_RADIUS = 0.02


@dataclass(frozen=True)
class PosePrediction:
    """One evaluated pose record; for ground truth the score is ignored."""

    view_id: str
    label: str
    score: float
    pose: Pose

    def __post_init__(self):
        if not math.isfinite(self.score):
            raise ValueError("score must be finite")


@dataclass(frozen=True)
class LabelMetrics:
    label: str
    add: float | None
    adds: float | None
    auc_adds: float
    recall_0p1d: float
    ap_adds: float
    n_gt: int
    n_matched: int
    n_predictions: int


@dataclass(frozen=True)
class MetricReport:
    per_label: dict[str, LabelMetrics]
    add: float | None
    adds: float | None
    auc_adds: float
    recall_0p1d: float
    map_adds: float
    n_gt: int
    n_matched: int
    n_predictions: int


def _posed(model: ObjectModel, t) -> np.ndarray:
    return t if isinstance(t, np.ndarray) else apply_matrix(t.matrix, model.points)


def add_error(model: ObjectModel, t_pred, t_gt) -> float:
    """Mean same-index point distance between the two posed models.

    Each of t_pred and t_gt is a Pose or the model points already posed by
    one, (M, 3) as apply_matrix gives them.
    """
    d = point_norms(_posed(model, t_pred) - _posed(model, t_gt))
    return float(seq_sum(d) / d.shape[0])


def adds_error(model: ObjectModel, t_pred, t_gt) -> float:
    """Mean nearest-neighbor distance from gt-posed to pred-posed points.

    Poses or posed points are accepted as in add_error.
    """
    gt = _posed(model, t_gt)
    mins = np.sqrt(nearest_sq(gt, _posed(model, t_pred)))
    return float(seq_sum(mins) / gt.shape[0])


def pose_error(model: ObjectModel, t_pred: Pose, t_gt: Pose) -> float:
    """ADD for asymmetric models, ADD-S when the model has symmetries."""
    if _is_symmetric(model):
        return adds_error(model, t_pred, t_gt)
    return add_error(model, t_pred, t_gt)


def _is_symmetric(model: ObjectModel) -> bool:
    s = model.symmetries
    return bool(s.continuous_axes) or len(s.discrete) > 1


def add_s_auc(errors, max_threshold: float = DEFAULT_AUC_MAX) -> float:
    """Exact area under fraction(errors < t) for t in (0, max], normalized.

    The recall staircase jumps by 1/n at each error value; integrating it
    exactly gives sum(max(max_threshold - e, 0)) / (n * max_threshold).
    """
    e = np.asarray(list(errors), dtype=np.float64)
    if e.size == 0:
        raise ValueError("auc of an empty error list")
    if np.any(e < 0):
        raise ValueError("errors must be >= 0")
    if not (np.isfinite(max_threshold) and max_threshold > 0):
        raise ValueError(f"max_threshold must be finite and > 0, got {max_threshold}")
    contrib = np.maximum(max_threshold - e, 0.0)
    return float(seq_sum(contrib) / (e.size * max_threshold))


def recall_at_fraction_of_diameter(
    errors, diameters, fraction: float = DEFAULT_DIAMETER_FRACTION
) -> float:
    """Fraction of errors strictly below fraction * matching diameter."""
    e = np.asarray(list(errors), dtype=np.float64)
    d = np.asarray(list(diameters), dtype=np.float64)
    if e.shape != d.shape:
        raise ValueError(f"length mismatch: {e.shape} errors vs {d.shape} diameters")
    if e.size == 0:
        raise ValueError("recall of an empty error list")
    return float(np.count_nonzero(e < fraction * d)) / e.size


def _posed_rows(records, model: ObjectModel) -> list[np.ndarray]:
    """The model points under each record's pose, by one stacked transform."""
    if not records:
        return []
    mats = np.stack([r.pose.matrix for r in records])
    return list(apply_matrices(mats, model.points))


class LabelPairs:
    """One label's predictions and ground truths, each posed once.

    The model points are posed under every record's pose by one stacked
    apply_matrices per side (each row equals apply_matrix bit for bit), and
    each (prediction, ground truth) ADD-S is computed once.
    """

    def __init__(self, preds, gts, model: ObjectModel):
        self.preds = preds
        self.gts = gts
        self.model = model
        self._pred_pts = _posed_rows(preds, model)
        self._gt_pts = _posed_rows(gts, model)
        self._adds: dict[tuple[int, int], float] = {}

    def adds(self, pi: int, gi: int) -> float:
        if (pi, gi) not in self._adds:
            self._adds[pi, gi] = adds_error(
                self.model, self._pred_pts[pi], self._gt_pts[gi]
            )
        return self._adds[pi, gi]

    def add(self, pi: int, gi: int) -> float:
        return add_error(self.model, self._pred_pts[pi], self._gt_pts[gi])


class PairErrors:
    """Per-label LabelPairs of one set of predictions and ground truths.

    Every evaluate call given this object shares its posed points and its
    errors, so no pair is scored twice.
    """

    def __init__(self, preds, gts, db: ModelDB):
        self.preds = list(preds)
        self.gts = list(gts)
        self._db = db
        self._labels: dict[str, LabelPairs] = {}

    def covers(self, preds, gts) -> bool:
        """True when preds and gts are this object's records, in order."""
        return all(
            len(mine) == len(theirs) and all(a is b for a, b in zip(mine, theirs))
            for mine, theirs in ((self.preds, preds), (self.gts, gts))
        )

    def label(self, label: str) -> LabelPairs:
        if label not in self._labels:
            self._labels[label] = LabelPairs(
                [p for p in self.preds if p.label == label],
                [g for g in self.gts if g.label == label],
                self._db[label],
            )
        return self._labels[label]


def _greedy_match(
    pairs: LabelPairs, threshold: float
) -> tuple[list[bool], dict[int, tuple[int, float]]]:
    """Match score-sorted predictions to GTs of one label.

    Returns (per-prediction true-positive flags in score order,
    {gt index: (prediction rank, error)}). A prediction may claim the
    single unmatched same-view GT with the smallest ADD-S error below the
    threshold; each GT is claimed at most once.
    """
    preds, gts = pairs.preds, pairs.gts
    order = sorted(range(len(preds)), key=lambda i: (-preds[i].score, i))
    claimed: dict[int, tuple[int, float]] = {}
    flags: list[bool] = []
    for rank, pi in enumerate(order):
        p = preds[pi]
        best_gt, best_err = -1, math.inf
        for gi, g in enumerate(gts):
            if gi in claimed or g.view_id != p.view_id:
                continue
            err = pairs.adds(pi, gi)
            if err < threshold and err < best_err:
                best_gt, best_err = gi, err
        if best_gt >= 0:
            claimed[best_gt] = (rank, best_err)
            flags.append(True)
        else:
            flags.append(False)
    return flags, claimed


def average_precision(tp_flags: list[bool], n_gt: int) -> float:
    """All-points-interpolated AP from true-positive flags in score order."""
    if n_gt == 0:
        raise ValueError("AP undefined without ground truth")
    if not tp_flags:
        return 0.0
    tp = np.cumsum(np.asarray(tp_flags, dtype=np.float64))
    ranks = np.arange(1, len(tp_flags) + 1, dtype=np.float64)
    precision = tp / ranks
    recall = tp / n_gt
    # Monotone precision envelope, integrated over recall increments.
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    prev_recall = 0.0
    area = 0.0
    for p, r in zip(envelope, recall):
        if r > prev_recall:
            area += (r - prev_recall) * p
            prev_recall = r
    return float(area)


def evaluate(
    preds,
    gts,
    db: ModelDB,
    fraction: float = DEFAULT_DIAMETER_FRACTION,
    auc_max: float = DEFAULT_AUC_MAX,
    *,
    errors: PairErrors | None = None,
) -> MetricReport:
    """Full metric report over one or more scenes' worth of records.

    Matching is per label: predictions in descending score order claim the
    nearest unmatched ground truth in their view at ADD-S < fraction*d.
    Unmatched ground truths enter AUC and recall as infinite error; ADD and
    ADD-S averages cover matched pairs only (None when nothing matched).
    Aggregates are means over labels present in the ground truth.

    `errors`, when given, is a PairErrors of these same preds and gts;
    calls at several fractions that share it score each pair once.
    """
    preds = list(preds)
    gts = list(gts)
    if errors is None:
        errors = PairErrors(preds, gts, db)
    elif not errors.covers(preds, gts):
        raise ValueError("errors belong to other predictions or ground truths")
    labels = sorted({g.label for g in gts})
    if not labels:
        raise ValueError("no ground-truth objects")
    per_label: dict[str, LabelMetrics] = {}
    for label in labels:
        model = db[label]
        pairs = errors.label(label)
        label_preds, label_gts = pairs.preds, pairs.gts
        flags, claimed = _greedy_match(pairs, fraction * model.diameter)
        order = sorted(
            range(len(label_preds)), key=lambda i: (-label_preds[i].score, i)
        )
        matched_pairs = [
            (order[rank], gi) for gi, (rank, _) in sorted(claimed.items())
        ]
        add_vals = [pairs.add(pi, gi) for pi, gi in matched_pairs]
        adds_vals = [err for _, (_, err) in sorted(claimed.items())]
        per_gt_err = [
            claimed[gi][1] if gi in claimed else math.inf
            for gi in range(len(label_gts))
        ]
        per_label[label] = LabelMetrics(
            label=label,
            add=float(np.mean(add_vals)) if add_vals else None,
            adds=float(np.mean(adds_vals)) if adds_vals else None,
            auc_adds=add_s_auc(per_gt_err, auc_max),
            recall_0p1d=recall_at_fraction_of_diameter(
                per_gt_err, [model.diameter] * len(label_gts), fraction
            ),
            ap_adds=average_precision(flags, len(label_gts)),
            n_gt=len(label_gts),
            n_matched=len(matched_pairs),
            n_predictions=len(label_preds),
        )
    rows = [per_label[l] for l in labels]
    add_rows = [r.add for r in rows if r.add is not None]
    adds_rows = [r.adds for r in rows if r.adds is not None]
    return MetricReport(
        per_label=per_label,
        add=float(np.mean(add_rows)) if add_rows else None,
        adds=float(np.mean(adds_rows)) if adds_rows else None,
        auc_adds=float(np.mean([r.auc_adds for r in rows])),
        recall_0p1d=float(np.mean([r.recall_0p1d for r in rows])),
        map_adds=float(np.mean([r.ap_adds for r in rows])),
        n_gt=sum(r.n_gt for r in rows),
        n_matched=sum(r.n_matched for r in rows),
        n_predictions=len(preds),
    )


def nms_3d(objects, radius: float = DEFAULT_NMS_RADIUS):
    """Suppress all but the highest-scoring object in any crowded spot.

    Greedy by descending aggregate score (ties by input order): keep an
    object unless its world position lies within `radius` of one already
    kept. Input order is preserved in the output. Objects need pose_world
    and score attributes; positions are the pose translations, so model
    frames are assumed origin-centered.
    """
    if not radius > 0:
        raise ValueError("radius must be > 0")
    objects = list(objects)
    order = sorted(range(len(objects)), key=lambda i: (-objects[i].score, i))
    kept_idx: list[int] = []
    for i in order:
        p = objects[i].pose_world.translation
        ok = True
        for j in kept_idx:
            q = objects[j].pose_world.translation
            if float(np.linalg.norm(p - q)) < radius:
                ok = False
                break
        if ok:
            kept_idx.append(i)
    kept_idx.sort()
    return [objects[i] for i in kept_idx]
