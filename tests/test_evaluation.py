import dataclasses
import math

import numpy as np
import pytest

from cosy import evaluation as ev
from cosy import numeric
from cosy.geometry import Pose, apply_matrices
from cosy.scene_io import ModelDB, ObjectModel
from cosy.symmetry import SymmetrySpec, discretize

import oracles


def _model(label="m", n=25, seed=0, symmetric=False):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-0.04, 0.04, size=(n, 3))
    sym = SymmetrySpec()
    if symmetric:
        sym = SymmetrySpec(continuous_axes=(([0.0, 0.0, 1.0], [0.0, 0.0, 0.0]),))
    return ObjectModel(label=label, points=pts, diameter=0.15, symmetries=sym)


def _pose(seed=1):
    rng = np.random.default_rng(seed)
    t = np.array([rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2), rng.uniform(0.5, 2.0)])
    return Pose.from_rt(oracles.random_rotation(rng), t)


class TestAddError:
    def test_zero_at_equality(self):
        m, t = _model(), _pose()
        assert ev.add_error(m, t, t) == 0.0

    def test_translation_offset(self):
        m = _model()
        t1 = _pose(2)
        d = np.array([0.003, -0.004, 0.012])
        t2 = Pose.from_rt(t1.rotation, t1.translation + d)
        err = ev.add_error(m, t1, t2)
        assert abs(err - np.linalg.norm(d)) < 1e-12

    def test_matches_loop_oracle_exactly(self):
        m = _model(n=31, seed=3)
        for trial in range(10):
            t1, t2 = _pose(10 + trial), _pose(50 + trial)
            got = ev.add_error(m, t1, t2)
            want = oracles.add_error(t1.matrix, t2.matrix, m.points)
            assert got == want


class TestAddsError:
    def test_zero_at_equality(self):
        m, t = _model(), _pose()
        assert ev.adds_error(m, t, t) == 0.0

    def test_symmetry_invariance(self):
        # Posing a symmetric ring of points with a symmetry applied gives
        # (numerically) the same point set, so ADD-S vanishes.
        group = discretize(
            SymmetrySpec(continuous_axes=(([0.0, 0.0, 1.0], [0.0, 0.0, 0.0]),)),
            angles_per_axis=8,
        )
        seeds = np.random.default_rng(4).uniform(-0.03, 0.03, size=(3, 3))
        pts = apply_matrices(group.matrices, seeds).reshape(-1, 3)
        m = ObjectModel(label="ring", points=pts, diameter=0.2)
        t = _pose(5)
        t_sym = t.compose(Pose(group.matrices[3]))
        assert ev.adds_error(m, t_sym, t) < 1e-12
        assert ev.add_error(m, t_sym, t) > 1e-3  # ADD is fooled, ADD-S is not

    def test_matches_loop_oracle_exactly(self):
        m = _model(n=23, seed=6)
        for trial in range(10):
            t1, t2 = _pose(100 + trial), _pose(150 + trial)
            got = ev.adds_error(m, t1, t2)
            want = oracles.adds_error(t1.matrix, t2.matrix, m.points)
            assert got == want

    def test_matches_loop_oracle_exactly_above_the_filter_size(self):
        # 160 points reach numeric.nearest_sq's filtered argmin.
        m = _model(n=160, seed=9)
        assert len(m.points) >= numeric._NEAREST_MIN_POINTS
        t = _pose(300)
        near = Pose.from_rt(t.rotation, t.translation + [0.002, -0.001, 0.004])
        for t1, t2 in [(near, t), (t, near), (_pose(301), t), (_pose(302), _pose(303))]:
            got = ev.adds_error(m, t1, t2)
            assert got == oracles.adds_error(t1.matrix, t2.matrix, m.points)

    @pytest.mark.parametrize("chunk", [1, 31, 4 * 31, 5 * 31 - 1, 31 * 31 - 1])
    def test_matches_loop_oracle_across_chunk_sizes(self, monkeypatch, chunk):
        # 1 and M give one-row blocks; 4M and 5M - 1 give 4-row blocks,
        # which do not divide M = 31; M^2 - 1 leaves a 1-row tail block.
        monkeypatch.setattr(numeric, "_PAIRWISE_CHUNK", chunk)
        m = _model(n=31, seed=8, symmetric=True)
        for trial in range(4):
            t1, t2 = _pose(200 + trial), _pose(250 + trial)
            got = ev.adds_error(m, t1, t2)
            assert got == oracles.adds_error(t1.matrix, t2.matrix, m.points)

    def test_add_dominates_adds(self):
        m = _model(n=40, seed=7)
        for trial in range(20):
            t1, t2 = _pose(200 + trial), _pose(250 + trial)
            assert ev.add_error(m, t1, t2) >= ev.adds_error(m, t1, t2)


class TestAuc:
    def test_all_zero(self):
        assert ev.add_s_auc([0.0, 0.0, 0.0]) == 1.0

    def test_all_beyond_max(self):
        assert ev.add_s_auc([0.10, 0.2, 1.0]) == 0.0

    def test_single_halfway(self):
        assert ev.add_s_auc([0.05]) == 0.5

    def test_matches_loop_oracle_exactly(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            errors = rng.uniform(0, 0.2, size=rng.integers(1, 40)).tolist()
            got = ev.add_s_auc(errors)
            want = oracles.auc_of_recall(errors, 0.10)
            assert got == want

    def test_monotone_in_errors(self):
        rng = np.random.default_rng(9)
        errors = rng.uniform(0, 0.15, size=20)
        base = ev.add_s_auc(errors)
        for i in range(len(errors)):
            bumped = errors.copy()
            bumped[i] += 0.01
            assert ev.add_s_auc(bumped) <= base

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ev.add_s_auc([])

    def test_infinite_errors_allowed(self):
        assert ev.add_s_auc([0.0, math.inf]) == 0.5

    def test_max_threshold_must_be_finite_and_positive(self):
        # An infinite cap would give inf / inf = nan after a RuntimeWarning.
        for bad in (math.inf, math.nan, 0.0, -0.1):
            with pytest.raises(ValueError) as exc:
                ev.add_s_auc([0.01, 0.2], bad)
            assert str(exc.value) == f"max_threshold must be finite and > 0, got {bad}"


class TestRecall:
    def test_all_zero(self):
        assert ev.recall_at_fraction_of_diameter([0.0, 0.0], [0.1, 0.2]) == 1.0

    def test_all_beyond(self):
        d = [0.1, 0.15]
        e = [0.02, 0.03]  # 0.2 * diameter
        assert ev.recall_at_fraction_of_diameter(e, d) == 0.0

    def test_hand_count(self):
        errors = [0.005, 0.011, 0.009, 0.030]
        diams = [0.10, 0.10, 0.10, 0.10]
        # threshold 0.01: hits are 0.005 and 0.009 -> 2/4
        assert ev.recall_at_fraction_of_diameter(errors, diams) == 0.5

    def test_strictness_at_boundary(self):
        # 0.5 * 0.5 is exact in binary, so this probes the strict <.
        assert ev.recall_at_fraction_of_diameter([0.25], [0.5], fraction=0.5) == 0.0
        assert ev.recall_at_fraction_of_diameter([0.2499], [0.5], fraction=0.5) == 1.0


class TestMapAdds:
    def _db(self):
        return ModelDB(models={"m": _model()})

    def test_perfect(self):
        db = self._db()
        gts = [ev.PosePrediction("v0", "m", 1.0, _pose(10 + i)) for i in range(3)]
        preds = [
            ev.PosePrediction("v0", "m", 0.9 - 0.1 * i, g.pose) for i, g in enumerate(gts)
        ]
        assert ev.evaluate(preds, gts, db).map_adds == 1.0

    def test_no_predictions(self):
        db = self._db()
        gts = [ev.PosePrediction("v0", "m", 1.0, _pose(20))]
        assert ev.evaluate([], gts, db).map_adds == 0.0

    def test_false_positive_hand_curve(self):
        # One GT; a wrong high-score pred ranks above the correct one.
        # PR points: (recall 0, precision 0), then (recall 1, precision 1/2).
        # All-points AP = 1 * 1/2 = 0.5.
        db = self._db()
        gt_pose = _pose(21)
        gts = [ev.PosePrediction("v0", "m", 1.0, gt_pose)]
        far = Pose.from_rt(gt_pose.rotation, gt_pose.translation + [0.5, 0, 0])
        preds = [
            ev.PosePrediction("v0", "m", 0.95, far),
            ev.PosePrediction("v0", "m", 0.60, gt_pose),
        ]
        assert ev.evaluate(preds, gts, db).map_adds == 0.5

    def test_view_strict_matching(self):
        db = self._db()
        gt_pose = _pose(22)
        gts = [ev.PosePrediction("v0", "m", 1.0, gt_pose)]
        preds = [ev.PosePrediction("v1", "m", 0.9, gt_pose)]  # right pose, wrong view
        assert ev.evaluate(preds, gts, db).map_adds == 0.0

    def test_score_rank_invariance(self):
        db = self._db()
        rng = np.random.default_rng(23)
        gts = [ev.PosePrediction("v0", "m", 1.0, _pose(30 + i)) for i in range(4)]
        preds = [
            ev.PosePrediction("v0", "m", s, g.pose)
            for s, g in zip([0.9, 0.7, 0.5, 0.3], gts)
        ] + [ev.PosePrediction("v0", "m", 0.8, _pose(99))]
        base = ev.evaluate(preds, gts, db).map_adds
        squashed = [
            ev.PosePrediction(p.view_id, p.label, p.score ** 3, p.pose) for p in preds
        ]
        assert ev.evaluate(squashed, gts, db).map_adds == base

    def test_mean_over_labels(self):
        db = ModelDB(models={"a": _model("a", seed=1), "b": _model("b", seed=2)})
        pa, pb = _pose(40), _pose(41)
        gts = [
            ev.PosePrediction("v0", "a", 1.0, pa),
            ev.PosePrediction("v0", "b", 1.0, pb),
        ]
        preds = [ev.PosePrediction("v0", "a", 0.9, pa)]  # label b missed
        assert ev.evaluate(preds, gts, db).map_adds == 0.5


class TestEvaluateReport:
    def test_report_shape(self):
        db = ModelDB(models={"a": _model("a", seed=1), "b": _model("b", seed=2)})
        gts = [
            ev.PosePrediction("v0", "a", 1.0, _pose(50)),
            ev.PosePrediction("v0", "b", 1.0, _pose(51)),
            ev.PosePrediction("v1", "a", 1.0, _pose(52)),
        ]
        preds = [
            ev.PosePrediction("v0", "a", 0.9, gts[0].pose),
            ev.PosePrediction("v0", "b", 0.8, gts[1].pose),
        ]
        rep = ev.evaluate(preds, gts, db)
        assert set(rep.per_label) == {"a", "b"}
        assert rep.n_gt == 3
        assert rep.n_matched == 2
        assert rep.n_predictions == 2
        assert 0.0 <= rep.recall_0p1d <= 1.0
        assert 0.0 <= rep.auc_adds <= 1.0
        assert 0.0 <= rep.map_adds <= 1.0
        assert rep.per_label["b"].recall_0p1d == 1.0
        assert rep.per_label["a"].recall_0p1d == 0.5
        assert rep.add is not None and rep.add >= 0.0

    def test_unmatched_gt_counts_against_auc(self):
        db = ModelDB(models={"a": _model("a", seed=3)})
        gts = [
            ev.PosePrediction("v0", "a", 1.0, _pose(60)),
            ev.PosePrediction("v1", "a", 1.0, _pose(61)),
        ]
        preds = [ev.PosePrediction("v0", "a", 0.9, gts[0].pose)]
        rep = ev.evaluate(preds, gts, db)
        assert rep.per_label["a"].auc_adds == pytest.approx(0.5)


def _noisy_multi_view_scene(seed=0):
    """Three labels (one symmetric), three views, noisy and false predictions."""
    rng = np.random.default_rng(seed)
    db = ModelDB(models={
        "a": _model("a", seed=11),
        "b": _model("b", n=30, seed=12, symmetric=True),
        "c": _model("c", n=20, seed=13),
    })
    gts, preds = [], []
    for view in ("v0", "v1", "v2"):
        for label, count in (("a", 2), ("b", 2), ("c", 1)):
            for _ in range(count):
                pose = Pose.from_matrix(oracles.random_pose_matrix(rng, 0.3))
                gts.append(ev.PosePrediction(view, label, 1.0, pose))
                if rng.uniform() < 0.8:  # a noisy detection of this object
                    nudged = oracles.random_pose_nudge(pose.matrix, rng, 0.02, 0.004)
                    preds.append(ev.PosePrediction(
                        view, label, float(rng.uniform(0.3, 1.0)),
                        Pose.from_matrix(nudged)))
        for label in ("a", "b", "c"):  # false positives
            pose = Pose.from_matrix(oracles.random_pose_matrix(rng, 0.3))
            preds.append(ev.PosePrediction(view, label, float(rng.uniform(0.3, 1.0)), pose))
    return db, preds, gts


class TestEvaluateAddsOnce:
    def test_adds_means_equal_oracle_over_matched_pairs(self):
        # The ADD-S means recomputed over every matched pair, as evaluate
        # once did, must equal the errors taken from greedy matching.
        db, preds, gts = _noisy_multi_view_scene()
        rep = ev.evaluate(preds, gts, db)
        want = {}
        for label in ("a", "b", "c"):
            model = db[label]
            lp = [p for p in preds if p.label == label]
            lg = [g for g in gts if g.label == label]
            claimed, _ = oracles.greedy_adds_matches(
                lp, lg, model.points, ev.DEFAULT_DIAMETER_FRACTION * model.diameter)
            assert claimed and len(claimed) < len(lp)
            assert rep.per_label[label].n_matched == len(claimed)
            want[label] = float(np.mean([
                oracles.adds_error(lp[pi].pose.matrix, lg[gi].pose.matrix, model.points)
                for gi, (pi, _) in sorted(claimed.items())
            ]))
            assert rep.per_label[label].adds == want[label]
        assert rep.adds == float(np.mean([want[label] for label in ("a", "b", "c")]))

    def test_adds_computed_once_per_examined_pair(self, monkeypatch):
        db, preds, gts = _noisy_multi_view_scene()
        calls = []
        adds_error = ev.adds_error

        def counting(model, t_pred, t_gt):
            calls.append((id(t_pred), id(t_gt)))
            return adds_error(model, t_pred, t_gt)

        monkeypatch.setattr(ev, "adds_error", counting)
        rep = ev.evaluate(preds, gts, db)
        assert rep.n_matched > 0
        assert len(calls) == len(set(calls))
        n_examined = 0
        for label in ("a", "b", "c"):
            model = db[label]
            _, n = oracles.greedy_adds_matches(
                [p for p in preds if p.label == label],
                [g for g in gts if g.label == label],
                model.points, ev.DEFAULT_DIAMETER_FRACTION * model.diameter)
            n_examined += n
        assert len(calls) == n_examined

    def test_shared_errors_equal_a_fresh_evaluate(self):
        # cosy eval --before scores its records at a second fraction through
        # the PairErrors of the first report.
        db, preds, gts = _noisy_multi_view_scene()
        shared = ev.PairErrors(preds, gts, db)
        first = ev.evaluate(preds, gts, db, errors=shared)
        for fraction in (0.04, 0.5):
            got = ev.evaluate(preds, gts, db, fraction=fraction, errors=shared)
            assert got == ev.evaluate(preds, gts, db, fraction=fraction)
        assert ev.evaluate(preds, gts, db, 0.04).n_matched < first.n_matched
        copies = [dataclasses.replace(p) for p in preds]
        for errors in (ev.PairErrors(copies, gts, db),
                       ev.PairErrors(preds[1:], gts, db)):
            with pytest.raises(ValueError, match="other predictions"):
                ev.evaluate(preds, gts, db, errors=errors)


class _Obj:
    def __init__(self, xyz, score):
        self.pose_world = Pose.from_rt(np.eye(3), xyz)
        self.score = score


def _nms_oracle(objs, radius):
    # Straight transcription of the greedy rule.
    order = sorted(range(len(objs)), key=lambda i: (-objs[i].score, i))
    kept = []
    for i in order:
        p = objs[i].pose_world.translation
        if all(
            math.dist(p, objs[j].pose_world.translation) >= radius for j in kept
        ):
            kept.append(i)
    return sorted(kept)


class TestNms3d:
    def test_single_object(self):
        objs = [_Obj([0, 0, 1], 1.0)]
        assert ev.nms_3d(objs, 0.02) == objs

    def test_colocated_pair(self):
        a = _Obj([0, 0, 1], 2.1)
        b = _Obj([0.005, 0, 1], 1.3)
        assert ev.nms_3d([b, a], 0.02) == [a]

    def test_chain_of_three(self):
        r = 0.02
        a = _Obj([0.0, 0, 1], 3.0)
        b = _Obj([0.9 * r, 0, 1], 2.0)
        c = _Obj([1.8 * r, 0, 1], 2.5)
        objs = [a, b, c]
        kept = ev.nms_3d(objs, r)
        assert kept == [a, c]
        assert [objs.index(k) for k in kept] == _nms_oracle(objs, r)

    def test_antichain_property_random(self):
        rng = np.random.default_rng(70)
        for trial in range(20):
            objs = [
                _Obj(rng.uniform(-0.05, 0.05, 3), float(rng.uniform(0, 3)))
                for _ in range(rng.integers(1, 15))
            ]
            r = float(rng.uniform(0.01, 0.05))
            kept = ev.nms_3d(objs, r)
            for i, a in enumerate(kept):
                for b in kept[i + 1 :]:
                    d = np.linalg.norm(
                        a.pose_world.translation - b.pose_world.translation
                    )
                    assert d >= r
            assert [objs.index(k) for k in kept] == _nms_oracle(objs, r)

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            ev.nms_3d([], 0.0)
