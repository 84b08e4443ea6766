import json
import math
import re

import numpy as np
import pytest

from cosy import numeric
from cosy import scene_io as sio
from cosy.cli import EXIT_CONFIG
from cosy.geometry import CameraIntrinsics, Pose
from cosy.symmetry import SymmetrySpec

import oracles
from test_cli import simulate, solve


def _model(label="box", n=12, seed=0, diameter=None, symmetric=False):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-0.04, 0.04, size=(n, 3))
    if diameter is None:
        diff = pts[:, None, :] - pts[None, :, :]
        diameter = float(np.sqrt((diff ** 2).sum(-1)).max()) * 1.01
    sym = SymmetrySpec.none()
    if symmetric:
        sym = SymmetrySpec(continuous_axes=(([0.0, 0.0, 1.0], [0.0, 0.0, 0.0]),))
    return sio.ObjectModel(label=label, points=pts, diameter=diameter, symmetries=sym)


def _intrinsics():
    return CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480)


def _candidate(view_id="v0", label="box", score=0.9, z=1.0, seed=3):
    rng = np.random.default_rng(seed)
    pose = Pose.from_rt(oracles.random_rotation(rng), [0.01, -0.02, z])
    return sio.Candidate(view_id=view_id, label=label, score=score, pose=pose)


def _observations(n_views=4, n_cands_per_view=6):
    views = tuple(sio.View(view_id=f"v{i}", intrinsics=_intrinsics()) for i in range(n_views))
    cands = tuple(
        _candidate(view_id=f"v{i}", seed=10 * i + j, score=0.5 + 0.01 * j)
        for i in range(n_views)
        for j in range(n_cands_per_view)
    )
    return sio.SceneObservations(views=views, candidates=cands)


class TestObjectModel:
    def test_zero_points_rejected(self):
        with pytest.raises(sio.InvariantError):
            sio.ObjectModel(label="x", points=np.zeros((0, 3)), diameter=0.1)

    def test_negative_diameter_rejected(self):
        with pytest.raises(sio.InvariantError):
            sio.ObjectModel(label="x", points=np.zeros((1, 3)), diameter=-0.1)

    def test_diameter_must_cover_spread(self):
        pts = np.array([[0.0, 0, 0], [0.1, 0, 0], [0, 0.02, 0], [0, 0, 0.03]])
        with pytest.raises(sio.InvariantError):
            sio.ObjectModel(label="x", points=pts, diameter=0.05)
        sio.ObjectModel(label="x", points=pts, diameter=0.11)  # ok

    def test_millimeter_scale_rejected(self):
        # Units guard: a 150 "meter" diameter means someone exported mm.
        pts = np.array([[0.0, 0, 0], [150.0, 0, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(sio.InvariantError):
            sio.ObjectModel(label="x", points=pts, diameter=151.0)

    def test_require_matchable(self):
        m = _model()
        m.require_matchable()
        few = sio.ObjectModel(label="x", points=np.eye(3) * 0.01, diameter=0.05)
        with pytest.raises(sio.InvariantError):
            few.require_matchable()
        flat_pts = np.array(
            [[0.0, 0, 0], [0.01, 0, 0], [0, 0.01, 0], [0.01, 0.01, 0], [0.02, 0.01, 0]]
        )
        flat = sio.ObjectModel(label="x", points=flat_pts, diameter=0.05)
        with pytest.raises(sio.InvariantError):
            flat.require_matchable()

    @pytest.mark.parametrize("offset, coplanar", [(1e-12, True), (1e-6, False)])
    def test_one_point_off_a_tilted_plane(self, offset, coplanar):
        # The tolerance is 1e-9 of the diameter: a point 1e-12 d off the
        # plane of the others leaves them coplanar, one 1e-6 d off does not.
        rng = np.random.default_rng(7)
        d = 0.2
        flat = np.c_[rng.uniform(-0.04, 0.04, size=(20, 2)), np.zeros(20)]
        flat[5, 2] = offset * d
        pts = flat @ oracles.random_rotation(rng).T + [0.01, -0.02, 0.03]
        model = sio.ObjectModel(label="x", points=pts, diameter=d)
        assert sio._coplanar(pts, 1e-9 * d) == coplanar
        assert oracles.coplanar_by_rank(pts, 1e-9 * d) == coplanar
        if coplanar:
            with pytest.raises(sio.InvariantError, match="'x': points are coplanar"):
                model.require_matchable()
        else:
            model.require_matchable()

    def test_coplanarity_equals_the_rank_test(self):
        # Random clouds, exactly planar, collinear and coincident points,
        # each at several placements: the same verdicts as a rank test.
        rng = np.random.default_rng(8)
        for n in (4, 5, 12, 48):
            for _ in range(10):
                rot = oracles.random_rotation(rng)
                shift = rng.uniform(-0.05, 0.05, size=3)
                cloud = rng.uniform(-0.04, 0.04, size=(n, 3))
                plane = cloud * [1.0, 1.0, 0.0]
                line = cloud * [1.0, 0.0, 0.0]
                same = np.zeros((n, 3))
                for pts, want in ((cloud, False), (plane, True), (line, True),
                                  (same, True)):
                    pts = pts @ rot.T + shift
                    tol = 1e-9 * 0.2
                    assert sio._coplanar(pts, tol) == want
                    assert oracles.coplanar_by_rank(pts, tol) == want


def _clouds():
    """Clouds across scales and offsets, N = 2, duplicate points, random sizes."""
    rng = np.random.default_rng(21)
    clouds = []
    for scale in (1e-3, 0.05, 1.0, 40.0):
        for n in (2, 3, 17, 250):
            offset = rng.uniform(-3.0, 3.0, size=3) * scale
            clouds.append(rng.normal(size=(n, 3)) * scale + offset)
    dup = rng.uniform(-0.1, 0.1, size=(9, 3))
    clouds.append(np.concatenate([dup, dup[::-1], dup[:1]]))
    clouds.append(np.tile(rng.uniform(size=(1, 3)), (5, 1)))  # all one point
    clouds.append(np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]]))
    for _ in range(100):
        n = int(rng.integers(2, 120))
        clouds.append(rng.uniform(-1, 1, size=(n, 3)) * 10.0 ** rng.uniform(-3, 1))
    return clouds


class TestMaxPairwiseDistance:
    def test_equals_row_loop(self):
        for pts in _clouds():
            assert sio.max_pairwise_distance(pts) == oracles.max_pairwise_distance(pts)

    @pytest.mark.parametrize("chunk", [1, 17, 3 * 17 + 2, 17 * 17 - 1])
    def test_equals_row_loop_across_chunk_boundaries(self, monkeypatch, chunk):
        # One-row blocks, a block size that does not divide N = 17, and a
        # one-row tail block.
        monkeypatch.setattr(numeric, "_PAIRWISE_CHUNK", chunk)
        rng = np.random.default_rng(23)
        for _ in range(5):
            pts = rng.normal(size=(17, 3)) * 0.05
            assert sio.max_pairwise_distance(pts) == oracles.max_pairwise_distance(pts)

    def test_pruned_scan_equals_row_loop_on_hard_clouds(self, monkeypatch):
        # Clouds where many points reach the centroid bound (points on a
        # sphere, a shell with its centre, repeated points, two far
        # clusters, collinear points, a cloud far from the origin, N = 2),
        # and a check that a uniform cloud scans only some of its points.
        rng = np.random.default_rng(25)
        clouds = [np.array([[0.3, -0.1, 0.2], [0.3, -0.1, 0.2]]),
                  np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.1]])]
        for _ in range(40):
            n = int(rng.integers(2, 200))
            sphere = rng.normal(size=(n, 3))
            sphere /= np.linalg.norm(sphere, axis=1)[:, None]
            shell = np.concatenate([sphere * 0.05, [[0.0, 0.0, 0.0]]])
            repeated = np.round(rng.uniform(-2, 2, size=(n, 3))) * 0.01
            clusters = rng.normal(size=(n, 3)) * 1e-3
            clusters[: n // 2] += 0.2
            line = np.outer(rng.uniform(-1, 1, n), rng.normal(size=3)) * 0.05
            far = rng.uniform(-0.05, 0.05, size=(n, 3)) + 1e3
            clouds += [sphere * 0.07, shell, repeated, clusters, line, far]
        for pts in clouds:
            assert sio.max_pairwise_distance(pts) == oracles.max_pairwise_distance(pts)
        scanned = []
        real = sio.pairwise_sq_reduce

        def recording(a, b, reduce):
            scanned.append((len(a), len(b)))
            return real(a, b, reduce)

        monkeypatch.setattr(sio, "pairwise_sq_reduce", recording)
        pts = rng.uniform(-0.05, 0.05, size=(250, 3))
        assert sio.max_pairwise_distance(pts) == oracles.max_pairwise_distance(pts)
        assert scanned[0] == (1, 250) and scanned[1][0] < 125

    def test_diameter_acceptance_at_the_tolerance(self):
        # The check rejects d < spread * (1 - 1e-6), spread from the row loop:
        # the edge itself and one ulp above load, one ulp below does not.
        rng = np.random.default_rng(24)
        for _ in range(20):
            pts = rng.uniform(-0.05, 0.05, size=(40, 3))
            edge = oracles.max_pairwise_distance(pts) * (1.0 - 1e-6)
            for d in (edge, np.nextafter(edge, 1.0)):
                assert sio.ObjectModel(label="m", points=pts, diameter=d).diameter == d
            with pytest.raises(sio.InvariantError, match="smaller than point spread"):
                sio.ObjectModel(label="m", points=pts, diameter=np.nextafter(edge, 0.0))


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_solve_rejects_non_finite_model_point(tmp_path, capsys, value):
    models, obs, _ = simulate(tmp_path, "--n-objects", "4", "--n-views", "3")
    doc = json.loads(models.read_text())
    doc["models"][1]["points"][4] = value
    models.write_text(json.dumps(doc))
    capsys.readouterr()
    assert solve(models, obs, tmp_path / "out.json") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "'obj_01': points must be finite" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out.json").exists()


class TestCandidate:
    def test_score_range(self):
        with pytest.raises(sio.InvariantError):
            _candidate(score=1.5)

    def test_depth_positive(self):
        with pytest.raises(sio.InvariantError):
            _candidate(z=-0.5)
        with pytest.raises(sio.InvariantError):
            _candidate(z=0.0)


class TestObservationsType:
    def test_counts(self):
        obs = _observations(4, 6)
        assert len(obs.views) == 4
        assert len(obs.candidates) == 24

    def test_duplicate_view_rejected(self):
        views = (
            sio.View(view_id="v0", intrinsics=_intrinsics()),
            sio.View(view_id="v0", intrinsics=_intrinsics()),
        )
        with pytest.raises(sio.SchemaError):
            sio.SceneObservations(views=views, candidates=())

    def test_unknown_view_rejected(self):
        views = (sio.View(view_id="v0", intrinsics=_intrinsics()),)
        with pytest.raises(sio.UnknownViewError):
            sio.SceneObservations(views=views, candidates=(_candidate(view_id="v9"),))

    def test_by_view_keeps_global_indices(self):
        obs = _observations(2, 3)
        groups = obs.by_view()
        assert [i for i, _ in groups["v1"]] == [3, 4, 5]


class TestModelsFile:
    def test_round_trip_exact(self, tmp_path):
        db = sio.ModelDB(
            models={
                "box": _model("box", seed=1),
                "cyl": _model("cyl", seed=2, symmetric=True),
            }
        )
        p = tmp_path / "models.json"
        sio.save_models(db, p)
        back = sio.load_models(p)
        assert sorted(back.models) == ["box", "cyl"]
        for label in db.models:
            a, b = db[label], back[label]
            assert np.array_equal(a.points, b.points)
            assert a.diameter == b.diameter
            assert len(a.symmetries.discrete) == len(b.symmetries.discrete)
            for pa, pb in zip(a.symmetries.discrete, b.symmetries.discrete):
                assert np.array_equal(pa.matrix, pb.matrix)
            for (ax_a, off_a), (ax_b, off_b) in zip(
                a.symmetries.continuous_axes, b.symmetries.continuous_axes
            ):
                assert np.array_equal(ax_a, ax_b)
                assert np.array_equal(off_a, off_b)

    def test_two_models(self, tmp_path):
        p = tmp_path / "models.json"
        sio.save_models(
            sio.ModelDB(models={"a": _model("a"), "b": _model("b", seed=5)}), p
        )
        assert len(sio.load_models(p)) == 2

    def test_duplicate_label_named(self, tmp_path):
        entry = {
            "label": "dup",
            "points": [0.0, 0, 0, 0.02, 0, 0, 0, 0.02, 0, 0, 0, 0.02],
            "diameter": 0.05,
        }
        p = tmp_path / "models.json"
        p.write_text(json.dumps({"models": [entry, entry]}))
        with pytest.raises(sio.SchemaError, match="dup"):
            sio.load_models(p)

    def test_zero_points_invariant(self, tmp_path):
        p = tmp_path / "models.json"
        p.write_text(json.dumps({"models": [{"label": "x", "points": [], "diameter": 0.1}]}))
        with pytest.raises(sio.InvariantError):
            sio.load_models(p)

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "models.json"
        p.write_text("{not json")
        with pytest.raises(sio.ParseError):
            sio.load_models(p)

    def test_top_level_not_object(self, tmp_path):
        p = tmp_path / "models.json"
        p.write_text("[1, 2]")
        with pytest.raises(sio.ParseError):
            sio.load_models(p)

    def test_missing_field(self, tmp_path):
        p = tmp_path / "models.json"
        p.write_text(json.dumps({"models": [{"label": "x", "points": [0, 0, 0]}]}))
        with pytest.raises(sio.SchemaError, match="diameter"):
            sio.load_models(p)


class TestObservationsFile:
    def test_round_trip_exact(self, tmp_path):
        obs = _observations()
        p = tmp_path / "obs.json"
        sio.save_observations(obs, p)
        back = sio.load_observations(p)
        assert len(back.views) == len(obs.views)
        assert len(back.candidates) == len(obs.candidates)
        for a, b in zip(obs.candidates, back.candidates):
            assert a.view_id == b.view_id
            assert a.label == b.label
            assert a.score == b.score
            assert np.array_equal(a.pose.matrix, b.pose.matrix)
        for a, b in zip(obs.views, back.views):
            assert a.view_id == b.view_id
            assert a.intrinsics == b.intrinsics

    def test_counts(self, tmp_path):
        p = tmp_path / "obs.json"
        sio.save_observations(_observations(4, 6), p)
        assert len(sio.load_observations(p).candidates) == 24

    def test_unknown_label_against_db(self, tmp_path):
        db = sio.ModelDB(models={"box": _model("box")})
        obs = _observations(1, 1)  # label "box"
        p = tmp_path / "obs.json"
        sio.save_observations(obs, p)
        sio.load_observations(p, db)  # fine
        bad = sio.SceneObservations(
            views=obs.views, candidates=(_candidate(label="ghost"),)
        )
        sio.save_observations(bad, p)
        with pytest.raises(sio.UnknownLabelError):
            sio.load_observations(p, db)

    def test_nonpositive_depth_rejected(self, tmp_path):
        p = tmp_path / "obs.json"
        doc = {
            "views": [
                {
                    "view_id": "v0",
                    "intrinsics": {
                        "fx": 600, "fy": 600, "cx": 320, "cy": 240,
                        "width": 640, "height": 480,
                    },
                }
            ],
            "candidates": [
                {
                    "view_id": "v0",
                    "label": "box",
                    "score": 0.5,
                    "pose": [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, -1.0, 0, 0, 0, 1],
                }
            ],
        }
        p.write_text(json.dumps(doc))
        with pytest.raises(sio.InvariantError):
            sio.load_observations(p)

    def test_bad_bottom_row(self, tmp_path):
        p = tmp_path / "obs.json"
        doc = {
            "views": [
                {
                    "view_id": "v0",
                    "intrinsics": {
                        "fx": 600, "fy": 600, "cx": 320, "cy": 240,
                        "width": 640, "height": 480,
                    },
                }
            ],
            "candidates": [
                {
                    "view_id": "v0",
                    "label": "box",
                    "score": 0.5,
                    "pose": [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1.0, 0, 0, 0.5, 1],
                }
            ],
        }
        p.write_text(json.dumps(doc))
        with pytest.raises(sio.SchemaError):
            sio.load_observations(p)


_RIGID = [0.0, -1.0, 0.0, 0.1, 1.0, 0.0, 0.0, 0.2, 0.0, 0.0, 1.0, 1.0, 0, 0, 0, 1]


def _bad_poses():
    nan = list(_RIGID)
    nan[1] = math.nan
    inf = list(_RIGID)
    inf[3] = math.inf
    scaled = [1.5 * v if k % 4 < 3 and k < 12 else v for k, v in enumerate(_RIGID)]
    reflected = list(_RIGID)
    reflected[10] = -1.0
    return {"nan": nan, "inf": inf, "scaled": scaled, "reflected": reflected}


class TestPoseFromList:
    def test_rigid_pose_loads_bit_exactly(self):
        pose = sio.pose_from_list(_RIGID, "here")
        assert np.array_equal(pose.matrix.reshape(-1), np.array(_RIGID, float))

    @pytest.mark.parametrize("kind", sorted(_bad_poses()))
    def test_non_finite_or_non_rigid_rejected(self, kind):
        with pytest.raises(sio.SchemaError, match="^somewhere: pose"):
            sio.pose_from_list(_bad_poses()[kind], "somewhere")

    @pytest.mark.parametrize("kind", sorted(_bad_poses()))
    def test_every_load_site_rejects(self, tmp_path, kind):
        bad = _bad_poses()[kind]
        db = sio.ModelDB({"box": _model()})

        models = tmp_path / "models.json"
        sio.save_models(db, models)
        doc = json.loads(models.read_text())
        doc["models"][0]["symmetries"]["discrete"].append(bad)
        models.write_text(json.dumps(doc))
        with pytest.raises(sio.SchemaError, match=r"discrete\[1\]"):
            sio.load_models(models)

        obs = tmp_path / "obs.json"
        sio.save_observations(_observations(2, 2), obs)
        doc = json.loads(obs.read_text())
        doc["candidates"][3]["pose"] = bad
        obs.write_text(json.dumps(doc))
        with pytest.raises(sio.SchemaError, match=r"candidates\[3\]"):
            sio.load_observations(obs)

        est = tmp_path / "estimate.json"
        sio.save_estimate(sio.SceneEstimate(
            cameras=(sio.EstimatedCamera("v0", Pose.identity()),), objects=()), est)
        doc = json.loads(est.read_text())
        doc["cameras"][0]["pose_world"] = bad
        est.write_text(json.dumps(doc))
        with pytest.raises(sio.SchemaError, match=r"cameras\[0\]"):
            sio.load_estimate(est)


class TestEstimateFile:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(44)
        est = sio.SceneEstimate(
            cameras=tuple(
                sio.EstimatedCamera(
                    view_id=f"v{i}", pose_world=Pose(oracles.random_pose_matrix(rng))
                )
                for i in range(3)
            ),
            objects=(
                sio.EstimatedObject(
                    object_id="obj_000",
                    label="box",
                    pose_world=Pose(oracles.random_pose_matrix(rng)),
                    score=1.7,
                    members=(("v0", 0), ("v1", 2)),
                ),
            ),
            config={"inlier_threshold": 0.02},
            stats={"n_edges": 5},
        )
        p = tmp_path / "estimate.json"
        sio.save_estimate(est, p)
        back = sio.load_estimate(p)
        assert back.config == est.config
        assert back.stats == est.stats
        assert back.objects[0].members == est.objects[0].members
        assert back.objects[0].score == est.objects[0].score
        for a, b in zip(est.cameras, back.cameras):
            assert a.view_id == b.view_id
            assert np.array_equal(a.pose_world.matrix, b.pose_world.matrix)
        assert np.array_equal(
            est.objects[0].pose_world.matrix, back.objects[0].pose_world.matrix
        )

    def test_deterministic_bytes(self, tmp_path):
        est = sio.SceneEstimate(
            cameras=(sio.EstimatedCamera(view_id="v0", pose_world=Pose.identity()),),
            objects=(),
            config={"b": 1, "a": 2},
        )
        p1, p2 = tmp_path / "e1.json", tmp_path / "e2.json"
        sio.save_estimate(est, p1)
        sio.save_estimate(est, p2)
        assert p1.read_bytes() == p2.read_bytes()


def test_simulated_files_round_trip_to_their_bytes(tmp_path):
    # Saving what was loaded gives each of the four formats' file back,
    # byte for byte: one scene with a symmetric label and outliers, and its
    # estimate.
    models, obs, gt = simulate(
        tmp_path, "--n-objects", "4", "--n-views", "3", "--symmetric-labels",
        "obj_00", "--rot-sigma-deg", "2", "--trans-sigma", "0.005",
        "--outlier-prob", "0.3")
    est = tmp_path / "estimate.json"
    assert solve(models, obs, est) == 0
    db = sio.load_models(models)
    out = tmp_path / "saved"
    out.mkdir()
    sio.save_models(db, out / models.name)
    sio.save_observations(sio.load_observations(obs, db), out / obs.name)
    sio.save_ground_truth(*sio.load_ground_truth(gt, db), out / gt.name)
    sio.save_estimate(sio.load_estimate(est), out / est.name)
    for path in (models, obs, gt, est):
        assert (out / path.name).read_bytes() == path.read_bytes(), path.name


class TestTypedReaders:
    # The readers accept only the JSON types the writers emit, as `cosy
    # report` does: numbers are int or float but not bool, integers are
    # ints, and nothing is parsed from a string or truncated.
    @pytest.mark.parametrize("value", [0, -3, 0.5, math.nan, 10 ** 30])
    def test_number_accepts_ints_and_floats(self, value):
        got = sio._number(value, "f: x")
        assert type(got) is float and (got == float(value) or math.isnan(value))

    @pytest.mark.parametrize("value", [True, False, "0.5", "7", None, [1.0], {}])
    def test_number_rejects_other_types(self, value):
        with pytest.raises(sio.SchemaError, match=r"^f: x: must be a number"):
            sio._number(value, "f: x")

    def test_integer_accepts_ints_only(self):
        assert sio._integer(7, "f: i") == 7
        for value in (1.5, 1.0, True, "7", None):
            with pytest.raises(sio.SchemaError, match=r"^f: i: must be an integer"):
                sio._integer(value, "f: i")

    @pytest.mark.parametrize("bad", [True, "1.0", None, [0.0]])
    def test_numbers_reject_any_non_number_element(self, bad):
        # numpy would read [1.0, True] as float64 [1.0, 1.0].
        with pytest.raises(sio.SchemaError, match=r"^f: p\[2\]: must be a number"):
            sio._numbers([1.0, 0, bad, 2.0], "f: p")
        with pytest.raises(sio.SchemaError, match=r"^f: p: must be a list"):
            sio._numbers("1.0", "f: p")

    @pytest.mark.parametrize("text", [b'{"a": ' + b"9" * 5000 + b"}", b'{"a": "\xff"}'],
                             ids=["integer-too-long", "not-utf-8"])
    def test_undecodable_json_is_a_parse_error_naming_the_file(self, tmp_path, text):
        p = tmp_path / "models.json"
        p.write_bytes(text)
        with pytest.raises(sio.ParseError, match=f"^{re.escape(str(p))}: "):
            sio.load_models(p)

    def test_integers_beyond_the_float_range_are_a_schema_error(self, tmp_path):
        with pytest.raises(sio.SchemaError, match="beyond the float range"):
            sio._number(10 ** 400, "f: x")
        with pytest.raises(sio.SchemaError, match=r"^f: p: number beyond"):
            sio._numbers([0.0, 10 ** 400], "f: p")
        p = tmp_path / "obs.json"
        sio.save_observations(_observations(2, 2), p)
        doc = json.loads(p.read_text())
        doc["candidates"][1]["score"] = 10 ** 400
        p.write_text(json.dumps(doc))
        with pytest.raises(sio.SchemaError, match=r"candidates\[1\]\.score: number"):
            sio.load_observations(p)
