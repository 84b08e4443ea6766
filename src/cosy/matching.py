"""Cross-view candidate matching.

Stage 2 of the pipeline: given per-view object candidates, hypothesize
relative camera poses from pairs of candidate pairs (two-view RANSAC),
validate them by counting symmetry-aware inliers, and cluster the
surviving cross-view matches into physical objects (connected components
of the match graph).

All candidate references are global indices into
``SceneObservations.candidates`` so that pairs remain meaningful outside
any particular per-view slicing.
"""

from __future__ import annotations

import hashlib
import itertools
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .geometry import Pose, apply_matrices, apply_matrix
from .numeric import _PAIRWISE_CHUNK, first_of_near, point_norms
from .scene_io import ModelDB, ObjectModel, SceneObservations
from .symmetry import (
    DEFAULT_ANGLES_PER_AXIS,
    GroupTooLargeError,
    SymmetryGroup,
    discretize,
    symmetric_distance,
)

DEFAULT_INLIER_THRESHOLD = 0.02  # meters
DEFAULT_MAX_ITERATIONS = 2000
DEFAULT_MIN_INLIERS = 3

# Slack added to a centroid lower bound before it may skip an exact
# symmetric distance. Float64 rounding on metre-scale coordinates is around
# 1e-15 m, so a computed bound never exceeds the true distance by this much
# and pruning cannot drop a true inlier or a true argmin.
BOUND_MARGIN = 1e-9  # meters

# Centroid images closer than this to an earlier one are dropped from the
# hypothesis bounds (an axis through the centroid maps it to G copies that
# differ in rounding only). The minimum over the rest exceeds the full
# minimum by at most this much, far inside BOUND_MARGIN.
IMAGE_MERGE_TOL = 1e-12  # meters


class DegeneratePairsError(ValueError):
    """The two generating pairs share a candidate and span no relative pose."""


@dataclass(frozen=True, order=True)
class CandidatePair:
    """A tentative cross-view match: candidate `a` in one view, `b` in another.

    Both fields are global candidate indices. Valid pairs reference
    candidates with equal labels in distinct views; that is enforced where
    pairs are built (the dataclass itself has no access to observations).
    """

    a: int
    b: int


@dataclass(frozen=True)
class TwoViewHypothesis:
    """An accepted relative camera pose between two views.

    relative_pose maps view-b camera coordinates into view-a camera
    coordinates. total_distance is the sum of inlier symmetric distances,
    kept for deterministic tie-breaking and diagnostics.
    """

    view_a: str
    view_b: str
    relative_pose: Pose
    inliers: tuple[CandidatePair, ...]
    generating_pairs: tuple[CandidatePair, CandidatePair]
    total_distance: float

    def __post_init__(self):
        seen_a = {p.a for p in self.inliers}
        seen_b = {p.b for p in self.inliers}
        if len(seen_a) != len(self.inliers) or len(seen_b) != len(self.inliers):
            raise ValueError("inlier pairs must be one-to-one")


@dataclass(frozen=True)
class MatchParams:
    inlier_threshold: float = DEFAULT_INLIER_THRESHOLD
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    min_inliers: int = DEFAULT_MIN_INLIERS
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.inlier_threshold) and self.inlier_threshold > 0):
            raise ValueError(
                f"inlier_threshold must be finite and > 0, got {self.inlier_threshold}"
            )
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.min_inliers < 3:
            raise ValueError(f"min_inliers must be >= 3, got {self.min_inliers}")


@dataclass(frozen=True)
class MatchGraph:
    """Union of accepted inlier pairs over all view pairs.

    Vertices are all candidate indices; `edges` connect equal-label
    candidates in distinct views. `hypotheses` keeps the accepted relative
    pose per (view_a, view_b) key (lexicographic order) for downstream
    camera initialization.
    """

    observations: SceneObservations
    edges: tuple[CandidatePair, ...]
    hypotheses: dict[tuple[str, str], TwoViewHypothesis] = field(default_factory=dict)


@dataclass(frozen=True)
class PhysicalObject:
    """One recovered scene object: a single-label connected component."""

    id: int
    label: str
    members: tuple[tuple[str, int], ...]  # (view_id, candidate index)

    def __post_init__(self):
        if len(self.members) < 2:
            raise ValueError("a physical object needs >= 2 member candidates")
        views = [v for v, _ in self.members]
        if len(set(views)) != len(views):
            raise ValueError("at most one member per view")


@dataclass(frozen=True, eq=False)
class LabelGeometry:
    """One label's model, discretized symmetry group and symmetry images.

    A solve builds one per candidate label (`label_geometry`), and both
    matching's symmetric distances and refinement's reprojection loss read
    it. For rigid A, B and any group element S, the mean of the norms is at
    least the norm of the mean:

        mean_x ||A S x - B x|| >= ||A S c - B c||,   c = mean_x x

    so min_S ||A S c - B c|| is a lower bound on symmetric_distance.
    """

    model: ObjectModel
    group: SymmetryGroup
    sym_points: np.ndarray  # (G, M, 3): S x, read-only
    centroid: np.ndarray  # (3,)
    # (D, 3): the images S c of the group elements, in group order, less
    # those within IMAGE_MERGE_TOL of an earlier one
    distinct: np.ndarray


def label_geometry(
    db: ModelDB, labels, angles_per_axis: int = DEFAULT_ANGLES_PER_AXIS
) -> dict[str, LabelGeometry]:
    """The LabelGeometry of each distinct label, its symmetries discretized
    with `angles_per_axis` rotations per continuous axis.

    Raises GroupTooLargeError naming the label whose group exceeds the cap.
    """
    geometry = {}
    for label in sorted(set(labels)):
        model = db[label]
        try:
            group = discretize(model.symmetries, angles_per_axis)
        except GroupTooLargeError as exc:
            raise GroupTooLargeError(f"label {label!r}: {exc}") from None
        c = np.mean(model.points, axis=0)
        sym_points = apply_matrices(group.matrices, model.points)
        distinct = _distinct_rows(
            apply_matrices(group.matrices, c).reshape(len(group), 3)
        )
        sym_points.setflags(write=False)
        geometry[label] = LabelGeometry(
            model=model, group=group, sym_points=sym_points, centroid=c,
            distinct=distinct,
        )
    return geometry


def _distinct_rows(points: np.ndarray) -> np.ndarray:
    """Rows of (G, 3) `points`, less each within IMAGE_MERGE_TOL of an
    earlier kept row.

    point_norms of p_j - p_k and of p_k - p_j agree bit for bit, so
    `first_of_near`'s blocked table decides each pair as a sequential scan
    does.
    """

    def near(start: int, stop: int) -> np.ndarray:
        d = point_norms(points[start:stop, None] - points[None, :stop])
        return ~(d > IMAGE_MERGE_TOL)

    return points[first_of_near(len(points), near, _PAIRWISE_CHUNK)]


def relative_pose_from_pairs(
    pair1: CandidatePair,
    pair2: CandidatePair,
    obs: SceneObservations,
    geometry: dict[str, LabelGeometry],
) -> Pose:
    """Relative camera pose hypothesized from two candidate pairs.

    The first pair anchors the transform: for each discretized symmetry S
    of its label, T_ab = T_a1 * S * T_b1^-1 is a candidate relative pose
    (a symmetric object constrains the cameras only up to S). The returned
    pose is the one whose induced alignment of the second pair has the
    smallest symmetric distance; ties keep the earliest group element.

    Group elements are visited in ascending order of the centroid lower
    bound on that distance, and the scan stops once the bound exceeds the
    best distance found; the result equals a full scan's.
    """
    if pair1.a == pair2.a or pair1.b == pair2.b:
        raise DegeneratePairsError(f"pairs {pair1} and {pair2} share a candidate")
    c_a1, c_b1 = obs.candidates[pair1.a], obs.candidates[pair1.b]
    c_a2, c_b2 = obs.candidates[pair2.a], obs.candidates[pair2.b]
    if c_a1.label != c_b1.label or c_a2.label != c_b2.label:
        raise ValueError("labels must agree within each pair")
    if c_a1.view_id != c_a2.view_id or c_b1.view_id != c_b2.view_id:
        raise ValueError("both pairs must span the same two views")
    if c_a1.view_id == c_b1.view_id:
        raise ValueError("a pair must connect two distinct views")

    entry1 = geometry[c_a1.label]
    entry2 = geometry[c_a2.label]
    matrices = entry1.group.matrices

    t_b1_inv = c_b1.pose.inverse()
    if len(matrices) == 1:
        return Pose(c_a1.pose.matrix @ matrices[0] @ t_b1_inv.matrix)

    # Under element S the second model's centroid lands at T_a1 S q in view
    # a, with q = T_b1^-1 T_b2 c; compare with its distinct images T_a2 S2 c
    # there.
    q = apply_matrix(t_b1_inv.compose(c_b2.pose).matrix, entry2.centroid)
    moved = apply_matrix(c_a1.pose.matrix, apply_matrices(matrices, q).reshape(-1, 3))
    fixed = apply_matrix(c_a2.pose.matrix, entry2.distinct)
    bounds = np.min(point_norms(moved[:, None, :] - fixed[None, :, :]), axis=1)

    points2 = entry2.model.points
    best_k = -1
    best_pose = None
    best_d = np.inf
    for k in np.argsort(bounds, kind="stable").tolist():
        if bounds[k] > best_d + BOUND_MARGIN:
            break
        t_ab = Pose(c_a1.pose.matrix @ matrices[k] @ t_b1_inv.matrix)
        d = symmetric_distance(
            points2, entry2.sym_points, c_a2.pose, t_ab.compose(c_b2.pose)
        )
        if best_pose is None or d < best_d or (d == best_d and k < best_k):
            best_k, best_d, best_pose = k, d, t_ab
    return best_pose


def _incidence(ids: list[int]) -> np.ndarray:
    """(len(ids), distinct ids) mask whose row r marks the column of ids[r]."""
    columns = np.array(sorted(set(ids)), dtype=np.intp)
    return np.array(ids, dtype=np.intp)[:, None] == columns


class _PairBounds:
    """Centroid lower bounds for one view pair's label-consistent pairs.

    Built once per view pair; every hypothesis then costs one transform of
    the view-b centroids and one small bound matrix. Row k belongs to
    `pairs[k]`, the lexicographic order of `_candidate_pairs`.
    """

    def __init__(
        self, candidates_a, candidates_b, geometry: dict[str, LabelGeometry]
    ):
        self.pairs = _candidate_pairs(candidates_a, candidates_b)
        self.candidates = dict(candidates_a) | dict(candidates_b)
        # T_bj c per view-b candidate, and the row of each pair's b side.
        self.b_centroids = np.array(
            [apply_matrix(cb.pose.matrix, geometry[cb.label].centroid)[0]
             for _, cb in candidates_b]
        ).reshape(-1, 3)
        row_of = {j: r for r, (j, _) in enumerate(candidates_b)}
        self.b_rows = np.array([row_of[p.b] for p in self.pairs], dtype=np.intp)
        # (pairs, distinct sides) incidence: hits @ incidence marks the
        # candidates a set of pairs touches on each side.
        self.a_incidence = _incidence([p.a for p in self.pairs])
        self.b_incidence = _incidence([p.b for p in self.pairs])
        # T_ai S c for the distinct images S c of each pair's label, pair
        # after pair: rows starts[r]:starts[r + 1] belong to pairs[r].
        a_images = {
            i: apply_matrix(ca.pose.matrix, geometry[ca.label].distinct)
            for i, ca in candidates_a
        }
        images = [a_images[p.a] for p in self.pairs]
        sizes = [len(img) for img in images]
        self.a_images = np.concatenate(images) if images else np.zeros((0, 3))
        self.starts = np.cumsum([0] + sizes[:-1], dtype=np.intp)
        self.image_b_rows = np.repeat(self.b_rows, sizes)

    def bounds(self, t_ab: Pose) -> np.ndarray:
        """Lower bound on each pair's symmetric distance under `t_ab`."""
        if not self.pairs:
            return np.zeros(0)
        moved = apply_matrix(t_ab.matrix, self.b_centroids)[self.image_b_rows]
        return np.minimum.reduceat(point_norms(self.a_images - moved), self.starts)

    def inlier_bounds(self, hit: np.ndarray) -> np.ndarray:
        """Per row of a (g, P) pair mask, the fewer of the distinct view-a
        and view-b candidates its pairs touch: an upper bound on the
        one-to-one inliers among them."""
        return np.minimum(np.count_nonzero(hit @ self.a_incidence, axis=1),
                          np.count_nonzero(hit @ self.b_incidence, axis=1))

    def anchor_bound(
        self, k: int, geometry: dict[str, LabelGeometry], threshold: float
    ) -> int:
        """Max of `inlier_bounds` over the poses T_a S T_b^-1, (a, b) = pairs[k].

        S ranges over the group of the pair's label. The element poses come
        from one stacked product, so their last bits may differ from
        `relative_pose_from_pairs`; the hit test's BOUND_MARGIN covers that.
        Elements are taken in blocks of at most _PAIRWISE_CHUNK bound entries.
        """
        pair = self.pairs[k]
        ca, cb = self.candidates[pair.a], self.candidates[pair.b]
        group = geometry[ca.label].group
        mats = ca.pose.matrix @ group.matrices @ cb.pose.inverse().matrix
        most = min(self.a_incidence.shape[1], self.b_incidence.shape[1])
        step = max(1, _PAIRWISE_CHUNK // len(self.a_images))
        best = 0
        for start in range(0, len(mats), step):
            moved = apply_matrices(mats[start : start + step], self.b_centroids)
            dist = point_norms(self.a_images - moved[:, self.image_b_rows])
            bounds = np.minimum.reduceat(dist, self.starts, axis=1)  # (g, P)
            hit = bounds < threshold + BOUND_MARGIN
            best = max(best, int(np.max(self.inlier_bounds(hit))))
            if best == most:
                break
        return best


def _inlier_matches(
    t_ab: Pose,
    pair_bounds: _PairBounds,
    geometry: dict[str, LabelGeometry],
    threshold: float,
    need: int = 0,
) -> list[tuple[float, CandidatePair]] | None:
    """Greedy one-to-one matching by ascending symmetric distance.

    Only pairs whose centroid bound is below threshold + BOUND_MARGIN get an
    exact distance; the others cannot reach the threshold. Returns
    (distance, pair) in acceptance order, or None without any exact
    distance when those pairs hold fewer than `need` one-to-one matches.
    """
    scored = []
    hit = pair_bounds.bounds(t_ab) < threshold + BOUND_MARGIN
    if pair_bounds.inlier_bounds(hit[None])[0] < need:
        return None
    for k in np.flatnonzero(hit).tolist():
        pair = pair_bounds.pairs[k]
        ca = pair_bounds.candidates[pair.a]
        cb = pair_bounds.candidates[pair.b]
        entry = geometry[ca.label]
        d = symmetric_distance(
            entry.model.points, entry.sym_points, ca.pose, t_ab.compose(cb.pose)
        )
        if d < threshold:
            scored.append((d, pair.a, pair.b))
    scored.sort()
    used_a: set[int] = set()
    used_b: set[int] = set()
    out = []
    for d, i, j in scored:
        if i in used_a or j in used_b:
            continue
        used_a.add(i)
        used_b.add(j)
        out.append((d, CandidatePair(i, j)))
    return out


def count_inliers(
    t_ab: Pose,
    candidates_a,
    candidates_b,
    geometry: dict[str, LabelGeometry],
    threshold: float,
) -> list[CandidatePair]:
    """Inlier candidate pairs under a hypothesized view-b -> view-a pose.

    A pair qualifies when the symmetric distance between the view-a pose
    and the transported view-b pose is strictly below `threshold`; each
    candidate is used at most once (closest pairs win).
    """
    if not threshold > 0:
        raise ValueError("threshold must be > 0")
    pair_bounds = _PairBounds(candidates_a, candidates_b, geometry)
    return [pair for _, pair in _inlier_matches(
        t_ab, pair_bounds, geometry, threshold)]


def _pair_rng(seed: int, view_a: str, view_b: str) -> np.random.Generator:
    """Generator derived from (seed, view pair); stable across processes.

    Independent per-pair streams make each pair's result independent of the
    pairs solved before it.
    The view ids are length-prefixed, so ids containing ':' cannot make two
    pairs share a key.
    """
    key = f"{seed}:{len(view_a)}:{view_a}:{len(view_b)}:{view_b}"
    digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
    return np.random.default_rng(int.from_bytes(digest, "big"))


def _candidate_pairs(cands_a, cands_b) -> list[CandidatePair]:
    """All label-consistent cross-view pairs, lexicographic by index."""
    return [
        CandidatePair(i, j)
        for i, ca in cands_a
        for j, cb in cands_b
        if ca.label == cb.label
    ]


def _valid_combo_count(pairs: list[CandidatePair]) -> int:
    # Unordered pair-of-pairs sharing no candidate on either side. Two
    # distinct pairs cannot share both endpoints, so inclusion-exclusion
    # has no overlap term.
    n = len(pairs)
    total = n * (n - 1) // 2
    deg_a = Counter(p.a for p in pairs)
    deg_b = Counter(p.b for p in pairs)
    shared = sum(d * (d - 1) // 2 for d in deg_a.values())
    shared += sum(d * (d - 1) // 2 for d in deg_b.values())
    return total - shared


def hypothesis_combos(
    pairs: list[CandidatePair],
    max_iterations: int,
    rng_factory,
) -> list[tuple[int, int]]:
    """Indices (k1 < k2) into `pairs` of the hypotheses RANSAC will try.

    Combos whose two pairs share a candidate on either side are skipped.
    If at most `max_iterations` valid combos exist, all are enumerated in
    lexicographic order; otherwise `max_iterations` distinct valid combos
    are drawn uniformly from the generator `rng_factory()` (only called on
    this branch, so the exhaustive path never consumes randomness).
    """
    n = len(pairs)

    def is_valid(k1: int, k2: int) -> bool:
        return pairs[k1].a != pairs[k2].a and pairs[k1].b != pairs[k2].b

    n_valid = _valid_combo_count(pairs)
    if n_valid <= max_iterations:
        return [
            (k1, k2)
            for k1, k2 in itertools.combinations(range(n), 2)
            if is_valid(k1, k2)
        ]
    rng = rng_factory()
    combos: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    attempts = 0
    cap = 50 * max_iterations + 1000
    while len(combos) < max_iterations and attempts < cap:
        attempts += 1
        k1 = int(rng.integers(n))
        k2 = int(rng.integers(n))
        if k1 == k2:
            continue
        if k1 > k2:
            k1, k2 = k2, k1
        if (k1, k2) in seen or not is_valid(k1, k2):
            continue
        seen.add((k1, k2))
        combos.append((k1, k2))
    return combos


def two_view_ransac(
    view_a: str,
    view_b: str,
    obs: SceneObservations,
    geometry: dict[str, LabelGeometry],
    params: MatchParams = MatchParams(),
) -> TwoViewHypothesis | None:
    """Best-supported relative pose between two views, or None.

    Hypotheses are generated from unordered pairs of label-consistent
    candidate pairs that share no candidate: exhaustively in lexicographic
    order when at most `max_iterations` exist, otherwise by uniform
    sampling without replacement from a generator seeded per view pair.
    The winner maximizes inlier count, then minimizes total inlier
    distance, then takes the lexicographically smallest generating pairs.

    Three exact skips leave the winner and its bytes unchanged. Let `need`
    be the larger of `min_inliers` and the best inlier count so far.
    1. A relative pose is scored once per call, keyed by its matrix bytes:
       its matches depend on nothing else.
    2. A pose whose centroid-bound hits touch fewer than `need` distinct
       candidates on one side gets no exact distance (`_inlier_matches`).
    3. A hypothesis is skipped before its pose is computed when its first
       pair's bound, the maximum of 2 over every element pose
       T_a1 S T_b1^-1, is below `need` (`_PairBounds.anchor_bound`).
    Both bounds are upper bounds on the inlier count, and `need` never
    decreases, so a skipped hypothesis would have had fewer inliers than
    the best and lost on the first key. A bound equal to `need` is not
    skipped: its hypothesis may tie the best count and win on distance.
    """
    by_view = obs.by_view()
    cands_a = by_view.get(view_a, [])
    cands_b = by_view.get(view_b, [])
    if not cands_a or not cands_b:
        return None

    pair_bounds = _PairBounds(cands_a, cands_b, geometry)
    pairs = pair_bounds.pairs
    if len(pairs) < 2:
        return None
    combos = hypothesis_combos(
        pairs,
        params.max_iterations,
        lambda: _pair_rng(params.seed, view_a, view_b),
    )

    threshold = params.inlier_threshold
    anchor_bounds: dict[int, int] = {}
    scored: dict[bytes, list | None] = {}
    best_key = None
    best: TwoViewHypothesis | None = None
    for k1, k2 in combos:
        need = params.min_inliers if best is None else len(best.inliers)
        if k1 not in anchor_bounds:
            anchor_bounds[k1] = pair_bounds.anchor_bound(k1, geometry, threshold)
        if anchor_bounds[k1] < need:
            continue
        p1, p2 = pairs[k1], pairs[k2]
        t_ab = relative_pose_from_pairs(p1, p2, obs, geometry)
        pose_key = t_ab.matrix.tobytes()
        if pose_key not in scored:
            scored[pose_key] = _inlier_matches(
                t_ab, pair_bounds, geometry, threshold, need
            )
        matches = scored[pose_key]
        if matches is None or len(matches) < params.min_inliers:
            continue
        total = float(sum(d for d, _ in matches))
        key = (-len(matches), total, (p1.a, p1.b, p2.a, p2.b))
        if best_key is None or key < best_key:
            best_key = key
            best = TwoViewHypothesis(
                view_a=view_a,
                view_b=view_b,
                relative_pose=t_ab,
                inliers=tuple(pair for _, pair in matches),
                generating_pairs=(p1, p2),
                total_distance=total,
            )
    return best


def build_match_graph(
    obs: SceneObservations,
    geometry: dict[str, LabelGeometry],
    params: MatchParams = MatchParams(),
) -> MatchGraph:
    """Run two-view RANSAC on every unordered view pair and union the inliers.

    View pairs are processed in lexicographic view-id order, in the calling
    thread: each pair is a few ms of small numpy calls that hold the GIL, so
    a thread pool only adds overhead. Per-pair RANSAC draws from its own
    derived generator. `geometry` holds every candidate label
    (`label_geometry`).
    """
    view_ids = sorted(v.view_id for v in obs.views)
    if len(view_ids) < 2:
        raise ValueError("matching needs at least two views")
    hypotheses = {}
    for va, vb in itertools.combinations(view_ids, 2):
        hyp = two_view_ransac(va, vb, obs, geometry, params)
        if hyp is not None:
            hypotheses[(va, vb)] = hyp
    edges = tuple(
        pair for vp in sorted(hypotheses) for pair in hypotheses[vp].inliers
    )
    return MatchGraph(observations=obs, edges=edges, hypotheses=hypotheses)


class _UnionFind:
    def __init__(self, items):
        self.parent = {i: i for i in items}

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:  # path compression
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            # smaller root wins: keeps component representatives stable
            if rj < ri:
                ri, rj = rj, ri
            self.parent[rj] = ri


def extract_physical_objects(graph: MatchGraph) -> list[PhysicalObject]:
    """Connected components of the match graph, one physical object each.

    Isolated candidates are dropped. If a component holds several
    candidates from one view, the highest-scoring one stays (ties keep the
    lowest index). Objects are numbered in (label, first member) order.
    """
    obs = graph.observations
    vertices = sorted({p.a for p in graph.edges} | {p.b for p in graph.edges})
    uf = _UnionFind(vertices)
    for pair in graph.edges:
        uf.union(pair.a, pair.b)

    components: dict[int, list[int]] = {}
    for v in vertices:
        components.setdefault(uf.find(v), []).append(v)

    resolved = []
    for root in sorted(components):
        members = sorted(components[root])
        label = obs.candidates[members[0]].label
        if any(obs.candidates[m].label != label for m in members):
            raise AssertionError("match graph edges must be label-pure")
        best_in_view: dict[str, int] = {}
        for m in members:
            c = obs.candidates[m]
            cur = best_in_view.get(c.view_id)
            if cur is None or c.score > obs.candidates[cur].score:
                best_in_view[c.view_id] = m
        kept = sorted(best_in_view.values())
        resolved.append((label, kept))

    resolved.sort(key=lambda item: (item[0], item[1][0]))
    return [
        PhysicalObject(
            id=n,
            label=label,
            members=tuple((obs.candidates[m].view_id, m) for m in kept),
        )
        for n, (label, kept) in enumerate(resolved)
    ]
