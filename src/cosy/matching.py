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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .geometry import Pose, apply_matrices, apply_matrix
from .numeric import point_norms
from .scene_io import ModelDB, SceneObservations
from .symmetry import SymmetryGroup, discretize, symmetric_distance

DEFAULT_INLIER_THRESHOLD = 0.02  # meters
DEFAULT_MAX_ITERATIONS = 2000
DEFAULT_MIN_INLIERS = 3
DEFAULT_SYMMETRY_ANGLES = 64

# Slack added to a centroid lower bound before it may skip an exact
# symmetric distance. Float64 rounding on metre-scale coordinates is around
# 1e-15 m, so a computed bound never exceeds the true distance by this much
# and pruning cannot drop a true inlier or a true argmin.
BOUND_MARGIN = 1e-9  # meters


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
    symmetry_angles: int = DEFAULT_SYMMETRY_ANGLES

    def __post_init__(self):
        if not self.inlier_threshold > 0:
            raise ValueError("inlier_threshold must be > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.min_inliers < 3:
            raise ValueError("min_inliers must be >= 3")
        if self.symmetry_angles < 1:
            raise ValueError("symmetry_angles must be >= 1")


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


def symmetry_groups(
    db: ModelDB, labels, angles_per_axis: int = DEFAULT_SYMMETRY_ANGLES
) -> dict[str, SymmetryGroup]:
    """Discretize each label's symmetries once; matching reuses them heavily."""
    return {
        label: discretize(db[label].symmetries, angles_per_axis)
        for label in sorted(set(labels))
    }


def _groups_for(obs: SceneObservations, db: ModelDB, angles: int, groups):
    if groups is not None:
        return groups
    return symmetry_groups(db, (c.label for c in obs.candidates), angles)


@dataclass(frozen=True, eq=False)
class LabelCentroid:
    """One label's symmetry group, its model points' and centroid's images.

    For rigid A, B and any group element S, the mean of the norms is at
    least the norm of the mean:

        mean_x ||A S x - B x|| >= ||A S c - B c||,   c = mean_x x

    so min_S ||A S c - B c|| is a lower bound on symmetric_distance.
    """

    group: SymmetryGroup
    centroid: np.ndarray  # (3,)
    images: np.ndarray  # (G, 3): S c for each group element, in group order
    sym_points: np.ndarray  # (G, M, 3): S x, as symmetric_distance builds it


def centroid_table(
    db: ModelDB, groups: dict[str, SymmetryGroup]
) -> dict[str, LabelCentroid]:
    """Per-label centroid data for every label in `groups`; built once per solve."""
    table = {}
    for label, group in groups.items():
        points = db[label].points
        c = np.mean(points, axis=0)
        images = apply_matrices(group.matrices, c).reshape(len(group), 3)
        sym_points = apply_matrices(group.matrices, points)
        sym_points.setflags(write=False)
        table[label] = LabelCentroid(
            group=group, centroid=c, images=images, sym_points=sym_points
        )
    return table


def _table_for(obs, db, angles: int, groups, table):
    if table is not None:
        return table
    return centroid_table(db, _groups_for(obs, db, angles, groups))


def relative_pose_from_pairs(
    pair1: CandidatePair,
    pair2: CandidatePair,
    obs: SceneObservations,
    db: ModelDB,
    *,
    angles_per_axis: int = DEFAULT_SYMMETRY_ANGLES,
    groups: dict[str, SymmetryGroup] | None = None,
    table: dict[str, LabelCentroid] | None = None,
) -> Pose:
    """Relative camera pose hypothesized from two candidate pairs.

    The first pair anchors the transform: for each discretized symmetry S
    of its label, T_ab = T_a1 * S * T_b1^-1 is a candidate relative pose
    (a symmetric object constrains the cameras only up to S). The returned
    pose is the one whose induced alignment of the second pair has the
    smallest symmetric distance; ties keep the earliest group element.

    Group elements are visited in ascending order of the centroid lower
    bound on that distance, and the scan stops once the bound exceeds the
    best distance found; the result equals a full scan's. `table` (from
    `centroid_table`) takes precedence over `groups`.
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

    table = _table_for(obs, db, angles_per_axis, groups, table)
    entry1 = table[c_a1.label]
    entry2 = table[c_a2.label]
    elements = entry1.group.elements

    t_b1_inv = c_b1.pose.inverse()
    if len(elements) == 1:
        return c_a1.pose.compose(elements[0]).compose(t_b1_inv)

    # Under element S the second model's centroid lands at T_a1 S q in view
    # a, with q = T_b1^-1 T_b2 c; compare with its images T_a2 S2 c there.
    q = apply_matrix(t_b1_inv.compose(c_b2.pose).matrix, entry2.centroid)
    moved = apply_matrix(
        c_a1.pose.matrix, apply_matrices(entry1.group.matrices, q).reshape(-1, 3)
    )
    fixed = apply_matrix(c_a2.pose.matrix, entry2.images)
    bounds = np.min(point_norms(moved[:, None, :] - fixed[None, :, :]), axis=1)

    points2 = db[c_a2.label].points
    best_k = -1
    best_pose = None
    best_d = np.inf
    for k in np.argsort(bounds, kind="stable").tolist():
        if bounds[k] > best_d + BOUND_MARGIN:
            break
        t_ab = c_a1.pose.compose(elements[k]).compose(t_b1_inv)
        d = symmetric_distance(
            points2,
            entry2.group,
            c_a2.pose,
            t_ab.compose(c_b2.pose),
            sym_points=entry2.sym_points,
        )
        if best_pose is None or d < best_d or (d == best_d and k < best_k):
            best_k, best_d, best_pose = k, d, t_ab
    return best_pose


class _PairBounds:
    """Centroid lower bounds for one view pair's label-consistent pairs.

    Built once per view pair; every hypothesis then costs one transform of
    the view-b centroids and one small bound matrix. Row k belongs to
    `pairs[k]`, the lexicographic order of `_candidate_pairs`.
    """

    def __init__(self, candidates_a, candidates_b, table: dict[str, LabelCentroid]):
        self.pairs = _candidate_pairs(candidates_a, candidates_b)
        self.candidates = dict(candidates_a) | dict(candidates_b)
        # T_bj c per view-b candidate, and the row of each pair's b side.
        self.b_centroids = np.array(
            [apply_matrix(cb.pose.matrix, table[cb.label].centroid)[0]
             for _, cb in candidates_b]
        ).reshape(-1, 3)
        row_of = {j: r for r, (j, _) in enumerate(candidates_b)}
        self.b_rows = np.array([row_of[p.b] for p in self.pairs], dtype=np.intp)
        # T_ai S c per pair; shorter groups repeat their last image, which
        # leaves the minimum over S unchanged.
        a_labels = [self.candidates[p.a].label for p in self.pairs]
        width = max((len(table[label].group) for label in a_labels), default=1)
        self.a_images = np.empty((len(self.pairs), width, 3))
        for r, p in enumerate(self.pairs):
            ca = self.candidates[p.a]
            img = apply_matrix(ca.pose.matrix, table[ca.label].images)
            self.a_images[r, : len(img)] = img
            self.a_images[r, len(img):] = img[-1]

    def bounds(self, t_ab: Pose) -> np.ndarray:
        """Lower bound on each pair's symmetric distance under `t_ab`."""
        moved = apply_matrix(t_ab.matrix, self.b_centroids)[self.b_rows]
        return np.min(point_norms(self.a_images - moved[:, None, :]), axis=1)


def _inlier_matches(
    t_ab: Pose,
    pair_bounds: _PairBounds,
    db: ModelDB,
    threshold: float,
    table: dict[str, LabelCentroid],
) -> list[tuple[float, CandidatePair]]:
    """Greedy one-to-one matching by ascending symmetric distance.

    Only pairs whose centroid bound is below threshold + BOUND_MARGIN get an
    exact distance; the others cannot reach the threshold. Returns
    (distance, pair) in acceptance order.
    """
    scored = []
    hits = np.flatnonzero(pair_bounds.bounds(t_ab) < threshold + BOUND_MARGIN)
    for k in hits.tolist():
        pair = pair_bounds.pairs[k]
        ca = pair_bounds.candidates[pair.a]
        cb = pair_bounds.candidates[pair.b]
        entry = table[ca.label]
        d = symmetric_distance(
            db[ca.label].points,
            entry.group,
            ca.pose,
            t_ab.compose(cb.pose),
            sym_points=entry.sym_points,
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
    db: ModelDB,
    threshold: float,
    *,
    angles_per_axis: int = DEFAULT_SYMMETRY_ANGLES,
    groups: dict[str, SymmetryGroup] | None = None,
) -> list[CandidatePair]:
    """Inlier candidate pairs under a hypothesized view-b -> view-a pose.

    A pair qualifies when the symmetric distance between the view-a pose
    and the transported view-b pose is strictly below `threshold`; each
    candidate is used at most once (closest pairs win).
    """
    if not threshold > 0:
        raise ValueError("threshold must be > 0")
    if groups is None:
        labels = [c.label for _, c in candidates_a] + [c.label for _, c in candidates_b]
        groups = symmetry_groups(db, labels, angles_per_axis)
    table = centroid_table(db, groups)
    pair_bounds = _PairBounds(candidates_a, candidates_b, table)
    return [pair for _, pair in _inlier_matches(
        t_ab, pair_bounds, db, threshold, table)]


def _pair_rng(seed: int, view_a: str, view_b: str) -> np.random.Generator:
    """Generator derived from (seed, view pair); stable across processes.

    Independent per-pair streams keep serial and threaded runs bit-identical.
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
    db: ModelDB,
    params: MatchParams = MatchParams(),
    *,
    groups: dict[str, SymmetryGroup] | None = None,
    table: dict[str, LabelCentroid] | None = None,
) -> TwoViewHypothesis | None:
    """Best-supported relative pose between two views, or None.

    Hypotheses are generated from unordered pairs of label-consistent
    candidate pairs that share no candidate: exhaustively in lexicographic
    order when at most `max_iterations` exist, otherwise by uniform
    sampling without replacement from a generator seeded per view pair.
    The winner maximizes inlier count, then minimizes total inlier
    distance, then takes the lexicographically smallest generating pairs.
    `table` (from `centroid_table`) takes precedence over `groups`.
    """
    by_view = obs.by_view()
    cands_a = by_view.get(view_a, [])
    cands_b = by_view.get(view_b, [])
    if not cands_a or not cands_b:
        return None
    table = _table_for(obs, db, params.symmetry_angles, groups, table)

    pair_bounds = _PairBounds(cands_a, cands_b, table)
    pairs = pair_bounds.pairs
    if len(pairs) < 2:
        return None
    combos = hypothesis_combos(
        pairs,
        params.max_iterations,
        lambda: _pair_rng(params.seed, view_a, view_b),
    )

    best_key = None
    best: TwoViewHypothesis | None = None
    for k1, k2 in combos:
        p1, p2 = pairs[k1], pairs[k2]
        t_ab = relative_pose_from_pairs(p1, p2, obs, db, table=table)
        matches = _inlier_matches(
            t_ab, pair_bounds, db, params.inlier_threshold, table
        )
        if len(matches) < params.min_inliers:
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
    db: ModelDB,
    params: MatchParams = MatchParams(),
    *,
    threads: int = 1,
) -> MatchGraph:
    """Run two-view RANSAC on every unordered view pair and union the inliers.

    View pairs are processed in lexicographic view-id order; per-pair RANSAC
    draws from its own derived generator, so the result is independent of
    `threads`.
    """
    view_ids = sorted(v.view_id for v in obs.views)
    if len(view_ids) < 2:
        raise ValueError("matching needs at least two views")
    table = centroid_table(db, _groups_for(obs, db, params.symmetry_angles, None))
    view_pairs = list(itertools.combinations(view_ids, 2))

    def run(pair):
        va, vb = pair
        return two_view_ransac(va, vb, obs, db, params, table=table)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, view_pairs))
    else:
        results = [run(p) for p in view_pairs]

    hypotheses = {
        vp: hyp for vp, hyp in zip(view_pairs, results) if hyp is not None
    }
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
