"""Span tracer for the benchmark's traced run.

The tracer measures cosy's layers from outside: it replaces public
functions at the points where one ``cosy`` module calls another with
wrappers that record a span (name, start, end, parent span, thread id and
a few sizes computed from arguments or results). The wrappers exist only
between ``install()`` and ``uninstall()``; the untraced timing never sees
them.

A name is looked up in the module that *calls* it (``cosy.cli.evaluate``,
not ``cosy.evaluation.evaluate``), because that is the binding the caller
resolves at run time.
"""

from __future__ import annotations

import functools
import importlib
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

TRACED = {
    "cosy.cli": (
        "load_models",
        "load_observations",
        "build_match_graph",
        "extract_physical_objects",
        "refine_best_of",
        "total_loss",
        "nms_3d",
        "express_in_camera_frames",
        "save_estimate",
        "evaluate",
    ),
    "cosy.matching": (
        "two_view_ransac",
        "hypothesis_combos",
        "relative_pose_from_pairs",
        "symmetric_distance",
        "discretize",
    ),
    "cosy.refinement": (
        "refine",
        "select_targets",
        "linearize",
        "frozen_loss",
        "discretize",
    ),
}

# Span names whose self time belongs to each layer. Spans named in no
# layer (the harness's root spans, symmetry calls) are accounted elsewhere.
MATCHING_SPANS = (
    "cli.build_match_graph",
    "cli.extract_physical_objects",
    "matching.two_view_ransac",
    "matching.hypothesis_combos",
    "matching.relative_pose_from_pairs",
)
REFINEMENT_SPANS = (
    "cli.refine_best_of",
    "cli.total_loss",
    "refinement.refine",
    "refinement.select_targets",
    "refinement.linearize",
    "refinement.frozen_loss",
)


class MissingTracePoint(RuntimeError):
    """A traced name no longer exists, so its layer would read as zero."""


class Span:
    __slots__ = ("name", "parent", "tid", "start", "end", "info")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.tid = threading.get_ident()
        self.start = 0.0
        self.end = 0.0
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start


# Each adapter calls the original and returns (result, info); `info` holds
# the sizes a layer metric is computed from.


def _plain(fn, args, kwargs):
    return fn(*args, **kwargs), None


def _symmetric_distance(fn, args, kwargs):
    points = args[0] if args else kwargs["points"]
    group = args[1] if len(args) > 1 else kwargs["group"]
    d = fn(*args, **kwargs)
    return d, (len(group) * len(points), d)


def _hypothesis_combos(fn, args, kwargs):
    # The generator factory is called only on the sampled branch.
    pairs, max_iterations, rng_factory = args
    sampled = []

    def factory():
        sampled.append(True)
        return rng_factory()

    combos = fn(pairs, max_iterations, factory, **kwargs)
    return combos, bool(sampled)


def _two_view_ransac(fn, args, kwargs):
    hyp = fn(*args, **kwargs)
    return hyp, hyp is not None


def _linearize(fn, args, kwargs):
    r, jac = fn(*args, **kwargs)
    return (r, jac), jac.nbytes


_ADAPTERS = {
    "matching.symmetric_distance": _symmetric_distance,
    "matching.hypothesis_combos": _hypothesis_combos,
    "matching.two_view_ransac": _two_view_ransac,
    "refinement.linearize": _linearize,
}


class Tracer:
    """Collects spans from wrapped cosy functions, on any thread.

    Each thread keeps its own span stack. A thread with an empty stack
    (a worker of the matching thread pool) takes the main thread's open
    span as its parent.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._originals: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple[list[Span], Span]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span = Span(name, parent)
        stack.append(span)
        span.start = perf_counter()
        return stack, span

    def _close(self, stack: list[Span], span: Span) -> None:
        span.end = perf_counter()
        stack.pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        """A span opened by the harness itself, e.g. around one solve."""
        stack, span = self._open(name)
        try:
            yield span
        finally:
            self._close(stack, span)

    def _wrap(self, name: str, fn):
        adapter = _ADAPTERS.get(name, _plain)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, span = self._open(name)
            try:
                result, span.info = adapter(fn, args, kwargs)
            finally:
                self._close(stack, span)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every TRACED name; raise MissingTracePoint if one is gone."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        targets = []
        for module_name, names in TRACED.items():
            module = importlib.import_module(module_name)
            for name in names:
                fn = getattr(module, name, None)
                if not callable(fn):
                    raise MissingTracePoint(
                        f"traced function {module_name}.{name} does not exist"
                    )
                targets.append((module, name, fn))
        for module, name, fn in targets:
            short = module.__name__.rsplit(".", 1)[-1]
            setattr(module, name, self._wrap(f"{short}.{name}", fn))
        self._originals = targets

    def uninstall(self) -> None:
        for module, name, fn in self._originals:
            setattr(module, name, fn)
        self._originals = []

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def take(self) -> list[Span]:
        """Hand over the finished spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals (children may overlap on threads)."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name: summed duration minus the time child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append((s.start, s.end))
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += s.duration - _covered(children.get(id(s), []))
    return out


def scene_sums(spans: list[Span], inlier_threshold: float) -> dict[str, float]:
    """Raw per-layer sums for one scene's spans (times in s, counts)."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    selfs = self_times(spans)

    def total(*names: str) -> float:
        return sum(s.duration for n in names for s in by_name[n])

    def count(name: str) -> int:
        return len(by_name[name])

    # A call that raised has no info; its solve already failed the gate.
    distance = [s for s in by_name["matching.symmetric_distance"] if s.info is not None]
    inlier_calls = [
        s
        for s in distance
        if s.parent is None or s.parent.name != "matching.relative_pose_from_pairs"
    ]
    solve_loads = [
        s
        for n in ("cli.load_models", "cli.load_observations")
        for s in by_name[n]
        if s.parent is not None and s.parent.name == "solve"
    ]
    jacobians = [s.info for s in by_name["refinement.linearize"]]
    return {
        "solve_s": total("solve"),
        "scene_io.load_s": sum(s.duration for s in solve_loads),
        "scene_io.save_s": total("cli.save_estimate"),
        "matching.match_s": total("cli.build_match_graph", "cli.extract_physical_objects"),
        "matching.self_s": sum(selfs[n] for n in MATCHING_SPANS),
        "matching.view_pairs": count("matching.two_view_ransac"),
        "matching.view_pairs_accepted": sum(
            1 for s in by_name["matching.two_view_ransac"] if s.info
        ),
        "matching.view_pairs_sampled": sum(
            1 for s in by_name["matching.hypothesis_combos"] if s.info
        ),
        "matching.hypotheses": count("matching.relative_pose_from_pairs"),
        "matching.hypothesis_s": total("matching.relative_pose_from_pairs"),
        "matching.inlier_evals": len(inlier_calls),
        "matching.inlier_hits": sum(
            1 for s in inlier_calls if s.info[1] < inlier_threshold
        ),
        "symmetry.distance_calls": len(distance),
        "symmetry.distance_s": total("matching.symmetric_distance"),
        "symmetry.points_transformed": sum(s.info[0] for s in distance),
        "symmetry.group_builds": count("matching.discretize")
        + count("refinement.discretize"),
        "refinement.refine_s": total("cli.refine_best_of"),
        "refinement.self_s": sum(selfs[n] for n in REFINEMENT_SPANS),
        "refinement.linearize_s": total("refinement.linearize"),
        "refinement.select_targets_s": total("refinement.select_targets"),
        "refinement.frozen_loss_s": total("refinement.frozen_loss"),
        "refinement.total_loss_s": total("cli.total_loss"),
        "refinement.lm_iterations": count("refinement.linearize"),
        "refinement.lm_trials": count("refinement.frozen_loss"),
        "refinement.jacobian_mb_max": max(jacobians, default=0) / 1e6,
        "output_s": total("cli.nms_3d", "cli.express_in_camera_frames", "cli.save_estimate"),
        "evaluation.nms_s": total("cli.nms_3d"),
        "evaluation.evaluate_s": total("cli.evaluate"),
    }
