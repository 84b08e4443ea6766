"""Property test: `cosy solve` on mutated input files never crashes.

A tiny simulated scene is written once; each example applies a few
mutations to its models.json or observations.json (a dropped field or
list entry, a value of the wrong type, a non-finite or huge number, an
emptied container, a duplicated list entry) and runs the solver
in-process. Every run must end with exit 0, 2 or 3; an exception
escaping `main` would be a traceback for the user.
"""

import contextlib
import copy
import io
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cosy.cli import EXIT_CONFIG, EXIT_NO_SCENE, EXIT_OK, main

from test_cli import simulate

FILES = ("models.json", "observations.json")

ODD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 0, -1, 10**30]),
    st.just([]),
    st.just({}),
    st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=4),
)


def _paths(doc, prefix=()):
    """Paths to every node, but only the ends of all-number lists."""
    yield prefix
    if isinstance(doc, dict):
        for key in sorted(doc):
            yield from _paths(doc[key], prefix + (key,))
    elif isinstance(doc, list):
        numeric = doc and all(isinstance(v, (int, float)) for v in doc)
        keep = sorted({0, len(doc) - 1}) if numeric else range(len(doc))
        for i in keep:
            yield from _paths(doc[i], prefix + (i,))


def _mutate(doc, path, op, value):
    if not path:
        return value if op == "replace" else doc
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if op == "drop":
        del parent[key]
    elif op == "replace":
        parent[key] = value
    elif op == "empty":
        parent[key] = type(parent[key])() if isinstance(parent[key], (list, dict)) else []
    elif op == "duplicate" and isinstance(parent, list):
        parent.append(copy.deepcopy(parent[key]))
    return doc


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz_scene")
    simulate(base, "--n-objects", "3", "--n-views", "3",
             "--symmetric-labels", "obj_00", "--rot-sigma-deg", "2",
             "--trans-sigma", "0.005")
    docs = {name: json.loads((base / name).read_text()) for name in FILES}
    paths = {name: list(_paths(doc)) for name, doc in docs.items()}
    return base, docs, paths


MUTATION = st.tuples(
    st.sampled_from(FILES),
    st.integers(min_value=0),
    st.sampled_from(["drop", "replace", "empty", "duplicate"]),
    ODD_VALUES,
)


@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutations=st.lists(MUTATION, min_size=1, max_size=3))
def test_mutated_inputs_exit_cleanly(scene, mutations):
    base, docs, paths = scene
    mutated = copy.deepcopy(docs)
    for name, index, op, value in mutations:
        # Paths of the unmutated document; one already removed is skipped.
        path = paths[name][index % len(paths[name])]
        try:
            mutated[name] = _mutate(mutated[name], path, op, value)
        except (KeyError, IndexError, TypeError):
            continue
    for name in FILES:
        (base / f"fuzz_{name}").write_text(json.dumps(mutated[name]))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main([
            "solve",
            "--models", str(base / "fuzz_models.json"),
            "--observations", str(base / "fuzz_observations.json"),
            "--out", str(base / "fuzz_estimate.json"),
            "--seed", "1",
        ])
    assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_NO_SCENE)
    assert "Traceback" not in err.getvalue()
