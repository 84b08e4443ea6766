"""Property tests: `cosy solve` and `cosy eval` on mutated input files never crash.

A tiny simulated scene is written and solved once; each example applies a
few mutations (a dropped field or list entry, a value of the wrong type, a
non-finite or huge number, an emptied container, a duplicated list entry)
to the solver's inputs, models.json and observations.json, or to the
evaluator's, estimate.json and ground_truth.json, and runs the command
in-process. Every solve must end with exit 0, 2 or 3 and every eval with
exit 0 or 2; an exception escaping `main` would be a traceback for the user.

A typed oracle then puts, one at a time, a numeric string or a bool in
every number field the loaders read, and a fraction in every integer
field: each such file must exit 2 with an error naming the file and the
field, since the loaders accept only the JSON types the writers emit.
"""

import contextlib
import copy
import io
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cosy.cli import EXIT_CONFIG, EXIT_NO_SCENE, EXIT_OK, main

from test_cli import run_eval, simulate, solve

FILES = ("models.json", "observations.json")
EVAL_FILES = ("estimate.json", "ground_truth.json")
# Top-level fields that no loader reads: the estimate's echo of the solve
# flags and its counts.
UNREAD = {"estimate.json": ("config", "stats")}

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
    models, observations, _ = simulate(
        base, "--n-objects", "3", "--n-views", "3", "--symmetric-labels",
        "obj_00", "--rot-sigma-deg", "2", "--trans-sigma", "0.005")
    assert solve(models, observations, base / "estimate.json") == EXIT_OK
    docs = {
        name: json.loads((base / name).read_text()) for name in FILES + EVAL_FILES
    }
    paths = {name: list(_paths(doc)) for name, doc in docs.items()}
    return base, docs, paths


def _mutations(files):
    return st.lists(
        st.tuples(
            st.sampled_from(files),
            st.integers(min_value=0),
            st.sampled_from(["drop", "replace", "empty", "duplicate"]),
            ODD_VALUES,
        ),
        min_size=1,
        max_size=3,
    )


def _typed_cases(doc, unread=()):
    """(path, value) pairs that put a wrongly typed value in a number field
    of `doc`: the number's decimal string and True, and for an integer the
    integer plus one half."""
    for path in _paths(doc):
        if not path or path[0] in unread:
            continue
        value = doc
        for key in path:
            value = value[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        yield path, str(value)
        yield path, True
        if isinstance(value, int):
            yield path, value + 0.5


def _run_solve(base):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main([
            "solve",
            "--models", str(base / "fuzz_models.json"),
            "--observations", str(base / "fuzz_observations.json"),
            "--out", str(base / "fuzz_estimate.json"),
            "--seed", "1",
        ])
    return rc, err.getvalue()


def _run_eval(base):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = run_eval(base / "models.json", base / "fuzz_estimate.json",
                      base / "fuzz_ground_truth.json", base / "fuzz_report.json")
    return rc, err.getvalue()


def _write_mutated(scene, mutations, files):
    """Write fuzz_<name> for each of `files`, mutated as listed."""
    base, docs, paths = scene
    mutated = copy.deepcopy(docs)
    for name, index, op, value in mutations:
        # Paths of the unmutated document; one already removed is skipped.
        path = paths[name][index % len(paths[name])]
        try:
            mutated[name] = _mutate(mutated[name], path, op, value)
        except (KeyError, IndexError, TypeError):
            continue
    for name in files:
        (base / f"fuzz_{name}").write_text(json.dumps(mutated[name]))


@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutations=_mutations(FILES))
def test_mutated_inputs_exit_cleanly(scene, mutations):
    _write_mutated(scene, mutations, FILES)
    rc, err = _run_solve(scene[0])
    assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_NO_SCENE)
    assert "Traceback" not in err


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutations=_mutations(EVAL_FILES))
def test_mutated_eval_inputs_exit_cleanly(scene, mutations):
    _write_mutated(scene, mutations, EVAL_FILES)
    rc, err = _run_eval(scene[0])
    assert rc in (EXIT_OK, EXIT_CONFIG)
    assert "Traceback" not in err


@pytest.mark.parametrize("name", FILES + EVAL_FILES)
def test_mistyped_numbers_exit_config(scene, name):
    base, docs, _ = scene
    files, run = (FILES, _run_solve) if name in FILES else (EVAL_FILES, _run_eval)
    for other in files:
        (base / f"fuzz_{other}").write_text(json.dumps(docs[other]))
    cases = list(_typed_cases(docs[name], UNREAD.get(name, ())))
    kinds = {type(value) for _, value in cases}
    # Numeric strings and bools everywhere; fractions wherever the file has
    # an integer field (models.json has none).
    assert kinds == {str, bool} | ({float} if name != "models.json" else set())
    for path, value in cases:
        mutated = _mutate(copy.deepcopy(docs[name]), path, "replace", value)
        (base / f"fuzz_{name}").write_text(json.dumps(mutated))
        rc, err = run(base)
        field = [key for key in path if isinstance(key, str)][-1]
        assert rc == EXIT_CONFIG, (path, value, err)
        assert str(base / f"fuzz_{name}") in err and "must be" in err, err
        assert field.removesuffix("_world") in err, (path, err)
