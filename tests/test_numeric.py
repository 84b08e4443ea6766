import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cosy import numeric
from cosy.numeric import nearest_sq, pairwise_sq_reduce

K = numeric._NEAREST_MIN_POINTS


@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(1, 2 * K),
    n=st.integers(1, 3 * K),
    offset=st.just(0.0) | st.floats(-1e3, 1e3),
    scale=st.sampled_from([1e-161, 1e-4, 0.05, 1.0]),
    grid=st.booleans(),
    duplicates=st.integers(0, 10),
    copies=st.integers(0, 10),
    chunk=st.sampled_from(["default", "1", "m-1", "m", "3m+1"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_nearest_sq_equals_the_full_scan(
    m, n, offset, scale, grid, duplicates, copies, chunk, seed
):
    rng = np.random.default_rng(seed)
    b = rng.uniform(-scale, scale, size=(m, 3))
    a = rng.uniform(-scale, scale, size=(n, 3)) * 1.5
    if grid:  # coordinates on a lattice: many exactly equal distances
        b = np.round(b / scale * 4) * scale / 4
        a = np.round(a / scale * 4) * scale / 4
    b = np.concatenate([b, b[rng.integers(0, m, size=duplicates)]]) + offset
    a += offset
    rows = rng.integers(0, n, size=min(copies, n))
    a[rows] = b[rng.integers(0, len(b), size=len(rows))]  # zero distances
    width = {"1": 1, "m-1": len(b) - 1, "m": len(b), "3m+1": 3 * len(b) + 1}
    with pytest.MonkeyPatch.context() as mp:
        if chunk in width:
            mp.setattr(numeric, "_PAIRWISE_CHUNK", width[chunk])
        got = nearest_sq(a, b)
        want = pairwise_sq_reduce(a, b, np.minimum)
    assert got.tobytes() == want.tobytes()


class TestNearestSqScansOnlyTies:
    @pytest.fixture
    def scanned(self, monkeypatch):
        rows = []
        real = numeric.pairwise_sq_reduce

        def recording(a, b, reduce):
            rows.append(np.array(a))
            return real(a, b, reduce)

        monkeypatch.setattr(numeric, "pairwise_sq_reduce", recording)
        return rows

    def test_generic_clouds_scan_no_row(self, scanned):
        rng = np.random.default_rng(3)
        for _ in range(5):
            b = rng.uniform(-0.05, 0.05, size=(200, 3)) + rng.uniform(-1, 1, 3)
            a = b @ np.linalg.qr(rng.normal(size=(3, 3)))[0]
            got = nearest_sq(a, b)
            assert got.tobytes() == pairwise_sq_reduce(a, b, np.minimum).tobytes()
        assert scanned == []

    def test_duplicated_points_scan_exactly_the_tied_rows(self, scanned):
        rng = np.random.default_rng(4)
        base = rng.uniform(-0.05, 0.05, size=(200, 3))
        b = np.concatenate([base, base[:40]])
        a = rng.uniform(-0.05, 0.05, size=(200, 3))
        d = a[:, None, :] - b[None, :, :]
        table = (d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]) + d[..., 2] * d[..., 2]
        tied = (table == table.min(axis=1, keepdims=True)).sum(axis=1) > 1
        assert 0 < tied.sum() < len(a)
        got = nearest_sq(a, b)
        assert got.tobytes() == table.min(axis=1).tobytes()
        assert len(scanned) == 1
        assert scanned[0].tobytes() == a[tied].tobytes()

    def test_small_clouds_scan_in_full(self, scanned):
        rng = np.random.default_rng(5)
        b = rng.uniform(-0.05, 0.05, size=(K - 1, 3))
        a = rng.uniform(-0.05, 0.05, size=(30, 3))
        nearest_sq(a, b)
        assert len(scanned) == 1 and scanned[0].tobytes() == a.tobytes()
