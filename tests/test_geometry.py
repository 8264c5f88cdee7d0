import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import macsort.geometry
from macsort.errors import InvalidState
from macsort.geometry import (
    SWEEP_MAX_SHARE,
    SWEEP_MIN_CELLS,
    ZERO_NORM_EPS,
    BBox,
    box_edges,
    first_unheld_box,
    iou_matrix,
    overlap_pairs,
    unit_rows,
    uvwh_to_xysr,
    xysr_of,
    xysr_to_uvwh,
)
from geometry_ref import iou as ref_iou, iou_dense, overlap_dense

boxes = st.builds(
    BBox,
    u=st.floats(-1e4, 1e4),
    v=st.floats(-1e4, 1e4),
    w=st.floats(0.01, 1e3),
    h=st.floats(0.01, 1e3),
)


def iou(a: BBox, b: BBox) -> float:
    """The one cell of iou_matrix for a pair of boxes."""
    return float(iou_matrix([a], [b])[0, 0])


def cosine_matrix(a, b):
    """Cosine similarity as the tracker's appearance term and the memory
    bands read it: the product of unit rows."""
    return np.clip(unit_rows(np.atleast_2d(a)) @ unit_rows(np.atleast_2d(b)).T, -1.0, 1.0)


def cosine(x1, x2) -> float:
    """The one cell of cosine_matrix for a pair of vectors."""
    return float(cosine_matrix(x1, x2)[0, 0])


class TestIou:
    def test_identical_boxes(self):
        b = BBox(10, 10, 10, 10)
        assert iou(b, b) == 1.0

    def test_disjoint_boxes(self):
        assert iou(BBox(10, 10, 10, 10), BBox(100, 100, 10, 10)) == 0.0

    def test_half_shift(self):
        # intersection 50, union 150
        assert iou(BBox(10, 10, 10, 10), BBox(15, 10, 10, 10)) == pytest.approx(1 / 3)

    def test_touching_edges_is_zero(self):
        assert iou(BBox(0, 0, 10, 10), BBox(10, 0, 10, 10)) == 0.0

    @given(boxes, boxes)
    def test_symmetric_and_bounded(self, a, b):
        ab = iou(a, b)
        assert ab == iou(b, a)
        assert 0.0 <= ab <= 1.0

    @given(boxes)
    def test_self_iou_is_one(self, b):
        assert iou(b, b) == pytest.approx(1.0)

    def test_matrix_matches_scalar(self, rng):
        xs = [BBox(*c) for c in rng.uniform(1, 50, size=(8, 4))]
        ys = [BBox(*c) for c in rng.uniform(1, 50, size=(5, 4))]
        mat = iou_matrix(xs, ys)
        for i, a in enumerate(xs):
            for j, b in enumerate(ys):
                assert mat[i, j] == pytest.approx(ref_iou(a, b), abs=1e-12)

    def test_empty_matrix(self):
        assert iou_matrix([], [BBox(0, 0, 1, 1)]).shape == (0, 1)

    def test_bbox_list_and_rows_agree_bit_for_bit(self, rng):
        # random rows, then three squares whose edges touch: two share a side
        # with the first, and those two share only a corner
        uvwh = np.vstack([rng.uniform(1, 50, size=(12, 4)),
                          [[0, 0, 10, 10], [10, 0, 10, 10], [0, 10, 10, 10]]])
        xs, ys, empty = uvwh[4:], uvwh[8:], np.zeros((0, 4))

        def as_boxes(rows):
            return [BBox(*r) for r in rows.tolist()]

        got = iou_matrix(as_boxes(xs), as_boxes(ys))
        assert np.array_equal(got, iou_matrix(xs, ys))
        assert np.array_equal(got[-3:, -3:], np.eye(3))
        for a, b in ((empty, ys), (xs, empty), (empty, empty)):
            assert np.array_equal(iou_matrix(as_boxes(a), as_boxes(b)), iou_matrix(a, b))
            assert iou_matrix(a, b).shape == (len(a), len(b))


@st.composite
def grid_edge_sets(draw):
    """Two box sets, m and n boxes of up to 90, as (left, top, right,
    bottom) edge arrays: whole grid lines times ``step`` from ``base``, so
    that boxes touch (zero gap), nest and repeat, and equal edges are equal
    floats; the second set copies some boxes of the first. Near 1e12 a
    step of 1e-3 is a few ulps and one of 1e-4 is below one, so nearby
    grid lines round together there."""
    m, n = draw(st.integers(0, 90)), draw(st.integers(0, 90))
    base = draw(st.sampled_from([0.0, -7.5, 1e12, -1e12]))
    step = draw(st.sampled_from([1.0, 0.25, 1e-3, 1e-4]))
    span = draw(st.tuples(*[st.sampled_from([2, 16, 128, 1024])] * 2))
    widest = draw(st.sampled_from([1, 4, 32]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def lines(k):
        lo = rng.integers(0, span, (k, 2))
        return lo, lo + rng.integers(1, widest + 1, (k, 2))

    (lo_a, hi_a), (lo_b, hi_b) = lines(m), lines(n)
    if m and n:
        copied = rng.random(n) < 0.2
        picked = rng.integers(0, m, int(copied.sum()))
        lo_b[copied], hi_b[copied] = lo_a[picked], hi_a[picked]

    def edges(lo, hi):
        left_top, right_bottom = base + lo * step, base + hi * step
        return [left_top[:, 0], left_top[:, 1], right_bottom[:, 0], right_bottom[:, 1]]

    return edges(lo_a, hi_a), edges(lo_b, hi_b)


def lane_edges(k, spread_axis, offset=0.0):
    """k boxes of 20 x 20 px spread over 4000 px along one axis (0 for u,
    1 for v, None for neither) and stacked in one 30 px band along the
    other."""
    rng = np.random.default_rng(k + (spread_axis or 0))
    centers = rng.uniform(0, 30, (k, 2)) + offset
    if spread_axis is not None:
        centers[:, spread_axis] = rng.uniform(0, 4000, k)
    return box_edges(np.column_stack([centers, np.full((k, 2), 20.0)]))


class TestOverlapPairs:
    @settings(max_examples=300, deadline=None)
    @given(grid_edge_sets())
    def test_equals_dense_compares(self, edge_sets):
        a, b = edge_sets
        got, want = overlap_pairs(a, b), overlap_dense(a, b)
        for got_idx, want_idx in zip(got, want):
            assert got_idx.dtype == want_idx.dtype and np.array_equal(got_idx, want_idx)

    @pytest.mark.parametrize("m, n, axis, path", [
        (8, 8, 0, "dense"), (70, 60, 0, "u"), (300, 250, 1, "v"), (90, 80, None, "dense"),
    ])
    def test_paths(self, monkeypatch, m, n, axis, path):
        # which path the pairs come from: below the crossover no sweep, above
        # it the axis that leaves fewer candidates, or the dense compares
        # again when even that one leaves more than 1 / SWEEP_MAX_SHARE
        sweeps, sweep = [], macsort.geometry._sweep

        def recorded(*edges):
            sweeps.append(sweep(*edges))
            return sweeps[-1]

        monkeypatch.setattr(macsort.geometry, "_sweep", recorded)
        a, b = lane_edges(m, axis), lane_edges(n, axis, offset=7.0)
        got, want = overlap_pairs(a, b), overlap_dense(a, b)
        assert all(np.array_equal(g, w) for g, w in zip(got, want)) and len(got[0])
        candidates = [int(count.sum()) for _, _, count in sweeps]
        if m * n < SWEEP_MIN_CELLS:
            assert not sweeps
        elif path == "dense":
            assert min(candidates) * SWEEP_MAX_SHARE > m * n
        else:
            u, v = candidates
            assert (u < v if path == "u" else v < u) and min(u, v) * SWEEP_MAX_SHARE <= m * n

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 90), st.integers(0, 90), st.sampled_from([40, 400, 4000]),
           st.integers(0, 2**32 - 1))
    def test_iou_matrix_equals_dense_bits(self, m, n, field, seed):
        # centers on half pixels and whole sizes: edges touch and boxes repeat
        rng = np.random.default_rng(seed)
        a = np.column_stack([rng.integers(0, 2 * field, (m, 2)) / 2, rng.integers(1, 24, (m, 2))])
        b = np.column_stack([rng.integers(0, 2 * field, (n, 2)) / 2, rng.integers(1, 24, (n, 2))])
        if m and n:
            b[: n // 4] = a[rng.integers(0, m, n // 4)]
        assert iou_matrix(a, b).tobytes() == iou_dense(a, b).tobytes()


class TestCosine:
    """Cosine similarity as a product of unit_rows rows."""

    def test_identical(self):
        assert cosine(np.array([1.0, 0, 0]), np.array([1.0, 0, 0])) == 1.0

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0]), np.array([0.0, 1])) == 0.0

    def test_45_degrees(self):
        got = cosine(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert got == pytest.approx(0.70711, abs=1e-5)

    def test_zero_vector_gives_zero(self):
        assert cosine(np.zeros(3), np.array([1.0, 0, 0])) == 0.0

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=6),
           st.floats(0.1, 100.0))
    def test_scaling_invariance(self, vals, k):
        x = np.asarray(vals)
        if np.linalg.norm(x) < 1e-6:
            return
        assert cosine(x, k * x) == pytest.approx(1.0)
        assert cosine(x, -k * x) == pytest.approx(-1.0)

    def test_matrix_zero_rows_give_zero(self):
        mat = cosine_matrix(np.zeros((1, 3)), np.eye(3))
        assert np.all(mat == 0.0)


class TestUnitRows:
    """A row's unit row has the same bits whatever batch it is normalised
    in: the prompt filter's memory bands hold rows normalised with their
    frame, where they were once normalised with the band."""

    @pytest.mark.parametrize("dim", [3, 8, 64, 200])
    def test_row_independent(self, dim):
        rng = np.random.default_rng(dim)
        scales = 10.0 ** rng.integers(-30, 30, (40, 1))  # float32's range is about 1e±38
        rows = [*(rng.standard_normal((40, dim)) * scales).astype(np.float32).astype(float),
                np.zeros(dim), np.full(dim, ZERO_NORM_EPS / (4 * dim)),
                np.eye(dim)[0] * 3e38, np.eye(dim)[-1] * ZERO_NORM_EPS * 0.99]
        batch = np.array(rows)
        alone = np.array([unit_rows(row[None, :])[0] for row in rows])
        order = rng.permutation(len(rows))
        assert unit_rows(batch).tobytes() == alone.tobytes()
        assert unit_rows(batch[order]).tobytes() == alone[order].tobytes()
        tiny = np.linalg.norm(batch, axis=1) < ZERO_NORM_EPS
        assert tiny[40:].tolist() == [True, True, False, True]
        assert np.array_equal(alone[tiny], batch[tiny])  # left as they are


class TestXysr:
    def test_square(self):
        assert uvwh_to_xysr(np.array([[0, 0, 10, 10]], float))[0, 2:].tolist() == [100.0, 1.0]

    def test_wide(self):
        u, v, s, r = uvwh_to_xysr(np.array([[1, 2, 20, 10]], float))[0]
        assert (s, r) == (200.0, 2.0)

    def test_round_trip_simple(self):
        b = np.array([[3, 4, 5, 6]], float)
        got = xysr_to_uvwh(uvwh_to_xysr(b))[0]
        assert got[:2] == pytest.approx(b[0, :2])
        assert got[2:] == pytest.approx(b[0, 2:], rel=1e-12)

    def test_invalid_scale(self):
        with pytest.raises(InvalidState):
            xysr_to_uvwh(np.array([[0, 0, -1.0, 1.0]]))
        with pytest.raises(InvalidState):
            xysr_to_uvwh(np.array([[0, 0, 1.0, 0.0]]))

    def test_floats_equal_rows_bit_for_bit(self, rng):
        uvwh = np.column_stack([rng.uniform(-1e3, 1e3, (1000, 2)),
                                np.exp(rng.uniform(-8, 8, (1000, 2)))])
        assert [list(xysr_of(*row)) for row in uvwh.tolist()] == uvwh_to_xysr(uvwh).tolist()

    def test_round_trip_10k_random(self, rng):
        # tolerance pinned at 1e-9 relative over 10k boxes
        uvwh = np.column_stack([rng.uniform(-1e3, 1e3, (10_000, 2)),
                                rng.uniform(1e-2, 1e3, (10_000, 2))])
        got = xysr_to_uvwh(uvwh_to_xysr(uvwh))
        assert np.all(np.abs(got[:, 2:] - uvwh[:, 2:]) <= 1e-9 * uvwh[:, 2:])


class TestFirstUnheldBox:
    def test_ordinary_boxes_are_held(self):
        uvwh = np.array([[0.0, 0.0, 1.0, 1.0], [1e6, -1e6, 0.01, 3e3], [0.0, 0.0, 1e-100, 1e100]])
        assert first_unheld_box(uvwh) is None
        assert first_unheld_box(np.zeros((0, 4))) is None

    @pytest.mark.parametrize("row", [
        [0.0, 0.0, 1e200, 1e200],      # area overflows
        [0.0, 0.0, 1e-200, 1e-200],    # area underflows to 0
        [0.0, 0.0, 1e300, 1e-10],      # aspect overflows
        [1e300, 84.0, 24.0, 24.0],     # no extent in u at its position
        [5.0, -1e300, 24.0, 24.0],     # no extent in v
        [1.7e308, 0.0, 1e308, 1.0],    # right edge overflows
        [np.inf, 0.0, 1.0, 1.0],
        [0.0, np.nan, 1.0, 1.0],
    ])
    def test_names_the_first_unheld_row(self, row):
        uvwh = np.array([[0.0, 0.0, 2.0, 2.0], row, row])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert first_unheld_box(uvwh) == 1


class TestBBox:
    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            BBox(0, 0, 0, 10)
        with pytest.raises(ValueError):
            BBox(0, 0, 10, -1)
