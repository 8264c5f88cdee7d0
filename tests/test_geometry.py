import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from macsort.errors import DimensionMismatch, InvalidState
from macsort.geometry import (
    BBox,
    cosine_matrix,
    first_unheld_box,
    iou_matrix,
    uvwh_to_xysr,
    xysr_to_uvwh,
)
from geometry_ref import iou as ref_iou

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


class TestCosine:
    def test_identical(self):
        assert cosine(np.array([1.0, 0, 0]), np.array([1.0, 0, 0])) == 1.0

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0]), np.array([0.0, 1])) == 0.0

    def test_45_degrees(self):
        got = cosine(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert got == pytest.approx(0.70711, abs=1e-5)

    def test_zero_vector_gives_zero(self):
        assert cosine(np.zeros(3), np.array([1.0, 0, 0])) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cosine(np.ones(3), np.ones(4))

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
