"""The box value type, box arrays and similarity primitives.

Boxes are stored center-based as (u, v, w, h); the MOT top-left convention
is converted at the I/O layer only. The Kalman filter measures a box as
(u, v, s, r), scale s = w*h and aspect r = w/h; xysr_of is that formula,
which uvwh_to_xysr runs on box rows, and xysr_to_uvwh the inverse. All
reals are float64, except embeddings, which may come as float32, the
width their sidecar stores; unit_rows widens them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidState

ZERO_NORM_EPS = 1e-12
# overlap_pairs sweeps from this many (m, n) pairs on, unless the better
# axis leaves more than one pair in SWEEP_MAX_SHARE as a candidate
SWEEP_MIN_CELLS = 4096
SWEEP_MAX_SHARE = 4


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box: center (u, v), width w > 0, height h > 0, in pixels."""

    u: float
    v: float
    w: float
    h: float

    def __post_init__(self):
        if not (self.w > 0 and self.h > 0):
            raise ValueError(f"box must have positive size, got w={self.w}, h={self.h}")


def uvwh_array(boxes) -> np.ndarray:
    """(n, 4) float64 array of (u, v, w, h) from a list of BBox or from rows
    that already hold (u, v, w, h)."""
    if len(boxes) and isinstance(boxes[0], BBox):
        boxes = [(b.u, b.v, b.w, b.h) for b in boxes]
    return np.asarray(boxes, dtype=np.float64).reshape(-1, 4)


def box_edges(uvwh: np.ndarray) -> tuple[np.ndarray, ...]:
    """The left, top, right and bottom edges, u -/+ w/2 and v -/+ h/2, of
    (n, 4) rows of (u, v, w, h), as four (n,) arrays."""
    u, v, w, h = uvwh.T
    return u - w / 2.0, v - h / 2.0, u + w / 2.0, v + h / 2.0


def iou_of_edges(edges_a, edges_b) -> np.ndarray:
    """Intersection over union of boxes given as (left, top, right, bottom)
    edge arrays that broadcast against each other: (m, 1) against (n,)
    edges give the (m, n) matrix, (k,) against (k,) edges k pairs. 0 for
    disjoint interiors.

    Each area is taken from its edges, which can differ from w*h by an ulp;
    the clip at 1 keeps the ratio bounded.
    """
    (la, ta, ra, ba), (lb, tb, rb, bb) = edges_a, edges_b
    iw = np.minimum(ra, rb) - np.maximum(la, lb)
    ih = np.minimum(ba, bb) - np.maximum(ta, tb)
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    area_a, area_b = (ra - la) * (ba - ta), (rb - lb) * (bb - tb)
    return np.minimum(inter / (area_a + area_b - inter), 1.0)


def nonzero_cells(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (rows, cols) of a 2-D mask's true cells, row-major: np.nonzero's
    result, from the flat indices, which numpy finds several times faster
    than the 2-D ones on a matrix of a few thousand cells or more."""
    return np.divmod(np.flatnonzero(mask), mask.shape[1])


def _sweep(lo_a, hi_a, lo_b, hi_b):
    """Candidate ranges of a sweep along one axis: ``order`` sorts the b
    intervals by low edge, and a's interval i can overlap (strictly) only
    the b intervals at sorted positions start[i] <= k < start[i] +
    count[i]. Below start[i] every high edge, a running maximum, is at
    most lo_a[i]; from the stop on every low edge is at least hi_a[i]. The
    bounds are compares of the edges themselves, so nothing rounds."""
    order = np.argsort(lo_b, kind="stable")
    start = np.searchsorted(np.maximum.accumulate(hi_b[order]), lo_a, side="right")
    stop = np.searchsorted(lo_b[order], hi_a, side="left")
    return order, start, np.maximum(stop - start, 0)


def overlap_pairs(edges_a, edges_b) -> tuple[np.ndarray, np.ndarray]:
    """The (rows, cols) of the boxes whose interiors overlap, row-major:
    the pairs with lb < ra, rb > la, tb < ba and bb > ta, for (left, top,
    right, bottom) edge arrays of m boxes a and n boxes b.

    Below SWEEP_MIN_CELLS pairs the four compares run on every pair. From
    there on each axis is swept (``_sweep``) and the one that leaves fewer
    candidates is kept; when even that leaves more than one pair in
    SWEEP_MAX_SHARE, for instance boxes stacked along both axes, the dense
    compares run after all.
    """
    (la, ta, ra, ba), (lb, tb, rb, bb) = edges_a, edges_b
    m, n = len(la), len(lb)
    if m * n >= SWEEP_MIN_CELLS:
        by_u, by_v = _sweep(la, ra, lb, rb), _sweep(ta, ba, tb, bb)
        order, start, count = min(by_u, by_v, key=lambda sweep: sweep[2].sum())
        total = int(count.sum())
        if total * SWEEP_MAX_SHARE <= m * n:
            rows = np.repeat(np.arange(m), count)
            # the k-th candidate of row i sits at sorted position start[i] + k
            cols = order[np.arange(total) + np.repeat(start - (np.cumsum(count) - count), count)]
            hit = (lb[cols] < ra[rows]) & (rb[cols] > la[rows])
            hit &= (tb[cols] < ba[rows]) & (bb[cols] > ta[rows])
            return np.divmod(np.sort(rows[hit] * n + cols[hit]), n)
    la, ta, ra, ba = (e[:, None] for e in edges_a)
    return nonzero_cells((lb < ra) & (rb > la) & (tb < ba) & (bb > ta))


def iou_matrix(boxes_a, boxes_b) -> np.ndarray:
    """Pairwise intersection over union, shape (len(boxes_a), len(boxes_b)),
    of two box sets, each a list of BBox or (n, 4) rows of (u, v, w, h).

    Below SWEEP_MIN_CELLS pairs (4,096, 64 x 64 boxes) every pair is
    computed. From there on only the ``overlap_pairs`` are, and the other
    cells are left 0: a pair whose interiors do not overlap has an
    intersection of 0, so its IoU is 0 either way (for boxes of positive
    area), and every cell has the same bits as when all are computed."""
    a, b = uvwh_array(boxes_a), uvwh_array(boxes_b)
    edges_a, edges_b = box_edges(a), box_edges(b)
    if len(a) * len(b) < SWEEP_MIN_CELLS:
        return iou_of_edges([e[:, None] for e in edges_a], edges_b)
    rows, cols = overlap_pairs(edges_a, edges_b)
    out = np.zeros((len(a), len(b)))
    out[rows, cols] = iou_of_edges([e[rows] for e in edges_a], [e[cols] for e in edges_b])
    return out


def unit_rows(x: np.ndarray) -> np.ndarray:
    """Row-normalize a (n, d) matrix in float64, widening float32 rows
    first; zero rows stay zero."""
    x = np.asarray(x, dtype=np.float64)
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    safe = np.where(norms < ZERO_NORM_EPS, 1.0, norms)
    return x / safe


def xysr_of(u, v, w, h):
    """The filter measurement (u, v, s, r) of a (u, v, w, h) box: scale
    s = w*h, aspect r = w/h. Elementwise, on floats or on numpy columns."""
    return u, v, w * h, w / h


def uvwh_to_xysr(uvwh: np.ndarray) -> np.ndarray:
    """(n, 4) rows of (u, v, w, h) as (n, 4) rows of (u, v, s, r)."""
    return np.stack(xysr_of(*uvwh.T), axis=1)


def xysr_to_uvwh(xysr: np.ndarray) -> np.ndarray:
    """Inverse of uvwh_to_xysr on (n, 4) rows: w = sqrt(s*r), h = sqrt(s/r).

    Raises InvalidState when an s or r is non-positive (filter drift
    produced a nonphysical scale).
    """
    s, r = xysr[:, 2], xysr[:, 3]
    bad = np.flatnonzero((s <= 0.0) | (r <= 0.0))
    if len(bad):
        raise InvalidState(f"nonphysical box readout: s={s[bad[0]]}, r={r[bad[0]]}")
    return np.stack([xysr[:, 0], xysr[:, 1], np.sqrt(s * r), np.sqrt(s / r)], axis=1)


def first_unheld_box(uvwh: np.ndarray) -> int | None:
    """Index of the first (u, v, w, h) row that float64 cannot hold as a box,
    or None: w*h or w/h is not a positive finite number, or an extent
    vanishes (u - w/2 == u + w/2, or in v) or overflows. Warns of nothing."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        center, half, w, h = uvwh[:, :2], uvwh[:, 2:] / 2.0, uvwh[:, 2:3], uvwh[:, 3:]
        # four values per row: w*h, w/h and the extents in u and v
        vals = np.concatenate([w * h, w / h, (center + half) - (center - half)], axis=1)
    bad = np.flatnonzero(~((vals > 0.0) & (vals < np.inf)))
    return int(bad[0]) // 4 if len(bad) else None
