"""The box value type, box arrays and similarity primitives.

Boxes are stored center-based as (u, v, w, h); the MOT top-left convention
is converted at the I/O layer only. The Kalman filter measures a box as
(u, v, s, r), scale s = w*h and aspect r = w/h; uvwh_to_xysr and
xysr_to_uvwh are the one conversion each way. All reals are float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidState

ZERO_NORM_EPS = 1e-12


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


def iou_matrix(boxes_a, boxes_b) -> np.ndarray:
    """Pairwise intersection over union, shape (len(boxes_a), len(boxes_b)),
    of two box sets, each a list of BBox or (n, 4) rows of (u, v, w, h); 0
    for disjoint interiors.

    The edges are u -/+ w/2 and v -/+ h/2, and each area is taken from its
    edges, which can differ from w*h by an ulp; the clip at 1 keeps the
    ratio bounded.
    """
    a, b = uvwh_array(boxes_a), uvwh_array(boxes_b)
    if len(a) == 0 or len(b) == 0:
        return np.zeros((len(a), len(b)))
    # the left, top, right and bottom edge columns of each set
    (la, ta, ra, ba), (lb, tb, rb, bb) = (
        (x[:, 0] - x[:, 2] / 2.0, x[:, 1] - x[:, 3] / 2.0,
         x[:, 0] + x[:, 2] / 2.0, x[:, 1] + x[:, 3] / 2.0) for x in (a, b))
    iw = np.minimum(ra[:, None], rb) - np.maximum(la[:, None], lb)
    ih = np.minimum(ba[:, None], bb) - np.maximum(ta[:, None], tb)
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    area_a, area_b = (ra - la) * (ba - ta), (rb - lb) * (bb - tb)
    return np.minimum(inter / (area_a[:, None] + area_b - inter), 1.0)


def unit_rows(x: np.ndarray) -> np.ndarray:
    """Row-normalize a (n, d) matrix; zero rows stay zero."""
    x = np.asarray(x, dtype=np.float64)
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    safe = np.where(norms < ZERO_NORM_EPS, 1.0, norms)
    return x / safe


def cosine_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarity between rows of a and b.

    Zero-norm rows yield similarity 0 (soft degenerate convention).
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatch(f"embedding dims differ: {a.shape[1]} vs {b.shape[1]}")
    return np.clip(unit_rows(a) @ unit_rows(b).T, -1.0, 1.0)


def uvwh_to_xysr(uvwh: np.ndarray) -> np.ndarray:
    """(n, 4) rows of (u, v, w, h) as filter measurements (u, v, s, r):
    scale s = w*h, aspect r = w/h."""
    w, h = uvwh[:, 2], uvwh[:, 3]
    return np.stack([uvwh[:, 0], uvwh[:, 1], w * h, w / h], axis=1)


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
