"""The box value type, box arrays and similarity primitives.

Boxes are stored center-based as (u, v, w, h); the MOT top-left convention
is converted at the I/O layer only. The Kalman filter measures a box as
(u, v, s, r), scale s = w*h and aspect r = w/h; uvwh_to_xysr and
xysr_to_uvwh are the one conversion each way. All reals are float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEmbedding, DimensionMismatch, InvalidState

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

    @property
    def left(self) -> float:
        return self.u - self.w / 2.0

    @property
    def top(self) -> float:
        return self.v - self.h / 2.0

    @property
    def right(self) -> float:
        return self.u + self.w / 2.0

    @property
    def bottom(self) -> float:
        return self.v + self.h / 2.0

    @property
    def area(self) -> float:
        return self.w * self.h


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes; 0 for disjoint interiors."""
    iw = min(a.right, b.right) - max(a.left, b.left)
    ih = min(a.bottom, b.bottom) - max(a.top, b.top)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    # edge recomputation can differ from w*h by an ulp; keep the ratio bounded
    return min(inter / (a.area + b.area - inter), 1.0)


def uvwh_array(boxes) -> np.ndarray:
    """(n, 4) float64 array of (u, v, w, h) from a list of BBox or from rows
    that already hold (u, v, w, h)."""
    if len(boxes) and isinstance(boxes[0], BBox):
        boxes = [(b.u, b.v, b.w, b.h) for b in boxes]
    return np.asarray(boxes, dtype=np.float64).reshape(-1, 4)


def uvwh_edges(uvwh: np.ndarray) -> np.ndarray:
    """(n, 4) array of (left, top, right, bottom) of (u, v, w, h) rows,
    computed as BBox computes its edges."""
    half = uvwh[:, 2:] / 2.0
    return np.concatenate([uvwh[:, :2] - half, uvwh[:, :2] + half], axis=1)


def iou_edges(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise IoU of (left, top, right, bottom) edge arrays: the last
    axis holds the edges, the leading axes broadcast."""
    iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    return np.minimum(inter / (area_a + area_b - inter), 1.0)


def iou_matrix_edges(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU of two (left, top, right, bottom) edge arrays."""
    if len(a) == 0 or len(b) == 0:
        return np.zeros((len(a), len(b)))
    return iou_edges(a[:, None, :], b[None, :, :])


def iou_matrix(boxes_a: list[BBox], boxes_b: list[BBox]) -> np.ndarray:
    """Pairwise IoU, shape (len(boxes_a), len(boxes_b))."""
    return iou_matrix_edges(uvwh_edges(uvwh_array(boxes_a)), uvwh_edges(uvwh_array(boxes_b)))


def cosine_similarity(x1: np.ndarray, x2: np.ndarray) -> float:
    """Cosine of the angle between two vectors, in [-1, 1].

    Raises DegenerateEmbedding if either vector has (near-)zero norm;
    callers that want a soft fallback treat the similarity as 0.
    """
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    if x1.shape != x2.shape:
        raise DimensionMismatch(f"embedding dims differ: {x1.shape} vs {x2.shape}")
    n1 = np.linalg.norm(x1)
    n2 = np.linalg.norm(x2)
    if n1 < ZERO_NORM_EPS or n2 < ZERO_NORM_EPS:
        raise DegenerateEmbedding(f"zero-norm embedding (norms {n1:.3g}, {n2:.3g})")
    return float(np.clip(np.dot(x1, x2) / (n1 * n2), -1.0, 1.0))


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
