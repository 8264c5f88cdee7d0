"""Core value types (boxes, detections) and similarity primitives.

Boxes are stored center-based as (u, v, w, h); the MOT top-left convention
is converted at the I/O layer only. All reals are float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class Detection:
    """One detected box in a frame, with confidence and appearance feature."""

    frame: int
    bbox: BBox
    confidence: float
    embedding: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.frame < 0:
            raise ValueError(f"frame must be non-negative, got {self.frame}")
        if not (0.0 <= self.confidence <= 1.0):
            raise ValueError(f"confidence must be in [0,1], got {self.confidence}")
        object.__setattr__(
            self, "embedding", np.asarray(self.embedding, dtype=np.float64)
        )


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


def bbox_to_xysr(b: BBox) -> tuple[float, float, float, float]:
    """Box as (center u, center v, scale s = w*h, aspect r = w/h)."""
    return (b.u, b.v, b.w * b.h, b.w / b.h)


def xysr_to_bbox(u: float, v: float, s: float, r: float) -> BBox:
    """Inverse of bbox_to_xysr: w = sqrt(s*r), h = sqrt(s/r).

    Raises InvalidState when s or r is non-positive (filter drift produced
    a nonphysical scale).
    """
    if s <= 0.0 or r <= 0.0:
        raise InvalidState(f"nonphysical box readout: s={s}, r={r}")
    w = math.sqrt(s * r)
    h = math.sqrt(s / r)
    return BBox(u, v, w, h)
