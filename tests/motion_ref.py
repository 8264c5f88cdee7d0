"""The per-object motion API that the (x, P) array API replaced, kept as a
test oracle: a Detection record, a KalmanState per track, and scalar
BBox <-> (u, v, s, r) conversions. The array API must match it bit for
bit. Nothing here calls macsort.motion's filter functions or geometry's
box <-> state conversions; the batch kernels are copied as well.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from macsort.errors import InvalidState
from macsort.geometry import BBox
from macsort.motion import DEFAULT_MOTION, MotionConfig

_F = np.eye(7)
_F[0, 4] = _F[1, 5] = _F[2, 6] = 1.0
_H = np.eye(4, 7)
_I7 = np.eye(7)


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


def bbox_to_xysr(b: BBox) -> tuple[float, float, float, float]:
    """Box as (center u, center v, scale s = w*h, aspect r = w/h)."""
    return (b.u, b.v, b.w * b.h, b.w / b.h)


def xysr_to_bbox(u: float, v: float, s: float, r: float) -> BBox:
    """Inverse of bbox_to_xysr: w = sqrt(s*r), h = sqrt(s/r); InvalidState
    when s or r is non-positive."""
    if s <= 0.0 or r <= 0.0:
        raise InvalidState(f"nonphysical box readout: s={s}, r={r}")
    w = math.sqrt(s * r)
    h = math.sqrt(s / r)
    return BBox(u, v, w, h)


@dataclass
class KalmanState:
    """Filter mean (7-vector) and covariance (7x7, kept symmetric PSD)."""

    x: np.ndarray
    P: np.ndarray

    def bbox(self) -> BBox:
        return xysr_to_bbox(self.x[0], self.x[1], self.x[2], self.x[3])

    def copy(self) -> "KalmanState":
        return KalmanState(self.x.copy(), self.P.copy())


def kf_init(det: Detection, config: MotionConfig = DEFAULT_MOTION) -> KalmanState:
    u, v, s, r = bbox_to_xysr(det.bbox)
    x = np.array([u, v, s, r, 0.0, 0.0, 0.0])
    return KalmanState(x, config.p0())


def kf_predict_batch(xs, Ps, config: MotionConfig = DEFAULT_MOTION):
    xs = xs.copy()
    bad = xs[:, 2] + xs[:, 6] <= 0.0
    xs[bad, 6] = 0.0
    xs = xs @ _F.T
    Ps = _F @ Ps @ _F.T + config.q()
    return xs, (Ps + Ps.transpose(0, 2, 1)) / 2.0


def kf_update_batch(xs, Ps, zs, config: MotionConfig = DEFAULT_MOTION):
    innovation = zs - xs[:, :4]
    S = Ps[:, :4, :4] + config.r()
    try:
        K = np.linalg.solve(S, Ps[:, :4, :]).transpose(0, 2, 1)
    except np.linalg.LinAlgError as exc:
        raise InvalidState(f"innovation covariance not invertible: {exc}") from exc
    xs = xs + (K @ innovation[:, :, None])[:, :, 0]
    ikh = _I7 - K @ _H
    Ps = ikh @ Ps @ ikh.transpose(0, 2, 1) + K @ config.r() @ K.transpose(0, 2, 1)
    return xs, (Ps + Ps.transpose(0, 2, 1)) / 2.0


def kf_predict(state: KalmanState, config: MotionConfig = DEFAULT_MOTION) -> KalmanState:
    xs, Ps = kf_predict_batch(state.x[None], state.P[None], config)
    return KalmanState(xs[0], Ps[0])


def kf_update(
    state: KalmanState, det: Detection, config: MotionConfig = DEFAULT_MOTION
) -> KalmanState:
    z = np.array([bbox_to_xysr(det.bbox)])
    xs, Ps = kf_update_batch(state.x[None], state.P[None], z, config)
    return KalmanState(xs[0], Ps[0])


def ocr_reupdate(
    state: KalmanState,
    last_box: BBox,
    det: Detection,
    gap: int,
    config: MotionConfig = DEFAULT_MOTION,
) -> KalmanState:
    if gap < 1:
        raise ValueError(f"gap must be >= 1, got {gap}")
    u0, v0, s0, _ = bbox_to_xysr(last_box)
    u1, v1, s1, r1 = bbox_to_xysr(det.bbox)
    xs, Ps = state.x[None], state.P[None]
    for k in range(1, gap + 1):
        t = k / gap
        z = np.array([[u0 + t * (u1 - u0), v0 + t * (v1 - v0), s0 + t * (s1 - s0), r1]])
        xs, Ps = kf_update_batch(*kf_predict_batch(xs, Ps, config), z, config)
    return KalmanState(xs[0], Ps[0])
