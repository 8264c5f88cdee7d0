"""The per-object motion API that the (x, P) array API replaced, kept as a
test oracle: a Detection record, a KalmanState per track, scalar
BBox <-> (u, v, s, r) conversions, and the filter as full 7x7 matrix
algebra (F P F^T + Q, a solved gain and the Joseph form). Nothing here
calls macsort.motion's filter functions or geometry's box <-> state
conversions, and it spells out the noise levels itself, the SORT
family's, so that the comparisons check macsort.motion's constants too.
``expand`` turns macsort.motion's (4, 3) covariance blocks into the 7x7
matrices this module carries.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from macsort.errors import InvalidState
from macsort.geometry import BBox

_F = np.eye(7)
_F[0, 4] = _F[1, 5] = _F[2, 6] = 1.0
_H = np.eye(4, 7)
_I7 = np.eye(7)
_POS, _VEL = [0, 1, 2, 3], [4, 5, 6]  # state index of each block's position, velocity
# the noise levels, spelled out here rather than read from macsort.motion
P0 = np.diag([10.0] * 4 + [1000.0] * 3)  # initial covariance
Q = np.diag([1.0] * 4 + [1e-2, 1e-2, 1e-4])  # process noise
R = np.diag([1.0, 1.0, 10.0, 10.0])  # measurement noise


def expand(blocks: np.ndarray) -> np.ndarray:
    """(..., 4, 3) covariance blocks as the (..., 7, 7) matrices they stand
    for, zero outside the blocks."""
    P = np.zeros(blocks.shape[:-2] + (7, 7))
    P[..., _POS, _POS] = blocks[..., 0]
    P[..., _POS[:3], _VEL] = P[..., _VEL, _POS[:3]] = blocks[..., :3, 1]
    P[..., _VEL, _VEL] = blocks[..., :3, 2]
    return P


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


def kf_init(det: Detection) -> KalmanState:
    u, v, s, r = bbox_to_xysr(det.bbox)
    x = np.array([u, v, s, r, 0.0, 0.0, 0.0])
    return KalmanState(x, P0.copy())


def kf_predict_batch(xs, Ps):
    xs = xs.copy()
    bad = xs[:, 2] + xs[:, 6] <= 0.0
    xs[bad, 6] = 0.0
    xs = xs @ _F.T
    Ps = _F @ Ps @ _F.T + Q
    return xs, (Ps + Ps.transpose(0, 2, 1)) / 2.0


def kf_update_batch(xs, Ps, zs):
    innovation = zs - xs[:, :4]
    S = Ps[:, :4, :4] + R
    try:
        K = np.linalg.solve(S, Ps[:, :4, :]).transpose(0, 2, 1)
    except np.linalg.LinAlgError as exc:
        raise InvalidState(f"innovation covariance not invertible: {exc}") from exc
    xs = xs + (K @ innovation[:, :, None])[:, :, 0]
    ikh = _I7 - K @ _H
    Ps = ikh @ Ps @ ikh.transpose(0, 2, 1) + K @ R @ K.transpose(0, 2, 1)
    return xs, (Ps + Ps.transpose(0, 2, 1)) / 2.0


def kf_predict(state: KalmanState) -> KalmanState:
    xs, Ps = kf_predict_batch(state.x[None], state.P[None])
    return KalmanState(xs[0], Ps[0])


def kf_update(state: KalmanState, det: Detection) -> KalmanState:
    z = np.array([bbox_to_xysr(det.bbox)])
    xs, Ps = kf_update_batch(state.x[None], state.P[None], z)
    return KalmanState(xs[0], Ps[0])


def ocr_reupdate(
    state: KalmanState,
    last_box: BBox,
    det: Detection,
    gap: int,
) -> KalmanState:
    if gap < 1:
        raise ValueError(f"gap must be >= 1, got {gap}")
    u0, v0, s0, _ = bbox_to_xysr(last_box)
    u1, v1, s1, r1 = bbox_to_xysr(det.bbox)
    xs, Ps = state.x[None], state.P[None]
    for k in range(1, gap + 1):
        t = k / gap
        z = np.array([[u0 + t * (u1 - u0), v0 + t * (v1 - v0), s0 + t * (s1 - s0), r1]])
        xs, Ps = kf_update_batch(*kf_predict_batch(xs, Ps), z)
    return KalmanState(xs[0], Ps[0])
