"""Constant-velocity Kalman filtering over (u, v, s, r) boxes.

State vector: [u, v, s, r, du, dv, ds] with aspect ratio held constant.
Tracks re-found after an occlusion gap are re-filtered along a virtual
trajectory interpolated between the last real observation and the new one,
which undoes the covariance inflation accumulated while coasting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidState
from .geometry import BBox, Detection, bbox_to_xysr, xysr_to_bbox

_F = np.eye(7)
_F[0, 4] = _F[1, 5] = _F[2, 6] = 1.0
_H = np.eye(4, 7)
_I7 = np.eye(7)


@dataclass(frozen=True)
class MotionConfig:
    """Noise levels, following the SORT family conventions."""

    p0_pos: float = 10.0
    p0_vel: float = 1000.0
    q_pos: float = 1.0
    q_vel: float = 1e-2
    q_scale_vel: float = 1e-4
    r_pos: float = 1.0
    r_size: float = 10.0

    def __post_init__(self):
        object.__setattr__(
            self,
            "_q",
            np.diag([self.q_pos] * 4 + [self.q_vel, self.q_vel, self.q_scale_vel]),
        )
        object.__setattr__(
            self, "_r", np.diag([self.r_pos, self.r_pos, self.r_size, self.r_size])
        )

    def q(self) -> np.ndarray:
        """Process noise; cached, treat as read-only."""
        return self._q

    def r(self) -> np.ndarray:
        """Measurement noise; cached, treat as read-only."""
        return self._r

    def p0(self) -> np.ndarray:
        return np.diag([self.p0_pos] * 4 + [self.p0_vel] * 3)


DEFAULT_MOTION = MotionConfig()


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
    """Fresh filter state at a detection: zero velocity, large velocity
    uncertainty."""
    u, v, s, r = bbox_to_xysr(det.bbox)
    x = np.array([u, v, s, r, 0.0, 0.0, 0.0])
    return KalmanState(x, config.p0())


def kf_predict_batch(
    xs: np.ndarray, Ps: np.ndarray, config: MotionConfig = DEFAULT_MOTION
) -> tuple[np.ndarray, np.ndarray]:
    """Advance stacked states xs (n, 7), Ps (n, 7, 7) one frame under the
    constant-velocity model."""
    xs = xs.copy()
    bad = xs[:, 2] + xs[:, 6] <= 0.0
    xs[bad, 6] = 0.0  # never predict a non-positive scale
    xs = xs @ _F.T
    Ps = _F @ Ps @ _F.T + config.q()
    return xs, (Ps + Ps.transpose(0, 2, 1)) / 2.0


def kf_update_batch(
    xs: np.ndarray,
    Ps: np.ndarray,
    zs: np.ndarray,
    config: MotionConfig = DEFAULT_MOTION,
) -> tuple[np.ndarray, np.ndarray]:
    """Measurement update of stacked states with zs (n, 4) = (u, v, s, r)."""
    innovation = zs - xs[:, :4]
    S = Ps[:, :4, :4] + config.r()
    try:
        K = np.linalg.solve(S, Ps[:, :4, :]).transpose(0, 2, 1)  # (n, 7, 4)
    except np.linalg.LinAlgError as exc:
        raise InvalidState(f"innovation covariance not invertible: {exc}") from exc
    xs = xs + (K @ innovation[:, :, None])[:, :, 0]
    ikh = _I7 - K @ _H
    # Joseph form keeps P PSD
    Ps = ikh @ Ps @ ikh.transpose(0, 2, 1) + K @ config.r() @ K.transpose(0, 2, 1)
    return xs, (Ps + Ps.transpose(0, 2, 1)) / 2.0


def kf_predict(state: KalmanState, config: MotionConfig = DEFAULT_MOTION) -> KalmanState:
    """Advance one state one frame: kf_predict_batch on a batch of one."""
    xs, Ps = kf_predict_batch(state.x[None], state.P[None], config)
    return KalmanState(xs[0], Ps[0])


def kf_update(
    state: KalmanState, det: Detection, config: MotionConfig = DEFAULT_MOTION
) -> KalmanState:
    """Measurement update with z = (u, v, s, r) of the detection:
    kf_update_batch on a batch of one."""
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
    """Re-filter across an occlusion gap through a virtual trajectory.

    ``state`` must be the filter state as of the last real observation
    ``last_box`` (tracks keep a checkpoint there); ``gap`` is the number of
    frames from that observation to ``det``. The virtual observations
    interpolate linearly in (u, v, s) with the aspect ratio held at the new
    observation, so a gap of 1 degenerates to a plain predict + update.
    """
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
