"""Constant-velocity Kalman filtering over (u, v, s, r) boxes.

State vector: [u, v, s, r, du, dv, ds] with aspect ratio held constant.
Tracks re-found after an occlusion gap are re-filtered along a virtual
trajectory interpolated between the last real observation and the new one,
which undoes the covariance inflation accumulated while coasting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


@dataclass
class ObservationHistory:
    """Matched observations of one track, frames strictly increasing."""

    capacity: int = 30
    entries: list[tuple[int, BBox]] = field(default_factory=list)

    def append(self, frame: int, box: BBox) -> None:
        if self.entries and frame <= self.entries[-1][0]:
            raise ValueError(f"observation frames must increase: {frame}")
        self.entries.append((frame, box))
        if len(self.entries) > self.capacity:
            del self.entries[: len(self.entries) - self.capacity]

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def last(self) -> tuple[int, BBox]:
        return self.entries[-1]


def kf_init(det: Detection, config: MotionConfig = DEFAULT_MOTION) -> KalmanState:
    """Fresh filter state at a detection: zero velocity, large velocity
    uncertainty."""
    u, v, s, r = bbox_to_xysr(det.bbox)
    x = np.array([u, v, s, r, 0.0, 0.0, 0.0])
    return KalmanState(x, config.p0())


def kf_predict(state: KalmanState, config: MotionConfig = DEFAULT_MOTION) -> KalmanState:
    """Advance one frame under the constant-velocity model."""
    x = state.x.copy()
    if x[2] + x[6] <= 0.0:
        x[6] = 0.0  # never predict a non-positive scale
    x = _F @ x
    P = _F @ state.P @ _F.T + config.q()
    return KalmanState(x, (P + P.T) / 2.0)


def _update_z(state: KalmanState, z: np.ndarray, config: MotionConfig) -> KalmanState:
    innovation = z - _H @ state.x
    S = _H @ state.P @ _H.T + config.r()
    try:
        K = np.linalg.solve(S, _H @ state.P).T
    except np.linalg.LinAlgError as exc:
        raise InvalidState(f"innovation covariance not invertible: {exc}") from exc
    x = state.x + K @ innovation
    ikh = _I7 - K @ _H
    P = ikh @ state.P @ ikh.T + K @ config.r() @ K.T  # Joseph form keeps P PSD
    return KalmanState(x, (P + P.T) / 2.0)


def kf_update(
    state: KalmanState, det: Detection, config: MotionConfig = DEFAULT_MOTION
) -> KalmanState:
    """Standard measurement update with z = (u, v, s, r) of the detection."""
    return _update_z(state, np.array(bbox_to_xysr(det.bbox)), config)


def kf_predict_batch(
    xs: np.ndarray, Ps: np.ndarray, config: MotionConfig = DEFAULT_MOTION
) -> tuple[np.ndarray, np.ndarray]:
    """kf_predict over stacked states: xs (n, 7), Ps (n, 7, 7)."""
    xs = xs.copy()
    bad = xs[:, 2] + xs[:, 6] <= 0.0
    xs[bad, 6] = 0.0
    xs = xs @ _F.T
    Ps = _F @ Ps @ _F.T + config.q()
    return xs, (Ps + Ps.transpose(0, 2, 1)) / 2.0


def kf_update_batch(
    xs: np.ndarray,
    Ps: np.ndarray,
    zs: np.ndarray,
    config: MotionConfig = DEFAULT_MOTION,
) -> tuple[np.ndarray, np.ndarray]:
    """kf_update over stacked states with measurements zs (n, 4)."""
    innovation = zs - xs[:, :4]
    S = Ps[:, :4, :4] + config.r()
    try:
        K = np.linalg.solve(S, Ps[:, :4, :]).transpose(0, 2, 1)  # (n, 7, 4)
    except np.linalg.LinAlgError as exc:
        raise InvalidState(f"innovation covariance not invertible: {exc}") from exc
    xs = xs + (K @ innovation[:, :, None])[:, :, 0]
    ikh = _I7 - K @ _H
    Ps = ikh @ Ps @ ikh.transpose(0, 2, 1) + K @ config.r() @ K.transpose(0, 2, 1)
    return xs, (Ps + Ps.transpose(0, 2, 1)) / 2.0


def ocr_reupdate(
    state: KalmanState,
    history: ObservationHistory,
    det: Detection,
    gap: int,
    config: MotionConfig = DEFAULT_MOTION,
) -> KalmanState:
    """Re-filter across an occlusion gap through a virtual trajectory.

    ``state`` must be the filter state as of the last real observation
    (tracks keep a checkpoint there); ``gap`` is the number of frames from
    that observation to ``det``. The virtual observations interpolate
    linearly in (u, v, s) with the aspect ratio held at the new observation,
    so a gap of 1 degenerates to a plain predict + update.
    """
    if gap < 1:
        raise ValueError(f"gap must be >= 1, got {gap}")
    if not history.entries:
        raise ValueError("occlusion recovery needs at least one past observation")
    u0, v0, s0, _ = bbox_to_xysr(history.last[1])
    u1, v1, s1, r1 = bbox_to_xysr(det.bbox)
    out = state
    for k in range(1, gap + 1):
        t = k / gap
        z = np.array([u0 + t * (u1 - u0), v0 + t * (v1 - v0), s0 + t * (s1 - s0), r1])
        out = _update_z(kf_predict(out, config), z, config)
    return out


def _wrap_angle(delta: np.ndarray) -> np.ndarray:
    return np.abs(np.mod(delta + math.pi, 2.0 * math.pi) - math.pi)


def velocity_direction_costs(
    history: ObservationHistory, centers: np.ndarray
) -> np.ndarray:
    """Angular gap, in [0, pi], between a track's observed heading and the
    headings toward candidate detection centers (rows of ``centers``).

    Zero when the history holds fewer than two observations (no heading).
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    if len(history) < 2:
        return np.zeros(len(centers))
    (_, prev), (_, last) = history.entries[-2], history.entries[-1]
    theta_track = math.atan2(last.v - prev.v, last.u - prev.u)
    theta_new = np.arctan2(centers[:, 1] - last.v, centers[:, 0] - last.u)
    return _wrap_angle(theta_track - theta_new)


def velocity_direction_cost(history: ObservationHistory, det: Detection) -> float:
    """Single-detection form of velocity_direction_costs."""
    return float(
        velocity_direction_costs(history, np.array([[det.bbox.u, det.bbox.v]]))[0]
    )
