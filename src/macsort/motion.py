"""Constant-velocity Kalman filtering over (u, v, s, r) boxes.

State vector: [u, v, s, r, du, dv, ds] with aspect ratio held constant.
Tracks re-found after an occlusion gap are re-filtered along a virtual
trajectory interpolated between the last real observation and the new one,
which undoes the covariance inflation accumulated while coasting.

F, H, Q, R and P0 all split over the same four blocks, (u, du), (v, dv),
(s, ds) and r, so every 7x7 covariance entry outside them starts at 0 and
stays exactly 0: the filter is four independent scalar-measurement
filters. A covariance is stored as its (4, 3) blocks, one (var_pos,
cov_pos_vel, var_vel) row per measured u, v, s, r; the r row has no
velocity, so its last two entries stay 0 and the same formulas serve all
four rows.

Everything runs on arrays: a filter state is a mean/covariance pair
``(x, P)``, stacked as (n, 7) and (n, 4, 3) for the batch steps, and boxes
are (u, v, w, h) rows, converted by geometry.uvwh_to_xysr.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidState
from .geometry import uvwh_to_xysr


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

    def p0(self) -> np.ndarray:
        """Initial covariance as (4, 3) blocks."""
        return np.array([[self.p0_pos, 0.0, self.p0_vel]] * 3 + [[self.p0_pos, 0.0, 0.0]])


DEFAULT_MOTION = MotionConfig()


def kf_init(box: np.ndarray,
            config: MotionConfig = DEFAULT_MOTION) -> tuple[np.ndarray, np.ndarray]:
    """Fresh filter mean and covariance at a (u, v, w, h) box: zero velocity,
    large velocity uncertainty."""
    return np.concatenate([uvwh_to_xysr(box[None])[0], np.zeros(3)]), config.p0()


def kf_predict_batch(
    xs: np.ndarray, Ps: np.ndarray, config: MotionConfig = DEFAULT_MOTION
) -> tuple[np.ndarray, np.ndarray]:
    """Advance stacked states xs (n, 7), Ps (n, 4, 3) one frame under the
    constant-velocity model."""
    xs = xs.copy()
    xs[xs[:, 2] + xs[:, 6] <= 0.0, 6] = 0.0  # never predict a non-positive scale
    xs[:, :3] += xs[:, 4:]
    a, b, c = Ps[..., 0], Ps[..., 1], Ps[..., 2]
    out = np.empty_like(Ps)
    out[..., 0] = a + 2.0 * b + c + config.q_pos
    out[..., 1] = b + c
    out[..., 2] = c + (config.q_vel, config.q_vel, config.q_scale_vel, 0.0)
    return xs, out


def kf_update_batch(
    xs: np.ndarray,
    Ps: np.ndarray,
    zs: np.ndarray,
    config: MotionConfig = DEFAULT_MOTION,
) -> tuple[np.ndarray, np.ndarray]:
    """Measurement update of stacked states with zs (n, 4) = (u, v, s, r)."""
    a, b, c = Ps[..., 0], Ps[..., 1], Ps[..., 2]
    S = a + (config.r_pos, config.r_pos, config.r_size, config.r_size)
    if (S == 0.0).any():  # before dividing: 0/0 would warn and leave NaN in the state
        raise InvalidState("innovation covariance not invertible: zero variance")
    k_pos, k_vel = a / S, b / S
    innovation = zs - xs[:, :4]
    xs = xs.copy()
    xs[:, :4] += k_pos * innovation
    xs[:, 4:] += k_vel[:, :3] * innovation[:, :3]
    out = np.empty_like(Ps)
    out[..., 0] = a - k_pos * a
    out[..., 1] = b - k_pos * b
    out[..., 2] = c - k_vel * b
    return xs, out


def ocr_reupdate(
    state: tuple[np.ndarray, np.ndarray],
    last_box: np.ndarray,
    box: np.ndarray,
    gap: int,
    config: MotionConfig = DEFAULT_MOTION,
) -> tuple[np.ndarray, np.ndarray]:
    """Re-filter across an occlusion gap through a virtual trajectory.

    ``state`` must be the filter mean and covariance ``(x, P)`` as of the
    last real observation ``last_box`` (tracks keep a checkpoint there);
    ``gap`` is the number of frames from that observation to ``box``, both
    (u, v, w, h) rows. The virtual observations interpolate linearly in
    (u, v, s) with the aspect ratio held at the new observation, so a gap
    of 1 degenerates to a plain predict + update.
    """
    if gap < 1:
        raise ValueError(f"gap must be >= 1, got {gap}")
    (u0, v0, s0, _), (u1, v1, s1, r1) = uvwh_to_xysr(np.stack([last_box, box])).tolist()
    xs, Ps = state[0][None], state[1][None]
    for k in range(1, gap + 1):
        t = k / gap
        z = np.array([[u0 + t * (u1 - u0), v0 + t * (v1 - v0), s0 + t * (s1 - s0), r1]])
        xs, Ps = kf_update_batch(*kf_predict_batch(xs, Ps, config), z, config)
    return xs[0], Ps[0]
