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
four rows. The noise levels are one fixed set, as in SORT and OC-SORT:
the module constants P0 (initial covariance, as (4, 3) blocks), Q_POS and
Q_VEL (process noise of each block's position and velocity) and R
(measurement noise of each block).

A filter state is a mean/covariance pair ``(x, P)``, stacked as (n, 7)
and (n, 4, 3) for the batch steps, and boxes are (u, v, w, h) rows,
measured through geometry.xysr_of. Each block's predict and update is
written once, as elementwise arithmetic: the batch kernels run it on numpy
columns, the occlusion re-update on Python floats.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidState
from .geometry import uvwh_to_xysr, xysr_of

P0 = np.array([[10.0, 0.0, 1000.0]] * 3 + [[10.0, 0.0, 0.0]])
Q_POS = 1.0
Q_VEL = (1e-2, 1e-2, 1e-4, 0.0)  # per u, v, s, r row; r has no velocity
R = (1.0, 1.0, 10.0, 10.0)


def kf_init(box: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fresh filter mean and covariance at a (u, v, w, h) box: zero velocity,
    large velocity uncertainty."""
    return np.concatenate([uvwh_to_xysr(box[None])[0], np.zeros(3)]), P0.copy()


def _predict_block(pos, vel, a, b, c, q_vel):
    """Constant-velocity predict of one block: mean (pos, vel), covariance
    [[a, b], [b, c]]. Elementwise, so it runs alike on Python floats and on
    numpy columns."""
    return pos + vel, a + 2.0 * b + c + Q_POS, b + c, c + q_vel


def _update_block(pos, vel, a, b, c, z, S):
    """Update of one block with a measurement z of pos; S = a + r is the
    innovation variance, which the caller has checked is non-zero.
    Elementwise, like _predict_block."""
    k_pos, k_vel = a / S, b / S
    innovation = z - pos
    return (pos + k_pos * innovation, vel + k_vel * innovation,
            a - k_pos * a, b - k_pos * b, c - k_vel * b)


_SINGULAR = "innovation covariance not invertible: zero variance"


def kf_predict_batch(xs: np.ndarray, Ps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Advance stacked states xs (n, 7), Ps (n, 4, 3) one frame under the
    constant-velocity model."""
    xs = xs.copy()
    xs[xs[:, 2] + xs[:, 6] <= 0.0, 6] = 0.0  # never predict a non-positive scale
    out = np.empty_like(Ps)
    # r has no velocity: its mean stays as it is
    xs[:, :3], out[..., 0], out[..., 1], out[..., 2] = _predict_block(
        xs[:, :3], xs[:, 4:], Ps[..., 0], Ps[..., 1], Ps[..., 2], Q_VEL
    )
    return xs, out


def kf_update_batch(
    xs: np.ndarray, Ps: np.ndarray, zs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Measurement update of stacked states with zs (n, 4) = (u, v, s, r)."""
    a, b, c = Ps[..., 0], Ps[..., 1], Ps[..., 2]
    S = a + R
    if (S == 0.0).any():  # before dividing: 0/0 would warn and leave NaN in the state
        raise InvalidState(_SINGULAR)
    vel = np.zeros((len(xs), 4))  # the r row's velocity is 0 (its b is 0)
    vel[:, :3] = xs[:, 4:]
    out_x, out = np.empty_like(xs), np.empty_like(Ps)
    out_x[:, :4], vel, out[..., 0], out[..., 1], out[..., 2] = _update_block(
        xs[:, :4], vel, a, b, c, zs, S
    )
    out_x[:, 4:] = vel[:, :3]
    return out_x, out


def ocr_reupdate(
    state: tuple[np.ndarray, np.ndarray],
    last_box: np.ndarray,
    box: np.ndarray,
    gap: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Re-filter across an occlusion gap through a virtual trajectory.

    ``state`` must be the filter mean and covariance ``(x, P)`` as of the
    last real observation ``last_box`` (tracks keep a checkpoint there);
    ``gap`` is the number of frames from that observation to ``box``, both
    (u, v, w, h) rows. The virtual observations interpolate linearly in
    (u, v, s) with the aspect ratio held at the new observation, so a gap
    of 1 degenerates to a plain predict + update.

    Each virtual step equals kf_predict_batch + kf_update_batch on a batch
    of one, bit for bit, but runs on Python floats: numpy calls on
    4-element columns cost more than their arithmetic.
    """
    if gap < 1:
        raise ValueError(f"gap must be >= 1, got {gap}")
    (u0, v0, s0, _), (u1, v1, s1, r1) = xysr_of(*last_box.tolist()), xysr_of(*box.tolist())
    x, blocks = state[0].tolist(), state[1].tolist()
    pos, vel = x[:4], x[4:] + [0.0]  # r has no velocity
    for k in range(1, gap + 1):
        t = k / gap
        z = (u0 + t * (u1 - u0), v0 + t * (v1 - v0), s0 + t * (s1 - s0), r1)
        if pos[2] + vel[2] <= 0.0:
            vel[2] = 0.0
        for i, (a, b, c) in enumerate(blocks):
            p, a, b, c = _predict_block(pos[i], vel[i], a, b, c, Q_VEL[i])
            S = a + R[i]
            if S == 0.0:
                raise InvalidState(_SINGULAR)
            pos[i], vel[i], *blocks[i] = _update_block(p, vel[i], a, b, c, z[i], S)
    return np.array(pos + vel[:3]), np.array(blocks)
