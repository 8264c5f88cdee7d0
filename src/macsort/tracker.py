"""Motion-appearance association with adaptive weighting.

The association cost between a predicted track and a detection mixes three
[0, 1] terms, all expressed as costs to minimize: (1 - IoU), the heading
gap toward the detection scaled by lambda, and half the cosine distance of
the appearance embeddings. The appearance weight adapts to how homogeneous
the frame's detections look: with mu_det the mean cosine of all detection
embeddings to their mean, w_aaw = (1 - mu_det) / (1 - cos(theta)) and
w_amc = 2 - w_aaw. Crowds of near-identical objects (mu_det -> 1) are
therefore associated almost purely by motion, while visually diverse
scenes lean on appearance.

The tracker runs on arrays: the live tracks are one ``Tracks`` table of
filter states and boxes, a frame's detections one ``PromptDetections``
table. A ``BBox`` is built only for each row that MacSort.step reports.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import DimensionMismatch, NonMonotonicFrame
from .geometry import (
    BBox,
    ZERO_NORM_EPS,
    cosine_matrix,
    iou_matrix,
    unit_rows,
    uvwh_to_xysr,
    xysr_to_uvwh,
)
from .motion import (
    DEFAULT_MOTION,
    MotionConfig,
    kf_init,
    kf_predict_batch,
    kf_update_batch,
    ocr_reupdate,
)
from .prompt_filter import PromptDetections


def _check_theta(theta_deg: float) -> None:
    """theta must lie in (0, 90] degrees, and its cosine must fall below 1.0
    in float64 (it rounds to 1.0 below about 6e-7 degrees), or w_aaw would
    divide by zero."""
    if not (0.0 < theta_deg <= 90.0) or math.cos(math.radians(theta_deg)) == 1.0:
        raise ValueError(f"theta_deg must be in (0, 90] with cos(theta) < 1, got {theta_deg}")


@dataclass
class AssocConfig:
    """Association and lifecycle knobs."""

    lam: float = 0.2
    theta_deg: float = 45.0
    iou_gate: float = 0.1
    max_age: int = 30
    min_hits: int = 3
    ema_alpha: float = 0.9
    use_appearance: bool = True
    use_direction: bool = True
    fixed_w_aaw: float | None = None  # freeze both weights (ablations)

    def __post_init__(self):
        _check_theta(self.theta_deg)
        # a frame's summed finite costs must stay finite for linear_assignment
        if not (0.0 <= self.lam <= 1e6):
            raise ValueError(f"lambda must be in [0, 1e6], got {self.lam}")
        # both frozen weights, w_aaw and 2 - w_aaw, must be >= 0
        if self.fixed_w_aaw is not None and not (0.0 <= self.fixed_w_aaw <= 2.0):
            raise ValueError(f"fixed_w_aaw must be in [0, 2], got {self.fixed_w_aaw}")
        if self.max_age < 0:
            raise ValueError(f"max_age must be >= 0, got {self.max_age}")
        if not (0.0 <= self.iou_gate <= 1.0):
            raise ValueError(f"iou_gate must be in [0, 1], got {self.iou_gate}")
        if not (0.0 <= self.ema_alpha <= 1.0):
            raise ValueError(f"ema_alpha must be in [0, 1], got {self.ema_alpha}")


def compute_mu_det(embeddings: np.ndarray, theta_deg: float) -> float:
    """Appearance homogeneity of one frame's detections.

    Embeddings are row-normalized first (magnitudes carry no meaning under
    cosine matching). Degenerate inputs (fewer than two detections, or a
    zero mean vector) return cos(theta) so the adaptive weights fall back
    to the neutral 1/1 split.
    """
    neutral = math.cos(math.radians(theta_deg))
    embeddings = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    if len(embeddings) <= 1:
        return neutral
    unit = unit_rows(embeddings)
    mu = unit.mean(axis=0)
    if np.linalg.norm(mu) < ZERO_NORM_EPS:
        return neutral
    return float(cosine_matrix(unit, mu[None, :]).mean())


def adaptive_weights(mu_det: float, theta_deg: float) -> tuple[float, float]:
    """Appearance weight w_aaw = (1 - mu_det)/(1 - cos theta), motion weight
    w_amc = 2 - w_aaw; they always sum to 2."""
    _check_theta(theta_deg)
    w_aaw = (1.0 - mu_det) / (1.0 - math.cos(math.radians(theta_deg)))
    return w_aaw, 2.0 - w_aaw


@dataclass(eq=False)
class Tracks:
    """The live tracks as one table of parallel arrays, one row per track,
    rows in birth order. Boxes are (u, v, w, h)."""

    ids: np.ndarray  # (m,)
    x: np.ndarray  # (m, 7) filter means
    P: np.ndarray  # (m, 4, 3) filter covariances, as motion.py's blocks
    checkpoint_x: np.ndarray  # (m, 7) filter state as of the last matched observation
    checkpoint_P: np.ndarray  # (m, 4, 3)
    last_box: np.ndarray  # (m, 4) the last matched observation
    prev_center: np.ndarray  # (m, 2) (u, v) of the match before it; NaN until then
    appearance: np.ndarray  # (m, d) unit EMA of the matched embeddings
    hits: np.ndarray  # (m,)
    time_since_update: np.ndarray  # (m,)
    confirmed: np.ndarray  # (m,) bool, set for good at min_hits matches

    @classmethod
    def born(cls, first_id: int, x: np.ndarray, P: np.ndarray, boxes: np.ndarray,
             appearance: np.ndarray, confirmed: bool) -> "Tracks":
        """New rows at initial states x (k, 7), P (k, 4, 3): consecutive
        ids, one hit each and the checkpoint at the initial state."""
        k = len(x)
        return cls(
            np.arange(first_id, first_id + k), x, P, x.copy(), P.copy(), boxes,
            np.full((k, 2), np.nan), appearance, np.ones(k, dtype=np.int64),
            np.zeros(k, dtype=np.int64), np.full(k, confirmed),
        )

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, rows: np.ndarray) -> "Tracks":
        """The rows selected by an index array or boolean mask."""
        return Tracks(*(col[rows] for col in vars(self).values()))

    def concat(self, other: "Tracks") -> "Tracks":
        """This table with the rows of ``other`` after its own; an empty
        table, whose appearance dimension is not yet known, gives ``other``."""
        if not len(self):
            return other
        return Tracks(
            *(np.concatenate([a, b]) for a, b in zip(vars(self).values(), vars(other).values()))
        )


@dataclass
class CostBreakdown:
    """Association cost matrix (rows = tracks, cols = detections) and its
    ingredients. ``total`` holds +inf where the IoU gate forbids a match."""

    iou_term: np.ndarray
    velocity_term: np.ndarray
    appearance_term: np.ndarray
    mu_det: float
    w_aaw: float
    w_amc: float
    total: np.ndarray


def _direction_costs(tracks: Tracks, centers: np.ndarray, lam: float) -> np.ndarray:
    """lam * heading gap / pi for every track/detection pair.

    The heading gap, in [0, pi], is the angle between a track's heading over
    its last two observations and the heading from its last observation
    toward a detection center (rows of ``centers``). Rows of tracks with
    fewer than two observations stay zero.
    """
    m, n = len(tracks), len(centers)
    out = np.zeros((m, n))
    rows = np.flatnonzero(~np.isnan(tracks.prev_center[:, 0]))
    if not len(rows) or n == 0:
        return out
    prev, last = tracks.prev_center[rows], tracks.last_box[rows, :2]
    theta_track = np.arctan2(last[:, 1] - prev[:, 1], last[:, 0] - prev[:, 0])
    theta_new = np.arctan2(
        centers[None, :, 1] - last[:, 1, None], centers[None, :, 0] - last[:, 0, None]
    )
    delta = np.abs(np.mod(theta_track[:, None] - theta_new + math.pi, 2 * math.pi) - math.pi)
    out[rows] = lam * delta / math.pi
    return out


def build_cost_matrix(
    tracks: Tracks,
    dets: PromptDetections,
    cfg: AssocConfig,
) -> CostBreakdown:
    """Assemble the weighted cost matrix for already-predicted tracks."""
    m, n = len(tracks), len(dets)
    det_uvwh, det_embs_unit = dets.boxes, unit_rows(dets.features)

    iou = iou_matrix(xysr_to_uvwh(tracks.x), det_uvwh)
    iou_term = 1.0 - iou

    if cfg.use_direction and m and n:
        velocity_term = _direction_costs(tracks, det_uvwh[:, :2], cfg.lam)
    else:
        velocity_term = np.zeros((m, n))

    if cfg.use_appearance and m and n:
        apps = tracks.appearance
        if apps.shape[1] != det_embs_unit.shape[1]:
            raise DimensionMismatch(
                f"track appearance dim {apps.shape[1]} vs "
                f"detection embedding dim {det_embs_unit.shape[1]}"
            )
        # track appearances are unit by construction; zero rows fall out as 0
        appearance_term = (1.0 - np.clip(apps @ det_embs_unit.T, -1.0, 1.0)) / 2.0
    else:
        appearance_term = np.zeros((m, n))

    mu_det = compute_mu_det(det_embs_unit, cfg.theta_deg)
    if cfg.fixed_w_aaw is not None:
        w_aaw, w_amc = cfg.fixed_w_aaw, 2.0 - cfg.fixed_w_aaw
    else:
        w_aaw, w_amc = adaptive_weights(mu_det, cfg.theta_deg)

    total = w_amc * iou_term + velocity_term + w_aaw * appearance_term
    total[iou < cfg.iou_gate] = np.inf
    return CostBreakdown(
        iou_term=iou_term,
        velocity_term=velocity_term,
        appearance_term=appearance_term,
        mu_det=mu_det,
        w_aaw=w_aaw,
        w_amc=w_amc,
        total=total,
    )


def linear_assignment(
    cost: np.ndarray,
) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Minimum-cost one-to-one assignment; +inf entries are forbidden.

    Returns (matches sorted by (row, col), unmatched rows, unmatched cols).
    Infeasible entries are replaced by a value larger than any all-finite
    assignment before solving, then filtered out of the result.
    """
    cost = np.asarray(cost, dtype=np.float64)
    m, n = cost.shape
    finite = np.isfinite(cost)
    if not finite.any():
        return [], list(range(m)), list(range(n))
    big = float(np.abs(cost[finite]).sum() + np.abs(cost[finite]).max() + 1.0)
    rows, cols = linear_sum_assignment(np.where(finite, cost, big))
    matches = sorted(
        (int(r), int(c)) for r, c in zip(rows, cols) if finite[r, c]
    )
    matched_r = {r for r, _ in matches}
    matched_c = {c for _, c in matches}
    return (
        matches,
        [r for r in range(m) if r not in matched_r],
        [c for c in range(n) if c not in matched_c],
    )


class MacSort:
    """Tracking-by-detection with adaptive motion/appearance association.

    One instance per sequence; feed frames in strictly increasing order via
    step(). Output rows are (track id, box) for confirmed tracks matched in
    the current frame; a track is confirmed for good once it has min_hits
    matches. While the sequence itself is younger than min_hits frames the
    probation is waived, so tracking output covers a sequence from its
    first frame.
    """

    def __init__(
        self,
        config: AssocConfig | None = None,
        motion: MotionConfig = DEFAULT_MOTION,
    ):
        self.config = config or AssocConfig()
        self.motion = motion
        self.tracks = Tracks.born(1, np.zeros((0, 7)), np.zeros((0, 4, 3)), np.zeros((0, 4)),
                                  np.zeros((0, 0)), False)
        self._next_id = 1
        self._frames_seen = 0
        self._last_frame: int | None = None
        self.last_breakdown: CostBreakdown | None = None

    @property
    def idle(self) -> bool:
        """True when a frame without detections would change nothing: no
        track is live and the sequence is past its min_hits waiver."""
        return not len(self.tracks) and self._frames_seen > self.config.min_hits

    def _apply_updates(self, matches: list[tuple[int, int]], dets: PromptDetections,
                       det_embs_unit: np.ndarray) -> None:
        trk, det_uvwh = self.tracks, dets.boxes
        rows = np.array([m for m, _ in matches], dtype=np.intp)
        cols = np.array([n for _, n in matches], dtype=np.intp)
        gaps = trk.time_since_update[rows]
        fresh_r, fresh_c = rows[gaps == 1], cols[gaps == 1]
        if len(fresh_r):
            trk.x[fresh_r], trk.P[fresh_r] = kf_update_batch(
                trk.x[fresh_r], trk.P[fresh_r], uvwh_to_xysr(det_uvwh[fresh_c]), self.motion
            )
        for m, n, gap in zip(rows[gaps > 1], cols[gaps > 1], gaps[gaps > 1]):
            trk.x[m], trk.P[m] = ocr_reupdate(
                (trk.checkpoint_x[m], trk.checkpoint_P[m]), trk.last_box[m], det_uvwh[n],
                int(gap), self.motion,
            )

        # EMA appearance refresh, batched over the matched pairs
        if len(rows):
            apps, embs = trk.appearance[rows], det_embs_unit[cols]
            live = np.einsum("ij,ij->i", embs, embs) >= ZERO_NORM_EPS
            alpha = self.config.ema_alpha
            blended = alpha * apps + (1.0 - alpha) * embs
            if not live.all():
                blended = np.where(live[:, None], blended, apps)
            trk.appearance[rows] = unit_rows(blended)

        trk.checkpoint_x[rows], trk.checkpoint_P[rows] = trk.x[rows], trk.P[rows]
        trk.prev_center[rows] = trk.last_box[rows, :2]
        trk.last_box[rows] = det_uvwh[cols]
        trk.hits[rows] += 1
        trk.time_since_update[rows] = 0
        trk.confirmed[rows] |= trk.hits[rows] >= self.config.min_hits

    def step(self, dets: PromptDetections, frame: int) -> list[tuple[int, BBox]]:
        """Advance one frame's detection table; returns (track id, box) for
        reportable tracks."""
        if self._last_frame is not None and frame <= self._last_frame:
            raise NonMonotonicFrame(f"frame {frame} after frame {self._last_frame}")
        self._last_frame = frame
        self._frames_seen += 1
        cfg, trk = self.config, self.tracks

        if len(trk):
            trk.x, trk.P = kf_predict_batch(trk.x, trk.P, self.motion)
            trk.time_since_update += 1

        det_embs_unit = unit_rows(dets.features)
        if len(trk) and len(dets):
            breakdown = build_cost_matrix(trk, dets, cfg)
            matches, _, unmatched_dets = linear_assignment(breakdown.total)
            self.last_breakdown = breakdown
        else:
            matches, unmatched_dets = [], list(range(len(dets)))
            self.last_breakdown = None

        self._apply_updates(matches, dets, det_embs_unit)

        if unmatched_dets:
            born = dets.boxes[unmatched_dets]
            xs, Ps = zip(*(kf_init(box, self.motion) for box in born))
            trk = trk.concat(Tracks.born(
                self._next_id, np.stack(xs), np.stack(Ps), born, det_embs_unit[unmatched_dets],
                cfg.min_hits <= 1,
            ))
            self._next_id += len(born)

        reported = (trk.time_since_update == 0) & (
            trk.confirmed | (self._frames_seen <= cfg.min_hits)
        )
        boxes = xysr_to_uvwh(trk.x[reported, :4]).tolist()
        outputs = [(tid, BBox(*box)) for tid, box in zip(trk.ids[reported].tolist(), boxes)]

        alive = trk.time_since_update <= cfg.max_age
        self.tracks = trk if alive.all() else trk.take(alive)
        return outputs


def track_sequence(
    per_frame: dict[int, PromptDetections],
    config: AssocConfig | None = None,
    motion: MotionConfig = DEFAULT_MOTION,
) -> list[tuple[int, int, BBox]]:
    """Track one sequence through frames 1..max(per_frame), feeding no
    detections to frames absent from ``per_frame``; returns the
    (frame, track id, box) rows of every frame in order. While the tracker
    is idle, absent frames are skipped: stepping them would change nothing."""
    tracker = MacSort(config, motion)
    given, empty = sorted(per_frame), PromptDetections.empty()
    rows, frame = [], 1
    while given and frame <= given[-1]:
        if frame not in per_frame and tracker.idle:
            frame = given[bisect.bisect(given, frame)]
        rows.extend(
            (frame, tid, box) for tid, box in tracker.step(per_frame.get(frame, empty), frame)
        )
        frame += 1
    return rows
