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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import DimensionMismatch, InvalidState, NonMonotonicFrame
from .geometry import (
    BBox,
    Detection,
    ZERO_NORM_EPS,
    bbox_to_xysr,
    cosine_matrix,
    iou_matrix_edges,
    unit_rows,
)
from .motion import (
    DEFAULT_MOTION,
    KalmanState,
    MotionConfig,
    kf_init,
    kf_predict_batch,
    kf_update_batch,
    ocr_reupdate,
)

TENTATIVE = "tentative"
CONFIRMED = "confirmed"
REMOVED = "removed"


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
        if not (0.0 < self.theta_deg <= 90.0):
            raise ValueError(f"theta_deg must be in (0, 90], got {self.theta_deg}")
        if not (0.0 <= self.lam < math.inf):
            raise ValueError(f"lambda must be finite and >= 0, got {self.lam}")
        if self.fixed_w_aaw is not None and not math.isfinite(self.fixed_w_aaw):
            raise ValueError(f"fixed_w_aaw must be finite, got {self.fixed_w_aaw}")
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
    if not (0.0 < theta_deg <= 90.0):
        raise ValueError(f"theta_deg must be in (0, 90], got {theta_deg}")
    w_aaw = (1.0 - mu_det) / (1.0 - math.cos(math.radians(theta_deg)))
    return w_aaw, 2.0 - w_aaw


@dataclass
class Track:
    """One live trajectory."""

    id: int
    state: KalmanState
    checkpoint: KalmanState  # filter state as of the last matched observation
    last_box: BBox  # the last matched observation
    appearance: np.ndarray
    prev_center: tuple[float, float] | None = None  # (u, v) of the match before it
    hits: int = 1
    age: int = 0
    time_since_update: int = 0
    status: str = TENTATIVE


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


def _track_edges(tracks: list[Track]) -> np.ndarray:
    """Predicted-box edges of all tracks, raising on nonphysical scale."""
    if not tracks:
        return np.zeros((0, 4))
    xs = np.stack([t.state.x for t in tracks])
    s, r = xs[:, 2], xs[:, 3]
    if np.any(s <= 0.0) or np.any(r <= 0.0):
        raise InvalidState("predicted track has nonphysical scale or ratio")
    w = np.sqrt(s * r)
    h = np.sqrt(s / r)
    return np.stack(
        [xs[:, 0] - w / 2, xs[:, 1] - h / 2, xs[:, 0] + w / 2, xs[:, 1] + h / 2],
        axis=1,
    )


def _direction_costs(
    tracks: list[Track], centers: np.ndarray, lam: float
) -> np.ndarray:
    """lam * heading gap / pi for every track/detection pair.

    The heading gap, in [0, pi], is the angle between a track's heading over
    its last two observations and the heading from its last observation
    toward a detection center (rows of ``centers``). Rows of tracks with
    fewer than two observations stay zero.
    """
    m, n = len(tracks), len(centers)
    out = np.zeros((m, n))
    rows = [i for i, t in enumerate(tracks) if t.prev_center is not None]
    if not rows or n == 0:
        return out
    pts = np.array(
        [(*tracks[i].prev_center, tracks[i].last_box.u, tracks[i].last_box.v) for i in rows]
    )
    prev, last = pts[:, :2], pts[:, 2:]
    theta_track = np.arctan2(last[:, 1] - prev[:, 1], last[:, 0] - prev[:, 0])
    theta_new = np.arctan2(
        centers[None, :, 1] - last[:, 1, None], centers[None, :, 0] - last[:, 0, None]
    )
    delta = np.abs(np.mod(theta_track[:, None] - theta_new + math.pi, 2 * math.pi) - math.pi)
    out[rows] = lam * delta / math.pi
    return out


def _det_geometry(detections: list[Detection]) -> tuple[np.ndarray, np.ndarray]:
    """(edges, centers) of the detection boxes in one pass."""
    if not detections:
        return np.zeros((0, 4)), np.zeros((0, 2))
    uvwh = np.array([(d.bbox.u, d.bbox.v, d.bbox.w, d.bbox.h) for d in detections])
    half = uvwh[:, 2:] / 2.0
    edges = np.concatenate([uvwh[:, :2] - half, uvwh[:, :2] + half], axis=1)
    return edges, uvwh[:, :2]


def build_cost_matrix(
    tracks: list[Track],
    detections: list[Detection],
    cfg: AssocConfig,
    det_embs_unit: np.ndarray | None = None,
) -> CostBreakdown:
    """Assemble the weighted cost matrix for already-predicted tracks.

    ``det_embs_unit`` may carry the detections' already-row-normalized
    embeddings to avoid recomputation; semantics are identical without it.
    """
    m, n = len(tracks), len(detections)
    if det_embs_unit is None:
        det_embs_unit = unit_rows(
            np.stack([d.embedding for d in detections])
            if n
            else np.zeros((0, 1))
        )
    det_edges, det_centers = _det_geometry(detections)

    iou = iou_matrix_edges(_track_edges(tracks), det_edges)
    iou_term = 1.0 - iou

    if cfg.use_direction and m and n:
        velocity_term = _direction_costs(tracks, det_centers, cfg.lam)
    else:
        velocity_term = np.zeros((m, n))

    if cfg.use_appearance and m and n:
        apps = np.stack([t.appearance for t in tracks])
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
        self.tracks: list[Track] = []
        self._next_id = 1
        self._frames_seen = 0
        self._last_frame: int | None = None
        self.last_breakdown: CostBreakdown | None = None

    def _new_track(self, det: Detection) -> Track:
        state = kf_init(det, self.motion)
        emb = np.asarray(det.embedding, dtype=np.float64)
        norm = np.linalg.norm(emb)
        appearance = emb / norm if norm >= ZERO_NORM_EPS else emb.copy()
        track = Track(
            id=self._next_id,
            state=state,
            checkpoint=state.copy(),
            last_box=det.bbox,
            appearance=appearance,
            status=CONFIRMED if self.config.min_hits <= 1 else TENTATIVE,
        )
        self._next_id += 1
        return track

    def _predict_all(self) -> None:
        if not self.tracks:
            return
        xs = np.stack([t.state.x for t in self.tracks])
        Ps = np.stack([t.state.P for t in self.tracks])
        xs, Ps = kf_predict_batch(xs, Ps, self.motion)
        for i, trk in enumerate(self.tracks):
            trk.state = KalmanState(xs[i], Ps[i])
            trk.age += 1
            trk.time_since_update += 1

    def _apply_updates(
        self,
        matches: list[tuple[int, int]],
        detections: list[Detection],
        det_embs_unit: np.ndarray,
    ) -> None:
        fresh = [(m, n) for m, n in matches if self.tracks[m].time_since_update == 1]
        gapped = [(m, n) for m, n in matches if self.tracks[m].time_since_update > 1]
        if fresh:
            xs = np.stack([self.tracks[m].state.x for m, _ in fresh])
            Ps = np.stack([self.tracks[m].state.P for m, _ in fresh])
            zs = np.array([bbox_to_xysr(detections[n].bbox) for _, n in fresh])
            xs, Ps = kf_update_batch(xs, Ps, zs, self.motion)
            for i, (m, _) in enumerate(fresh):
                self.tracks[m].state = KalmanState(xs[i], Ps[i])
        for m, n in gapped:
            trk = self.tracks[m]
            trk.state = ocr_reupdate(
                trk.checkpoint, trk.last_box, detections[n], trk.time_since_update,
                self.motion,
            )

        # EMA appearance refresh, batched over the matched pairs
        if matches:
            apps = np.stack([self.tracks[m].appearance for m, _ in matches])
            embs = det_embs_unit[[n for _, n in matches]]
            live = np.einsum("ij,ij->i", embs, embs) >= ZERO_NORM_EPS
            alpha = self.config.ema_alpha
            blended = alpha * apps + (1.0 - alpha) * embs
            if not live.all():
                blended = np.where(live[:, None], blended, apps)
            norms = np.linalg.norm(blended, axis=1, keepdims=True)
            blended /= np.where(norms < ZERO_NORM_EPS, 1.0, norms)
            for i, (m, _) in enumerate(matches):
                self.tracks[m].appearance = blended[i]

        cfg = self.config
        for m, n in matches:
            trk = self.tracks[m]
            # states are replaced wholesale, never mutated in place, so the
            # checkpoint can alias the posterior state
            trk.checkpoint = trk.state
            trk.prev_center = (trk.last_box.u, trk.last_box.v)
            trk.last_box = detections[n].bbox
            trk.hits += 1
            trk.time_since_update = 0
            if trk.hits >= cfg.min_hits:
                trk.status = CONFIRMED

    def step(
        self, detections: list[Detection], frame: int
    ) -> list[tuple[int, BBox]]:
        """Advance one frame; returns (track id, box) for reportable tracks."""
        if self._last_frame is not None and frame <= self._last_frame:
            raise NonMonotonicFrame(
                f"frame {frame} after frame {self._last_frame}"
            )
        self._last_frame = frame
        self._frames_seen += 1
        cfg = self.config

        self._predict_all()

        det_embs_unit = unit_rows(
            np.stack([d.embedding for d in detections])
            if detections
            else np.zeros((0, 1))
        )
        if self.tracks and detections:
            breakdown = build_cost_matrix(self.tracks, detections, cfg, det_embs_unit)
            matches, _, unmatched_dets = linear_assignment(breakdown.total)
            self.last_breakdown = breakdown
        else:
            matches, unmatched_dets = [], list(range(len(detections)))
            self.last_breakdown = None

        self._apply_updates(matches, detections, det_embs_unit)

        for n in unmatched_dets:
            self.tracks.append(self._new_track(detections[n]))

        outputs = [
            (trk.id, trk.state.bbox())
            for trk in self.tracks
            if trk.time_since_update == 0
            and (trk.status == CONFIRMED or self._frames_seen <= cfg.min_hits)
        ]

        survivors = []
        for trk in self.tracks:
            if trk.time_since_update > cfg.max_age:
                trk.status = REMOVED
            else:
                survivors.append(trk)
        self.tracks = survivors
        return outputs


def track_sequence(
    per_frame: dict[int, list[Detection]],
    config: AssocConfig | None = None,
    motion: MotionConfig = DEFAULT_MOTION,
) -> list[tuple[int, int, BBox]]:
    """Track one sequence through frames 1..max(per_frame), feeding an empty
    detection list to frames absent from ``per_frame``; returns the
    (frame, track id, box) rows of every frame in order."""
    tracker = MacSort(config, motion)
    rows = []
    for frame in range(1, max(per_frame, default=0) + 1):
        rows.extend(
            (frame, tid, box) for tid, box in tracker.step(per_frame.get(frame, []), frame)
        )
    return rows
