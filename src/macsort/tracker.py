"""Motion-appearance association with adaptive weighting.

The association cost between a predicted track and a detection mixes three
[0, 1] terms, all expressed as costs to minimize: (1 - IoU), the heading
gap toward the detection scaled by lambda, and half the cosine distance of
the appearance embeddings. The appearance weight adapts to how homogeneous
the frame's detections look: with mu_det the mean cosine of all detection
embeddings to their mean, w_aaw = (1 - mu_det) / (1 - cos(theta)) and
w_amc = 2 - w_aaw. Crowds of near-identical objects (mu_det -> 1) are
therefore associated almost purely by motion, while visually diverse
scenes lean on appearance. For unit rows u_i with mean m, that mean cosine
is (1/n) sum u_i . m/|m| = |m|, so mu_det is the length of the mean unit
row.

Only pairs inside the IoU gate are scored, the appearance term as one dot
product per pair; ``MacSort.step`` makes the frame's embeddings unit rows
once and passes them on.

The tracker runs on arrays: the live tracks are one ``Tracks`` table of
filter states and boxes, a frame's detections one ``PromptDetections``
table, its matches the (rows, cols) index arrays of ``linear_assignment``
and its result rows one ``MotTable``; it builds no ``BBox``.

The assignment solver is scipy's compiled ``scipy.optimize._lsap``
extension (Crouse's shortest augmenting path), loaded from its file by
itself. Importing it through ``scipy.optimize`` would run that package's
init, which loads ``scipy.sparse``, ``scipy.linalg`` and scipy's own BLAS,
none of which the pipeline calls: about 48 MiB of resident memory and 0.4 s
of start-up in every process. The function is the same, so every matching,
ties included, is the one ``scipy.optimize.linear_sum_assignment`` gives.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec

import numpy as np

from .errors import DimensionMismatch, NonMonotonicFrame
from .geometry import (
    ZERO_NORM_EPS,
    box_edges,
    iou_of_edges,
    nonzero_cells,
    overlap_pairs,
    unit_rows,
    uvwh_to_xysr,
    xysr_to_uvwh,
)
from .motion import kf_init, kf_predict_batch, kf_update_batch, ocr_reupdate
from .mot_io import MotTable, frame_order, walk_frames
from .prompt_filter import PromptDetections

LSAP_MODULE = "scipy.optimize._lsap"


def _load_lsap():
    """``linear_sum_assignment`` of the ``LSAP_MODULE`` extension, executed
    from the installed scipy's ``optimize`` directory without importing
    scipy or ``scipy.optimize``."""
    scipy_spec = find_spec("scipy")
    roots = scipy_spec.submodule_search_locations if scipy_spec else None
    for root in roots or ():
        finder = FileFinder(os.path.join(root, "optimize"),
                            (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(LSAP_MODULE)
        if spec is not None:
            module = module_from_spec(spec)
            spec.loader.exec_module(module)
            return module.linear_sum_assignment
    from importlib.metadata import PackageNotFoundError, version
    try:
        installed = f"scipy {version('scipy')} is installed"
    except PackageNotFoundError:
        installed = "scipy is not installed"
    raise ImportError(f"{LSAP_MODULE}, scipy's compiled assignment solver, was not found "
                      f"({installed})", name=LSAP_MODULE)


linear_sum_assignment = _load_lsap()


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
        if self.min_hits < 0:
            raise ValueError(f"min_hits must be >= 0, got {self.min_hits}")
        if not (0.0 <= self.iou_gate <= 1.0):
            raise ValueError(f"iou_gate must be in [0, 1], got {self.iou_gate}")
        if not (0.0 <= self.ema_alpha <= 1.0):
            raise ValueError(f"ema_alpha must be in [0, 1], got {self.ema_alpha}")


def _mean_unit_length(unit: np.ndarray, theta_deg: float) -> float:
    """mu_det of unit rows (zero rows allowed): the length of their mean,
    which is the mean cosine of the rows to the mean's direction. Fewer
    than two rows, or a zero mean, give the neutral cos(theta)."""
    if len(unit) <= 1:
        return math.cos(math.radians(theta_deg))
    length = float(np.linalg.norm(unit.mean(axis=0)))
    if length < ZERO_NORM_EPS:
        return math.cos(math.radians(theta_deg))
    return min(length, 1.0)  # no cosine exceeds 1; rounding may


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

    @classmethod
    def born(cls, first_id: int, x: np.ndarray, P: np.ndarray, boxes: np.ndarray,
             appearance: np.ndarray) -> "Tracks":
        """New rows at initial states x (k, 7), P (k, 4, 3): consecutive
        ids, one hit each and the checkpoint at the initial state."""
        k = len(x)
        return cls(
            np.arange(first_id, first_id + k), x, P, x.copy(), P.copy(), boxes,
            np.full((k, 2), np.nan), appearance, np.ones(k, dtype=np.int64),
            np.zeros(k, dtype=np.int64),
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
    """Association cost (rows = tracks, cols = detections) and its
    ingredients on the pairs inside the IoU gate: ``rows``/``cols`` in
    row-major order, the three terms and their weighted sum ``cost`` as
    (k,) vectors on those pairs; nothing is computed outside them."""

    rows: np.ndarray
    cols: np.ndarray
    iou_term: np.ndarray
    velocity_term: np.ndarray
    appearance_term: np.ndarray
    mu_det: float
    w_aaw: float
    w_amc: float
    cost: np.ndarray
    shape: tuple[int, int]

    @property
    def total(self) -> np.ndarray:
        """The dense (m, n) cost matrix, built on each read: ``cost`` on the
        pairs, +inf where the gate forbids a match."""
        total = np.full(self.shape, np.inf)
        total[self.rows, self.cols] = self.cost
        return total


def _direction_costs(tracks: Tracks, rows: np.ndarray, centers: np.ndarray,
                     lam: float) -> np.ndarray:
    """lam * heading gap / pi for each pair of a track row in ``rows`` and
    a detection center, the same row of ``centers`` (k, 2).

    The heading gap, in [0, pi], is the angle between a track's heading over
    its last two observations and the heading from its last observation
    toward the detection center. Pairs whose track has fewer than two
    observations cost zero.
    """
    out = np.zeros(len(rows))
    seen = ~np.isnan(tracks.prev_center[rows, 0])
    rows, centers = rows[seen], centers[seen]
    prev, last = tracks.prev_center[rows], tracks.last_box[rows, :2]
    theta_track = np.arctan2(last[:, 1] - prev[:, 1], last[:, 0] - prev[:, 0])
    theta_new = np.arctan2(centers[:, 1] - last[:, 1], centers[:, 0] - last[:, 0])
    delta = np.abs(np.mod(theta_track - theta_new + math.pi, 2 * math.pi) - math.pi)
    out[seen] = lam * delta / math.pi
    return out


def build_cost_matrix(
    tracks: Tracks,
    dets: PromptDetections,
    cfg: AssocConfig,
    det_embs_unit: np.ndarray,
) -> CostBreakdown:
    """Assemble the weighted cost of the gated pairs for already-predicted
    tracks; ``det_embs_unit`` holds the detections' embeddings as unit
    rows, ``unit_rows(dets.features)``.

    A pair whose box interiors do not overlap has IoU 0, so under a
    positive gate only the ``overlap_pairs`` are candidates (at gate 0
    every pair is); the terms are computed on the candidates that pass the
    gate, the appearance term as one dot product per pair. Raises
    DimensionMismatch when the tracks' appearance dimension differs from
    the detections' embedding dimension, whether appearance is used or not.
    """
    m, n = len(tracks), len(dets)
    if m and n and tracks.appearance.shape[1] != det_embs_unit.shape[1]:
        raise DimensionMismatch(
            f"track appearance dim {tracks.appearance.shape[1]} vs "
            f"detection embedding dim {det_embs_unit.shape[1]}"
        )
    det_uvwh = dets.boxes

    trk_edges, det_edges = box_edges(xysr_to_uvwh(tracks.x)), box_edges(det_uvwh)
    if cfg.iou_gate > 0.0:
        rows, cols = overlap_pairs(trk_edges, det_edges)
    else:
        rows, cols = nonzero_cells(np.ones((m, n), dtype=bool))
    iou = iou_of_edges([e[rows] for e in trk_edges], [e[cols] for e in det_edges])
    inside = iou >= cfg.iou_gate
    rows, cols, iou = rows[inside], cols[inside], iou[inside]

    if cfg.use_direction:
        velocity = _direction_costs(tracks, rows, det_uvwh[cols, :2], cfg.lam)
    else:
        velocity = np.zeros(len(rows))

    if cfg.use_appearance and len(rows):
        # track appearances are unit by construction; zero rows fall out as 0
        similarity = np.einsum("ij,ij->i", tracks.appearance[rows], det_embs_unit[cols])
        appearance = (1.0 - np.clip(similarity, -1.0, 1.0)) / 2.0
    else:
        appearance = np.zeros(len(rows))

    mu_det = _mean_unit_length(det_embs_unit, cfg.theta_deg)
    if cfg.fixed_w_aaw is not None:
        w_aaw, w_amc = cfg.fixed_w_aaw, 2.0 - cfg.fixed_w_aaw
    else:
        w_aaw, w_amc = adaptive_weights(mu_det, cfg.theta_deg)

    iou_term = 1.0 - iou
    cost = w_amc * iou_term + velocity + w_aaw * appearance
    return CostBreakdown(rows, cols, iou_term, velocity, appearance, mu_det, w_aaw, w_amc, cost,
                         (m, n))


def forced(rows: np.ndarray, cols: np.ndarray) -> bool:
    """True when the distinct pairs (rows, cols) are their own one-to-one
    assignment, as ``linear_assignment`` tests it: rows strictly ascending
    (so, for row-major pairs, no row twice) and no column twice."""
    return len(rows) < 2 or ((rows[1:] > rows[:-1]).all() and np.bincount(cols).max() == 1)


def linear_assignment(rows: np.ndarray, cols: np.ndarray, cost: np.ndarray,
                      shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-cost one-to-one assignment among the distinct candidate
    pairs (rows, cols), with finite costs ``cost``, of a ``shape`` = (m, n)
    problem: the matched (rows, cols) index arrays, rows ascending.

    The solver gets the dense cost, every other cell set to a value larger
    than any assignment of candidates, and only its candidate pairs are
    kept. So it first matches as many candidates as it can: when no row and
    no column holds two of them, that is all of them, whatever they cost,
    and they are returned without solving.
    """
    if forced(rows, cols):
        return rows, cols
    big = float(np.abs(cost).sum() + np.abs(cost).max() + 1.0)
    dense = np.full(shape, big)
    dense[rows, cols] = cost
    r, c = linear_sum_assignment(dense)
    kept = dense[r, c] < big  # big exceeds every candidate's cost
    return r[kept], c[kept]


class MacSort:
    """Tracking-by-detection with adaptive motion/appearance association.

    One instance per sequence; feed frames in strictly increasing order via
    step(). Its result rows are the confirmed tracks matched in the current
    frame; a track is confirmed for good once it has min_hits matches.
    While the sequence itself is younger than min_hits frames the probation
    is waived, so tracking output covers a sequence from its first frame.
    """

    def __init__(self, config: AssocConfig | None = None):
        self.config = config or AssocConfig()
        self.tracks = Tracks.born(1, np.zeros((0, 7)), np.zeros((0, 4, 3)), np.zeros((0, 4)),
                                  np.zeros((0, 0)))
        self._next_id = 1
        self._frames_seen = 0
        self._last_frame: int | None = None

    @property
    def idle(self) -> bool:
        """True when a frame without detections would change nothing: no
        track is live and the sequence is past its min_hits waiver."""
        return not len(self.tracks) and self._frames_seen > self.config.min_hits

    def _apply_updates(self, rows: np.ndarray, cols: np.ndarray, dets: PromptDetections,
                       det_embs_unit: np.ndarray) -> None:
        trk, det_uvwh = self.tracks, dets.boxes
        gaps = trk.time_since_update[rows]
        fresh_r, fresh_c = rows[gaps == 1], cols[gaps == 1]
        if len(fresh_r):
            trk.x[fresh_r], trk.P[fresh_r] = kf_update_batch(
                trk.x[fresh_r], trk.P[fresh_r], uvwh_to_xysr(det_uvwh[fresh_c])
            )
        for m, n, gap in zip(rows[gaps > 1], cols[gaps > 1], gaps[gaps > 1]):
            trk.x[m], trk.P[m] = ocr_reupdate(
                (trk.checkpoint_x[m], trk.checkpoint_P[m]), trk.last_box[m], det_uvwh[n], int(gap)
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

    def step(self, dets: PromptDetections, frame: int) -> MotTable:
        """Advance one frame's detection table; returns the rows of the
        reportable tracks: frame, track id and box, confidence 1."""
        if self._last_frame is not None and frame <= self._last_frame:
            raise NonMonotonicFrame(f"frame {frame} after frame {self._last_frame}")
        self._last_frame = frame
        self._frames_seen += 1
        cfg, trk = self.config, self.tracks

        if len(trk):
            trk.x, trk.P = kf_predict_batch(trk.x, trk.P)
            trk.time_since_update += 1

        det_embs_unit = unit_rows(dets.features)
        if len(trk) and len(dets):
            bd = build_cost_matrix(trk, dets, cfg, det_embs_unit)
            rows, cols = linear_assignment(bd.rows, bd.cols, bd.cost, bd.shape)
        else:
            rows = cols = np.zeros(0, dtype=np.intp)

        self._apply_updates(rows, cols, dets, det_embs_unit)

        unmatched = np.ones(len(dets), dtype=bool)
        unmatched[cols] = False
        if unmatched.any():
            born = dets.boxes[unmatched]
            xs, Ps = zip(*(kf_init(box) for box in born))
            trk = trk.concat(Tracks.born(self._next_id, np.stack(xs), np.stack(Ps), born,
                                         det_embs_unit[unmatched]))
            self._next_id += len(born)

        reported = (trk.time_since_update == 0) & (
            (trk.hits >= cfg.min_hits) | (self._frames_seen <= cfg.min_hits)
        )
        out = MotTable.from_uvwh(frame, trk.ids[reported], xysr_to_uvwh(trk.x[reported, :4]), 1.0)

        alive = trk.time_since_update <= cfg.max_age
        self.tracks = trk if alive.all() else trk.take(alive)
        return out


def track_sequence(
    frame: np.ndarray, dets: PromptDetections, config: AssocConfig | None = None
) -> MotTable:
    """Track one sequence through frames 1..max(frame), ``frame`` holding
    the frame of each row of ``dets`` (any order; a frame's rows are stepped
    in their given order); returns the result rows of every frame in order.
    A frame without rows is stepped with none, and skipped while the
    tracker is idle, where stepping it would change nothing."""
    frame = np.asarray(frame, dtype=np.int64)
    order = frame_order(frame)
    dets, tracker = dets.take(order), MacSort(config)
    tables = [tracker.step(dets.take(rows), f)
              for f, rows in walk_frames(lambda: tracker.idle, frame[order])]
    return MotTable.concat(tables)
