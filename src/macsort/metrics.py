"""Tracking evaluation: MOTA/ID-switch accounting, identity F1, and
higher-order accuracy (detection x association), plus MT/ML coverage.

Frame-level matching follows the CLEAR convention: matches surviving from
the previous frame are kept while they still clear the IoU threshold, the
rest are matched by a maximum-IoU assignment. Identity metrics use one
global min-cost assignment between ground-truth and predicted ids over the
whole sequence. Higher-order accuracy is computed at a single IoU
threshold by default (hand-checkable); an optional sweep averages the
detection and association accuracies over thresholds 0.05..0.95.

``evaluate`` reads each frame that holds rows once, as slices of the
sequences' columns; the identity overlaps and every threshold's
higher-order matching come from one IoU matrix per frame.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import CliConfig
from .errors import FrameMismatch
from .geometry import BBox, iou_matrix, uvwh_array
from .mot_io import by_frame
from .tracker import linear_assignment

MT_COVERAGE = 0.8
ML_COVERAGE = 0.2
SWEEP_THRESHOLDS = [round(0.05 * k, 2) for k in range(1, 20)]


@dataclass(eq=False)
class TrackSequence:
    """One sequence's rows (gt or results) as columns, stably sorted by
    frame: int64 ``frame`` and ``id``, and (n, 4) (u, v, w, h) ``boxes``,
    which may be given as a list of BBox. ``frame_rows`` holds each frame's
    rows as a slice. Raises ValueError on a repeated (frame, id)."""

    frame: np.ndarray
    id: np.ndarray
    boxes: np.ndarray
    n_frames: int | None = None
    frame_rows: dict[int, slice] = field(init=False, repr=False)

    def __post_init__(self):
        frame = np.asarray(self.frame, dtype=np.int64)
        order, self.frame_rows = by_frame(frame)
        self.frame = frame[order]
        self.id = np.asarray(self.id, dtype=np.int64)[order]
        self.boxes = uvwh_array(self.boxes)[order]
        # a repeated pair is named at its first repeat in frame order
        key = np.lexsort((self.id, self.frame))
        frame, ids = self.frame[key], self.id[key]
        repeats = key[1:][(frame[1:] == frame[:-1]) & (ids[1:] == ids[:-1])]
        if len(repeats):
            r = repeats.min()
            raise ValueError(f"duplicate id {self.id[r]} in frame {self.frame[r]}")

    @classmethod
    def from_rows(cls, rows, n_frames: int | None = None) -> "TrackSequence":
        """(frame, id, box) rows in any order, boxes as BBox or (u, v, w, h)."""
        frames, ids, boxes = list(zip(*rows)) or ((), (), ())
        return cls(frames, ids, boxes, n_frames)

    @classmethod
    def from_mot(cls, table) -> "TrackSequence":
        """The rows of a MotTable, file order within a frame."""
        return cls(table.frame, table.id, table.uvwh())

    def rows_at(self, frame: int) -> tuple[list[int], np.ndarray]:
        """A frame's ids and (n, 4) boxes."""
        rows = self.frame_rows.get(frame, slice(0))
        return self.id[rows].tolist(), self.boxes[rows]

    @property
    def last_frame(self) -> int:
        return max(int(self.frame[-1]) if len(self.frame) else 0, self.n_frames or 0)

    def total_boxes(self) -> int:
        return len(self.frame)


@dataclass(frozen=True)
class MetricsReport:
    hota: float
    deta: float
    assa: float
    mota: float
    idf1: float
    idp: float
    idr: float
    id_switches: int
    mostly_tracked: int
    mostly_lost: int
    tp: int
    fp: int
    fn: int

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        # JSON has no infinities: an undefined score is written as null
        values = {k: v if math.isfinite(v) else None for k, v in self.to_dict().items()}
        return json.dumps(values, indent=2, sort_keys=True, allow_nan=False)

    def to_text(self) -> str:
        lines = [
            f"HOTA  {self.hota:7.4f}   (DetA {self.deta:.4f}, AssA {self.assa:.4f})",
            f"MOTA  {self.mota:7.4f}   (TP {self.tp}, FP {self.fp}, FN {self.fn}, IDSW {self.id_switches})",
            f"IDF1  {self.idf1:7.4f}   (IDP {self.idp:.4f}, IDR {self.idr:.4f})",
            f"MT {self.mostly_tracked}   ML {self.mostly_lost}",
        ]
        return "\n".join(lines)


def _max_iou_pairs(ious: np.ndarray, threshold: float) -> Iterator[tuple[int, int]]:
    """The (row, col) pairs of the maximum-total-IoU matching among the cells
    with IoU >= threshold, rows ascending."""
    rows, cols = linear_assignment(np.where(ious >= threshold, 1.0 - ious, np.inf))
    return zip(rows.tolist(), cols.tolist())


def match_frame(
    gt_frame: list[tuple[int, BBox | np.ndarray]],
    pred_frame: list[tuple[int, BBox | np.ndarray]],
    iou_threshold: float,
    prev_matches: dict[int, int] | None = None,
    ious: np.ndarray | None = None,
) -> dict[int, int]:
    """One frame's gt-id -> pred-id matching; boxes are BBox or (u, v, w, h)
    rows.

    Pairs matched in the previous frame are kept while their IoU still
    clears the threshold; the remainder is matched by maximum total IoU.
    ``ious`` may carry the frame's gt x pred IoU matrix, rows and columns in
    frame order; without it the matrix is computed here.
    """
    if not (0.0 < iou_threshold < 1.0):
        raise ValueError(f"iou_threshold must be in (0,1), got {iou_threshold}")
    if not gt_frame or not pred_frame:
        return {}
    if ious is None:
        ious = iou_matrix([b for _, b in gt_frame], [b for _, b in pred_frame])
    # a repeated id stands for its last box, as in a dict of the frame
    gt_row = {g: i for i, (g, _) in enumerate(gt_frame)}
    pred_col = {p: j for j, (p, _) in enumerate(pred_frame)}
    matches: dict[int, int] = {}
    used: set[int] = set()
    for g, p in (prev_matches or {}).items():
        if g in gt_row and p in pred_col and p not in used:
            if ious[gt_row[g], pred_col[p]] >= iou_threshold:
                matches[g] = p
                used.add(p)
    rem_g = [g for g, _ in gt_frame if g not in matches]
    rem_p = [p for p, _ in pred_frame if p not in used]
    if rem_g and rem_p:
        rem = ious[np.ix_([gt_row[g] for g in rem_g], [pred_col[p] for p in rem_p])]
        for gi, pi in _max_iou_pairs(rem, iou_threshold):
            matches[rem_g[gi]] = rem_p[pi]
    return matches


def _identity_scores(
    gt_len: Counter, pred_len: Counter, overlap: Counter
) -> tuple[float, float, float]:
    """(idf1, idp, idr) via one global id-to-id assignment."""
    total_gt = sum(gt_len.values())
    total_pred = sum(pred_len.values())
    if total_gt == 0 and total_pred == 0:
        return 1.0, 1.0, 1.0

    gt_ids, pred_ids = sorted(gt_len), sorted(pred_len)
    ng, np_ = len(gt_ids), len(pred_ids)
    g_len = np.array([gt_len[g] for g in gt_ids], dtype=np.float64)[:, None]
    p_len = np.array([pred_len[p] for p in pred_ids], dtype=np.float64)
    cost = np.zeros((ng + np_, ng + np_))
    cost[:ng, :np_] = g_len + p_len
    cost[:ng, np_:] = g_len  # leave a gt id unmatched: all its boxes are misses
    cost[ng:, :np_] = p_len
    row = {g: i for i, g in enumerate(gt_ids)}
    col = {p: j for j, p in enumerate(pred_ids)}
    for (g, p), count in overlap.items():
        cost[row[g], col[p]] -= 2 * count
    rows, cols = linear_assignment(cost)
    idtp = sum(overlap[gt_ids[i], pred_ids[j]]
               for i, j in zip(rows.tolist(), cols.tolist()) if i < ng and j < np_)
    idp = idtp / total_pred if total_pred else 1.0
    idr = idtp / total_gt if total_gt else 1.0
    idf1 = 2.0 * idtp / (total_gt + total_pred)
    return idf1, idp, idr


def _hota_at(pair_count: Counter, gt_len: Counter, pred_len: Counter) -> tuple[float, float]:
    """(deta, assa) at one IoU threshold, from its matched-pair counts."""
    tp = sum(pair_count.values())
    total = sum(gt_len.values()) + sum(pred_len.values()) - tp  # tp + fn + fp
    if total == 0:
        return 1.0, 1.0
    deta = tp / total
    if tp == 0:
        return deta, 0.0
    ass_sum = 0.0
    for (g, p), count in pair_count.items():
        ass_sum += count * (count / (gt_len[g] + pred_len[p] - count))
    return deta, ass_sum / tp


def evaluate(
    gt: TrackSequence,
    pred: TrackSequence,
    iou_threshold: float = CliConfig.iou_threshold,
    hota_sweep: bool = CliConfig.hota_sweep,
) -> MetricsReport:
    """Score a prediction sequence against ground truth.

    Raises FrameMismatch when predictions fall outside the ground-truth
    frame range.
    """
    last = gt.last_frame
    bad = pred.frame[(pred.frame < 1) | (pred.frame > last)]
    if len(bad):
        raise FrameMismatch(
            f"prediction frames {np.unique(bad).tolist()} outside ground-truth range 1..{last}"
        )
    alphas = SWEEP_THRESHOLDS if hota_sweep else [iou_threshold]
    # a frame without rows only clears the carried-over matches, so of a run
    # of them only the first is walked
    with_rows = np.union1d(gt.frame, pred.frame)
    walk = np.union1d(with_rows, with_rows + 1)
    walk = walk[(walk >= 1) & (walk <= last)]

    gt_len: Counter = Counter()  # boxes per gt id
    pred_len: Counter = Counter()  # boxes per predicted id
    covered: Counter = Counter()  # CLEAR matches per gt id
    overlap: Counter = Counter()  # frames where (gt id, pred id) clear the threshold
    pair_counts = [Counter() for _ in alphas]  # HOTA matches per (gt id, pred id)
    tp = idsw = 0
    prev: dict[int, int] = {}
    last_match: dict[int, int] = {}
    for f in walk.tolist():
        gt_ids, gt_boxes = gt.rows_at(f)
        pred_ids, pred_boxes = pred.rows_at(f)
        gt_len.update(gt_ids)
        pred_len.update(pred_ids)

        ious = iou_matrix(gt_boxes, pred_boxes) if gt_ids and pred_ids else None
        matches = match_frame(list(zip(gt_ids, gt_boxes)), list(zip(pred_ids, pred_boxes)),
                              iou_threshold, prev, ious)
        tp += len(matches)
        covered.update(matches.keys())
        for g, p in matches.items():
            if last_match.get(g, p) != p:
                idsw += 1
            last_match[g] = p
        prev = matches

        if ious is not None:
            hit = zip(*np.nonzero(ious >= iou_threshold))
            overlap.update((gt_ids[gi], pred_ids[pi]) for gi, pi in hit)
            for counts, alpha in zip(pair_counts, alphas):
                pairs = _max_iou_pairs(ious, alpha)
                counts.update((gt_ids[gi], pred_ids[pi]) for gi, pi in pairs)

    fn = sum(gt_len.values()) - tp
    fp = sum(pred_len.values()) - tp
    gt_total = gt.total_boxes()
    if gt_total:
        mota = 1.0 - (fn + fp + idsw) / gt_total
    else:
        mota = 1.0 if (fp + idsw) == 0 else float("-inf")

    mt = ml = 0
    for g, count in gt_len.items():
        coverage = covered[g] / count
        if coverage >= MT_COVERAGE:
            mt += 1
        elif coverage <= ML_COVERAGE:
            ml += 1

    idf1, idp, idr = _identity_scores(gt_len, pred_len, overlap)

    scores = [_hota_at(counts, gt_len, pred_len) for counts in pair_counts]
    deta = float(np.mean([d for d, _ in scores]))
    assa = float(np.mean([a for _, a in scores]))
    hota = float(np.sqrt(deta * assa))

    return MetricsReport(
        hota=hota, deta=deta, assa=assa, mota=mota, idf1=idf1, idp=idp, idr=idr,
        id_switches=idsw, mostly_tracked=mt, mostly_lost=ml, tp=tp, fp=fp, fn=fn,
    )
