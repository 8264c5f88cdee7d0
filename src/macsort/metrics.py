"""Tracking evaluation: MOTA/ID-switch accounting, identity F1, and
higher-order accuracy (detection x association), plus MT/ML coverage.

Frame-level matching follows the CLEAR convention: matches surviving from
the previous frame are kept while they still clear the IoU threshold, the
rest are matched by a maximum-IoU assignment. Identity metrics use one
global min-cost assignment between ground-truth and predicted ids over the
whole sequence. Higher-order accuracy is computed at a single IoU
threshold by default (hand-checkable); an optional sweep averages the
detection and association accuracies over thresholds 0.05..0.95.

``evaluate`` reads each frame once; the identity overlaps and every
threshold's higher-order matching come from one IoU matrix per frame.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import CliConfig
from .errors import FrameMismatch
from .geometry import BBox, box_edges, iou_edges, iou_matrix
from .tracker import linear_assignment

MT_COVERAGE = 0.8
ML_COVERAGE = 0.2
SWEEP_THRESHOLDS = [round(0.05 * k, 2) for k in range(1, 20)]


@dataclass
class TrackSequence:
    """Per-frame (object id, box) lists for one sequence (gt or results)."""

    frames: dict[int, list[tuple[int, BBox]]] = field(default_factory=dict)
    n_frames: int | None = None
    _ids: dict[int, set[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._ids = {f: {i for i, _ in items} for f, items in self.frames.items()}

    def add(self, frame: int, obj_id: int, box: BBox) -> None:
        ids = self._ids.setdefault(frame, set())
        if obj_id in ids:
            raise ValueError(f"duplicate id {obj_id} in frame {frame}")
        ids.add(obj_id)
        self.frames.setdefault(frame, []).append((obj_id, box))

    def at(self, frame: int) -> list[tuple[int, BBox]]:
        return self.frames.get(frame, [])

    @property
    def last_frame(self) -> int:
        declared = self.n_frames or 0
        return max(max(self.frames, default=0), declared)

    def total_boxes(self) -> int:
        return sum(len(v) for v in self.frames.values())

    @classmethod
    def from_mot(cls, grouped: dict[int, list]) -> "TrackSequence":
        seq = cls()
        for frame, records in grouped.items():
            for rec in records:
                seq.add(frame, rec.id, rec.bbox())
        return seq


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


def _max_iou_pairs(ious: np.ndarray, threshold: float) -> list[tuple[int, int]]:
    """(row, col) pairs of the maximum-total-IoU matching among the cells
    with IoU >= threshold, sorted by row."""
    cost = np.where(ious >= threshold, 1.0 - ious, np.inf)
    pairs, _, _ = linear_assignment(cost)
    return pairs


def match_frame(
    gt_frame: list[tuple[int, BBox]],
    pred_frame: list[tuple[int, BBox]],
    iou_threshold: float,
    prev_matches: dict[int, int] | None = None,
) -> dict[int, int]:
    """One frame's gt-id -> pred-id matching.

    Pairs matched in the previous frame are kept while their IoU still
    clears the threshold; the remainder is matched by maximum total IoU.
    """
    if not (0.0 < iou_threshold < 1.0):
        raise ValueError(f"iou_threshold must be in (0,1), got {iou_threshold}")
    gt_by_id = dict(gt_frame)
    pred_by_id = dict(pred_frame)
    matches: dict[int, int] = {}
    used: set[int] = set()
    if prev_matches:
        carried = [
            (g, p) for g, p in prev_matches.items() if g in gt_by_id and p in pred_by_id
        ]
        if carried:
            ious = iou_edges(
                box_edges([gt_by_id[g] for g, _ in carried]),
                box_edges([pred_by_id[p] for _, p in carried]),
            )
            for (g, p), pair in zip(carried, ious):
                if pair >= iou_threshold and p not in used:
                    matches[g] = p
                    used.add(p)
    rem_g = [g for g, _ in gt_frame if g not in matches]
    rem_p = [p for p, _ in pred_frame if p not in used]
    if rem_g and rem_p:
        ious = iou_matrix([gt_by_id[g] for g in rem_g], [pred_by_id[p] for p in rem_p])
        for gi, pi in _max_iou_pairs(ious, iou_threshold):
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

    gt_ids = sorted(gt_len)
    pred_ids = sorted(pred_len)
    ng, np_ = len(gt_ids), len(pred_ids)
    size = ng + np_
    cost = np.zeros((size, size))
    for i, g in enumerate(gt_ids):
        cost[i, np_:] = gt_len[g]  # leave g unmatched: all its boxes are misses
        for j, p in enumerate(pred_ids):
            cost[i, j] = gt_len[g] + pred_len[p] - 2 * overlap[g, p]
    for j, p in enumerate(pred_ids):
        cost[ng:, j] = pred_len[p]
    pairs, _, _ = linear_assignment(cost)
    idtp = sum(overlap[gt_ids[i], pred_ids[j]] for i, j in pairs if i < ng and j < np_)
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
    bad = [f for f in pred.frames if f < 1 or f > last]
    if bad:
        raise FrameMismatch(
            f"prediction frames {sorted(bad)} outside ground-truth range 1..{last}"
        )
    alphas = SWEEP_THRESHOLDS if hota_sweep else [iou_threshold]

    gt_len: Counter = Counter()  # boxes per gt id
    pred_len: Counter = Counter()  # boxes per predicted id
    covered: Counter = Counter()  # CLEAR matches per gt id
    overlap: Counter = Counter()  # frames where (gt id, pred id) clear the threshold
    pair_counts = [Counter() for _ in alphas]  # HOTA matches per (gt id, pred id)
    tp = idsw = 0
    prev: dict[int, int] = {}
    last_match: dict[int, int] = {}
    for f in range(1, last + 1):
        gts = gt.at(f)
        preds = pred.at(f)
        gt_len.update(g for g, _ in gts)
        pred_len.update(p for p, _ in preds)

        matches = match_frame(gts, preds, iou_threshold, prev)
        tp += len(matches)
        covered.update(matches.keys())
        for g, p in matches.items():
            if last_match.get(g, p) != p:
                idsw += 1
            last_match[g] = p
        prev = matches

        if gts and preds:
            ious = iou_matrix([b for _, b in gts], [b for _, b in preds])
            gt_ids = [g for g, _ in gts]
            pred_ids = [p for p, _ in preds]
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
