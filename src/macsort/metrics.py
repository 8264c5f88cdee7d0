"""Tracking evaluation: MOTA/ID-switch accounting, identity F1, and
higher-order accuracy (detection x association), plus MT/ML coverage.

Frame-level matching follows the CLEAR convention: matches surviving from
the previous frame are kept while they still clear the IoU threshold, the
rest are matched by a maximum-IoU assignment. Identity metrics use one
global assignment between ground-truth and predicted ids over the whole
sequence, the one that shares the most frames, solved over the ids that
share at least one. Higher-order accuracy is computed at a single IoU
threshold by default (hand-checkable); an optional sweep averages the
detection and association accuracies over thresholds 0.05..0.95.

``evaluate`` maps the gt and predicted ids to dense indices once per
sequence and reads each frame that holds rows once, as slices of the
sequences' columns. The frame walk does only what depends on the frame
before: it reads the frame's IoU matrix into the (gt row, pred row, IoU) of
every pair that clears the lowest threshold in use, and matches the frame
the CLEAR way, which keeps the previous frame's matches. It appends the
matches and the pairs to two tables over the sequence. One pass over those
tables computes the rest: true positives and coverage by counting, ID
switches from the matches sorted by gt index, the identity overlaps from
the pairs that clear the threshold, and each threshold's higher-order
matching. At a threshold where no row or column of a frame holds two pairs,
the frame's pairs are its matching; only the other (frame, threshold)
cells go to ``linear_assignment``'s solver. Pairs are counted as int64
(gt index, predicted index) keys, in (frame, gt row, pred row) order.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .config import CliConfig
from .errors import FrameMismatch
from .geometry import iou_matrix, nonzero_cells, uvwh_array
from .mot_io import frame_order, walk_frames
from .tracker import forced, linear_assignment

MT_COVERAGE = 0.8
ML_COVERAGE = 0.2
SWEEP_THRESHOLDS = [round(0.05 * k, 2) for k in range(1, 20)]


@dataclass(eq=False)
class TrackSequence:
    """One sequence's rows (gt or results) as columns, stably sorted by
    frame: int64 ``frame`` and ``id``, and (n, 4) (u, v, w, h) ``boxes``,
    which may be given as a list of BBox. Raises ValueError on a repeated
    (frame, id)."""

    frame: np.ndarray
    id: np.ndarray
    boxes: np.ndarray
    n_frames: int | None = None

    def __post_init__(self):
        frame = np.asarray(self.frame, dtype=np.int64)
        order = frame_order(frame)
        self.frame = frame[order]
        self.id = np.asarray(self.id, dtype=np.int64)[order]
        self.boxes = uvwh_array(self.boxes)[order]
        # rows strictly increasing in (frame, id), as macsort writes them,
        # repeat no pair
        same_frame = self.frame[1:] == self.frame[:-1]
        if (~same_frame | (self.id[1:] > self.id[:-1])).all():
            return
        # a repeated pair is named at its first repeat in frame order
        key = np.lexsort((self.id, self.frame))
        frame, ids = self.frame[key], self.id[key]
        repeats = key[1:][(frame[1:] == frame[:-1]) & (ids[1:] == ids[:-1])]
        if len(repeats):
            r = repeats.min()
            raise ValueError(f"duplicate id {self.id[r]} in frame {self.frame[r]}")

    @classmethod
    def from_mot(cls, table) -> "TrackSequence":
        """The rows of a MotTable, file order within a frame."""
        return cls(table.frame, table.id, table.uvwh())

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


def match_frame(
    gt: np.ndarray,
    pred: np.ndarray,
    pairs: tuple[np.ndarray, np.ndarray, np.ndarray],
    iou_threshold: float,
    prev: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One frame's matching, as the matched (gt, pred) id indices.

    ``gt`` and ``pred`` are the frame's id indices in row order, distinct
    on each side; ``pairs`` holds the (gt row, pred row, IoU) vectors of at
    least every pair whose IoU clears the threshold, row-major; ``prev`` is
    the previous frame's matching: ``prev[g]`` is the pred index matched to
    gt index g, or -1, and no pred index appears twice. Pairs matched in
    the previous frame are kept while their IoU still clears the threshold;
    the remainder is matched by maximum total IoU. When no row and no
    column holds two clearing pairs, the frame is forced: every clearing
    pair is matched, in row-major order, whatever ``prev`` holds.
    """
    if not (0.0 < iou_threshold < 1.0):
        raise ValueError(f"iou_threshold must be in (0,1), got {iou_threshold}")
    gi, pi, iou = pairs
    clear = iou >= iou_threshold
    gi, pi, iou = gi[clear], pi[clear], iou[clear]
    if forced(gi, pi):
        return gt[gi], pred[pi]
    kept = pred[pi] == prev[gt[gi]]
    free_r, free_c = np.ones(len(gt), dtype=bool), np.ones(len(pred), dtype=bool)
    free_r[gi[kept]] = free_c[pi[kept]] = False
    rest = free_r[gi] & free_c[pi]
    # the rest by maximum total IoU, among the free rows x free cols
    fr, fc = np.flatnonzero(free_r), np.flatnonzero(free_c)
    r, c = linear_assignment(np.searchsorted(fr, gi[rest]), np.searchsorted(fc, pi[rest]),
                             1.0 - iou[rest], (len(fr), len(fc)))
    rows, cols = np.concatenate([gi[kept], fr[r]]), np.concatenate([pi[kept], fc[c]])
    return gt[rows], pred[cols]


def _pair_counts(keys: np.ndarray, n_pred: int) -> tuple[np.ndarray, ...]:
    """The (gt index, pred index, count) of each pair among ``keys`` (g *
    n_pred + p), in the order the pairs first occur."""
    pairs, first, counts = np.unique(keys, return_index=True, return_counts=True)
    order = np.argsort(first)
    pairs = pairs[order]
    return pairs // n_pred, pairs % n_pred, counts[order]


def _columns(rows: list[tuple], width: int) -> list[np.ndarray]:
    """The ``width`` columns of a table appended one tuple of arrays at a
    time, each joined into one array."""
    return [np.concatenate([np.zeros(0, dtype=np.int64), *(row[k] for row in rows)])
            for k in range(width)]


def _switches(g: np.ndarray, p: np.ndarray) -> int:
    """ID switches in a table of (gt index, pred index) matches in frame
    order: the matches whose pred index differs from the same gt index's
    match before."""
    order = np.argsort(g, kind="stable")
    g, p = g[order], p[order]
    return int(((g[1:] == g[:-1]) & (p[1:] != p[:-1])).sum())


def _contest_levels(rows: np.ndarray, iou: np.ndarray, frame: np.ndarray,
                    n_frames: int) -> np.ndarray:
    """Per frame, the largest threshold at which one of its rows holds two
    pairs: the second-largest IoU of that row, 0 where no row holds two.
    ``rows`` are row indices into the whole sequence, so a row belongs to
    one frame, ``frame[i]``."""
    twice = np.bincount(rows)[rows] > 1
    rows, iou, frame = rows[twice], iou[twice], frame[twice]
    order = np.lexsort((-iou, rows))
    later = order[1:][rows[order[1:]] == rows[order[:-1]]]  # all but each row's largest
    level = np.zeros(n_frames)
    np.maximum.at(level, frame[later], iou[later])
    return level


def _hota_matches(alpha: float, gi: np.ndarray, pi: np.ndarray, iou: np.ndarray,
                  contested: list[int], bounds: list[tuple[int, int, tuple[int, int]]]
                  ) -> np.ndarray:
    """The mask of the pairs in the HOTA matching at ``alpha``. Every pair
    at ``alpha`` is matched, except in the ``contested`` frames: frame k's
    pairs lie at ``bounds[k] = (start, stop, shape)`` with frame-local
    (gi, pi), and ``linear_assignment`` picks its matching."""
    kept = iou >= alpha
    for k in contested:
        start, stop, shape = bounds[k]
        at = start + np.flatnonzero(kept[start:stop])
        g, p = gi[at], pi[at]
        r, c = linear_assignment(g, p, 1.0 - iou[at], shape)
        hit = np.zeros(shape, dtype=bool)
        hit[r, c] = True
        kept[at] = hit[g, p]
    return kept


def _identity_scores(
    gt_len: np.ndarray, pred_len: np.ndarray, overlap: tuple[np.ndarray, ...]
) -> tuple[float, float, float]:
    """(idf1, idp, idr) via one global id-to-id assignment, from the boxes
    per gt index and per pred index and the (g, p, count) frames in which
    a pair clears the threshold."""
    total_gt, total_pred = int(gt_len.sum()), int(pred_len.sum())
    if total_gt == 0 and total_pred == 0:
        return 1.0, 1.0, 1.0

    # the matching that shares the most frames, among the ids that share
    # one: the optimum of the (gt ids + pred ids)-square cost that charges
    # an id's boxes unless it is matched, which totals the boxes - 2 idtp
    g, p, count = overlap
    gt_ids, g = np.unique(g, return_inverse=True)
    pred_ids, p = np.unique(p, return_inverse=True)
    shared = np.zeros((len(gt_ids), len(pred_ids)), dtype=np.int64)
    shared[g, p] = count
    rows, cols = np.indices(shared.shape).reshape(2, -1)
    rows, cols = linear_assignment(rows, cols, -shared.ravel(), shared.shape)
    idtp = int(shared[rows, cols].sum())
    idp = idtp / total_pred if total_pred else 1.0
    idr = idtp / total_gt if total_gt else 1.0
    idf1 = 2.0 * idtp / (total_gt + total_pred)
    return idf1, idp, idr


def _hota_at(
    pairs: tuple[np.ndarray, ...], gt_len: np.ndarray, pred_len: np.ndarray
) -> tuple[float, float]:
    """(deta, assa) at one IoU threshold, from its (g, p, count) matched
    pairs in the order they first matched."""
    g, p, count = pairs
    tp = int(count.sum())
    total = int(gt_len.sum()) + int(pred_len.sum()) - tp  # tp + fn + fp
    if total == 0:
        return 1.0, 1.0
    deta = tp / total
    if tp == 0:
        return deta, 0.0
    # added left to right in first-match order: a sum in another order can
    # differ in the last bit
    ass = count * (count / (gt_len[g] + pred_len[p] - count))
    return deta, float(np.cumsum(ass)[-1]) / tp


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
    lowest = min(iou_threshold, *alphas)

    # dense id indices; gt rows before frame 1 are not walked and count
    # only in MOTA's denominator
    start = int(np.searchsorted(gt.frame, 1))
    gt_index = np.full(len(gt.id), -1)
    gt_ids, gt_index[start:] = np.unique(gt.id[start:], return_inverse=True)
    pred_ids, pred_index = np.unique(pred.id, return_inverse=True)
    n_gt, n_pred = len(gt_ids), len(pred_ids)
    gt_len = np.bincount(gt_index[start:], minlength=n_gt)  # boxes per gt index
    pred_len = np.bincount(pred_index, minlength=n_pred)  # boxes per pred index

    # the walk does what depends on the frame before: each frame's CLEAR
    # matching, and the frame's pairs at the lowest threshold (every
    # threshold is > 0, so they hold all that any threshold keeps), with
    # frame-local rows. ``frames`` holds (pairs, first gt row, first pred
    # row, gt rows, pred rows) for each frame that has pairs.
    matches, pairs, frames = [], [], []
    prev = np.full(n_gt, -1)  # the previous frame's match per gt index
    prev_g = np.zeros(0, dtype=np.int64)  # the gt indices that hold one
    # a frame without rows only clears the carried-over matches: once none
    # is carried over, it is skipped
    for _, gt_rows, pred_rows in walk_frames(lambda: not len(prev_g), gt.frame, pred.frame):
        g, p = gt_index[gt_rows], pred_index[pred_rows]
        gi = pi = np.zeros(0, dtype=np.intp)
        iou = np.zeros(0)
        if len(g) and len(p):
            ious = iou_matrix(gt.boxes[gt_rows], pred.boxes[pred_rows])
            gi, pi = nonzero_cells(ious >= lowest)
            iou = ious[gi, pi]
            if len(gi):
                pairs.append((gi, pi, iou))
                frames.append((len(gi), gt_rows.start, pred_rows.start, len(g), len(p)))
        matched_g, matched_p = match_frame(g, p, (gi, pi, iou), iou_threshold, prev)
        prev[prev_g] = -1
        prev[matched_g] = matched_p
        prev_g = matched_g
        matches.append((matched_g, matched_p))

    matched_g, matched_p = _columns(matches, 2)
    tp = len(matched_g)
    covered = np.bincount(matched_g, minlength=n_gt)  # CLEAR matches per gt index
    idsw = _switches(matched_g, matched_p)

    # each pair's frame among ``frames``, its rows in the sequence and its
    # (gt index, pred index) key
    gi, pi, iou = _columns(pairs, 3)
    counts, gt_start, pred_start, m, n = np.array(frames, dtype=np.int64).reshape(-1, 5).T
    frame = np.repeat(np.arange(len(frames)), counts)
    gt_row, pred_row = gi + gt_start[frame], pi + pred_start[frame]
    keys = gt_index[gt_row] * n_pred + pred_index[pred_row]
    overlap = _pair_counts(keys[iou >= iou_threshold], n_pred)

    # HOTA solves a frame only at the thresholds up to its contest level
    level = np.maximum(_contest_levels(gt_row, iou, frame, len(frames)),
                       _contest_levels(pred_row, iou, frame, len(frames)))
    stops = np.cumsum(counts)
    bounds = list(zip((stops - counts).tolist(), stops.tolist(), zip(m.tolist(), n.tolist())))
    hota_pairs = [
        _pair_counts(keys[_hota_matches(alpha, gi, pi, iou,
                                        np.flatnonzero(level >= alpha).tolist(), bounds)], n_pred)
        for alpha in alphas
    ]

    fn = int(gt_len.sum()) - tp
    fp = int(pred_len.sum()) - tp
    gt_total = gt.total_boxes()
    if gt_total:
        mota = 1.0 - (fn + fp + idsw) / gt_total
    else:
        mota = 1.0 if (fp + idsw) == 0 else float("-inf")

    coverage = covered / gt_len
    mt = int((coverage >= MT_COVERAGE).sum())
    ml = int((coverage <= ML_COVERAGE).sum())

    idf1, idp, idr = _identity_scores(gt_len, pred_len, overlap)

    scores = [_hota_at(matched, gt_len, pred_len) for matched in hota_pairs]
    deta = float(np.mean([d for d, _ in scores]))
    assa = float(np.mean([a for _, a in scores]))
    hota = float(np.sqrt(deta * assa))

    return MetricsReport(
        hota=hota, deta=deta, assa=assa, mota=mota, idf1=idf1, idp=idp, idr=idr,
        id_switches=idsw, mostly_tracked=mt, mostly_lost=ml, tp=tp, fp=fp, fn=fn,
    )
