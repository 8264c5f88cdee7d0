"""The evaluator that metrics.evaluate replaced, kept as a test oracle: per
frame dicts of ids and one Counter update per pair, scipy's solver called
on every assignment, every IoU computed (geometry_ref.iou_dense), and the
identity-score fill as one Python loop over every (gt id, predicted id)
pair."""

from collections import Counter

import numpy as np
from scipy.optimize import linear_sum_assignment

from macsort.errors import FrameMismatch
from macsort.metrics import ML_COVERAGE, MT_COVERAGE, SWEEP_THRESHOLDS, MetricsReport
from geometry_ref import iou_dense


def rows_at(sequence, frame):
    """A TrackSequence frame's ids (a list) and (n, 4) boxes, selected by
    mask."""
    rows = sequence.frame == frame
    return sequence.id[rows].tolist(), sequence.boxes[rows]


def solver_assignment(cost):
    """Minimum-cost assignment with +inf entries forbidden, always through
    the solver: the matched (rows, cols), rows ascending."""
    cost = np.asarray(cost, dtype=np.float64)
    finite = np.isfinite(cost)
    if not finite.any():
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    big = float(np.abs(cost[finite]).sum() + np.abs(cost[finite]).max() + 1.0)
    rows, cols = linear_sum_assignment(np.where(finite, cost, big))
    kept = finite[rows, cols]
    return rows[kept], cols[kept]


def identity_scores(gt_len, pred_len, overlap) -> tuple[float, float, float]:
    """(idf1, idp, idr) via one global id-to-id assignment, from Counters of
    boxes per gt id, per predicted id and per (gt id, predicted id) pair."""
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
    rows, cols = linear_sum_assignment(cost)
    idtp = sum(overlap[gt_ids[i], pred_ids[j]] for i, j in zip(rows, cols) if i < ng and j < np_)
    idp = idtp / total_pred if total_pred else 1.0
    idr = idtp / total_gt if total_gt else 1.0
    idf1 = 2.0 * idtp / (total_gt + total_pred)
    return idf1, idp, idr


def max_iou_pairs(ious, threshold):
    """The (row, col) pairs of the maximum-total-IoU matching among the cells
    with IoU >= threshold, rows ascending."""
    rows, cols = solver_assignment(np.where(ious >= threshold, 1.0 - ious, np.inf))
    return zip(rows.tolist(), cols.tolist())


def match_frame(gt_frame, pred_frame, iou_threshold, prev_matches=None, ious=None):
    """One frame's gt-id -> pred-id matching from (id, box) lists; boxes
    are BBox or (u, v, w, h) rows. Pairs matched in the previous frame are
    kept while their IoU still clears the threshold, in ``prev_matches``
    order; the remainder is matched by maximum total IoU."""
    if not (0.0 < iou_threshold < 1.0):
        raise ValueError(f"iou_threshold must be in (0,1), got {iou_threshold}")
    if not gt_frame or not pred_frame:
        return {}
    if ious is None:
        ious = iou_dense([b for _, b in gt_frame], [b for _, b in pred_frame])
    gt_row = {g: i for i, (g, _) in enumerate(gt_frame)}
    pred_col = {p: j for j, (p, _) in enumerate(pred_frame)}
    matches = {}
    used = set()
    for g, p in (prev_matches or {}).items():
        if g in gt_row and p in pred_col and p not in used:
            if ious[gt_row[g], pred_col[p]] >= iou_threshold:
                matches[g] = p
                used.add(p)
    rem_g = [g for g, _ in gt_frame if g not in matches]
    rem_p = [p for p, _ in pred_frame if p not in used]
    if rem_g and rem_p:
        rem = ious[np.ix_([gt_row[g] for g in rem_g], [pred_col[p] for p in rem_p])]
        for gi, pi in max_iou_pairs(rem, iou_threshold):
            matches[rem_g[gi]] = rem_p[pi]
    return matches


def hota_at(pair_count, gt_len, pred_len) -> tuple[float, float]:
    """(deta, assa) at one IoU threshold, from its matched-pair Counter."""
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


def evaluate(gt, pred, iou_threshold=0.5, hota_sweep=False) -> MetricsReport:
    """metrics.evaluate over dicts and Counters: one pass over the frames
    with rows and the frame after each, one IoU matrix per frame."""
    last = gt.last_frame
    bad = pred.frame[(pred.frame < 1) | (pred.frame > last)]
    if len(bad):
        raise FrameMismatch(
            f"prediction frames {np.unique(bad).tolist()} outside ground-truth range 1..{last}"
        )
    alphas = SWEEP_THRESHOLDS if hota_sweep else [iou_threshold]
    with_rows = np.union1d(gt.frame, pred.frame)
    walk = np.union1d(with_rows, with_rows + 1)
    walk = walk[(walk >= 1) & (walk <= last)]

    gt_len, pred_len, covered, overlap = Counter(), Counter(), Counter(), Counter()
    pair_counts = [Counter() for _ in alphas]
    tp = idsw = 0
    prev, last_match = {}, {}
    for f in walk.tolist():
        gt_ids, gt_boxes = rows_at(gt, f)
        pred_ids, pred_boxes = rows_at(pred, f)
        gt_len.update(gt_ids)
        pred_len.update(pred_ids)

        ious = iou_dense(gt_boxes, pred_boxes) if gt_ids and pred_ids else None
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
                pairs = max_iou_pairs(ious, alpha)
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

    idf1, idp, idr = identity_scores(gt_len, pred_len, overlap)

    scores = [hota_at(counts, gt_len, pred_len) for counts in pair_counts]
    deta = float(np.mean([d for d, _ in scores]))
    assa = float(np.mean([a for _, a in scores]))
    hota = float(np.sqrt(deta * assa))

    return MetricsReport(
        hota=hota, deta=deta, assa=assa, mota=mota, idf1=idf1, idp=idp, idr=idr,
        id_switches=idsw, mostly_tracked=mt, mostly_lost=ml, tp=tp, fp=fp, fn=fn,
    )
