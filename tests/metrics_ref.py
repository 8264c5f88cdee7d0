"""The identity-score fill that metrics._identity_scores replaced, kept as
a test oracle: one Python loop over every (gt id, predicted id) pair, and
scipy's solver called directly."""

import numpy as np
from scipy.optimize import linear_sum_assignment


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
