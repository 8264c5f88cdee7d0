"""The scalar box IoU that geometry.iou_matrix replaced, kept as a test
oracle: one pair of BBox at a time, on Python floats, with its own edge
arithmetic. Also the dense forms that iou_matrix and overlap_pairs leave
from their sweep crossover on: every pair compared or computed."""

import numpy as np

from macsort.geometry import box_edges, iou_of_edges, uvwh_array


def iou(a, b) -> float:
    """Intersection over union of two BBox; 0 for disjoint interiors."""
    left_a, right_a, top_a, bottom_a = a.u - a.w / 2, a.u + a.w / 2, a.v - a.h / 2, a.v + a.h / 2
    left_b, right_b, top_b, bottom_b = b.u - b.w / 2, b.u + b.w / 2, b.v - b.h / 2, b.v + b.h / 2
    iw = min(right_a, right_b) - max(left_a, left_b)
    ih = min(bottom_a, bottom_b) - max(top_a, top_b)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    # edge recomputation can differ from w*h by an ulp; keep the ratio bounded
    return min(inter / (a.w * a.h + b.w * b.h - inter), 1.0)


def overlap_dense(edges_a, edges_b):
    """The (rows, cols) of the pairs whose interiors overlap, from the four
    strict edge compares on every pair, row-major."""
    (la, ta, ra, ba), (lb, tb, rb, bb) = [e[:, None] for e in edges_a], edges_b
    return np.nonzero((lb < ra) & (rb > la) & (tb < ba) & (bb > ta))


def iou_dense(boxes_a, boxes_b):
    """The IoU matrix of two box sets (BBox lists or (n, 4) rows of (u, v,
    w, h)) with every pair computed."""
    edges_a, edges_b = box_edges(uvwh_array(boxes_a)), box_edges(uvwh_array(boxes_b))
    return iou_of_edges([e[:, None] for e in edges_a], edges_b)
