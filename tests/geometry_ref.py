"""The scalar box IoU that geometry.iou_matrix replaced, kept as a test
oracle: one pair of BBox at a time, on Python floats, with its own edge
arithmetic."""


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
