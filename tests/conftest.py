import numpy as np
import pytest

from macsort.geometry import BBox, unit_rows
from macsort.metrics import TrackSequence
from macsort.prompt_filter import PromptDetections, ie_classify, ie_overlaps, tpod_frame
from macsort.tracker import Tracks, build_cost_matrix, linear_assignment
from metrics_ref import rows_at
from motion_ref import Detection


# characters str.splitlines() breaks lines at besides \n and \r; a
# key=value file's line ends only at \n
OTHER_LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def make_det(frame, u, v, w=10.0, h=10.0, conf=0.9, emb=None, dim=4):
    if emb is None:
        emb = np.zeros(dim)
        emb[0] = 1.0
    return Detection(frame, BBox(u, v, w, h), conf, np.asarray(emb, dtype=float))


def table(dets):
    """One frame's Detection records as the PromptDetections table that
    MacSort.step and build_cost_matrix read."""
    if not dets:
        return PromptDetections.empty()
    return PromptDetections([d.bbox for d in dets], np.stack([d.embedding for d in dets]),
                            [d.confidence for d in dets])


def tables(per_frame):
    """A frame -> Detection records dict as a frame -> table dict."""
    return {frame: table(dets) for frame, dets in per_frame.items()}


def columns(per_frame):
    """A frame -> Detection records dict as the (frame column, table) pair
    that track_sequence reads, rows in key order."""
    frames = [frame for frame, dets in per_frame.items() for _ in dets]
    rows = [d for dets in per_frame.values() for d in dets]
    return np.array(frames, dtype=np.int64), table(rows)


def frame_tables(scenario):
    """A synthetic scenario's detections as one table per frame,
    frames 1..n_frames; the tables view the columns."""
    dets = scenario.detections
    ends = np.searchsorted(scenario.det_frame, np.arange(scenario.spec.n_frames + 1), "right")
    return {frame: dets.take(slice(a, b))
            for frame, (a, b) in enumerate(zip(ends.tolist(), ends[1:].tolist()), start=1)}


def rows_sequence(rows, n_frames=None):
    """A TrackSequence of (frame, id, box) rows in any order, boxes as BBox
    or (u, v, w, h)."""
    frames, ids, boxes = list(zip(*rows)) or ((), (), ())
    return TrackSequence(frames, ids, boxes, n_frames)


def boxes_at(sequence, frame):
    """A TrackSequence frame's rows as (id, BBox) pairs, in its row order."""
    ids, boxes = rows_at(sequence, frame)
    return [(obj_id, BBox(*box)) for obj_id, box in zip(ids, boxes.tolist())]


def mot_rows(table):
    """A MotTable's rows as (frame, id, left, top, width, height, conf, x,
    y, z) tuples, to compare two tables value for value."""
    cols = table.frame.tolist(), table.id.tolist(), table.ltwh.tolist(), table.conf.tolist()
    return [(frame, obj_id, *ltwh, conf, *xyz)
            for frame, obj_id, ltwh, conf, xyz in zip(*cols, table.xyz.tolist())]


def cost_matrix(tracks, dets, cfg):
    """build_cost_matrix on a detection table's own embeddings, made unit
    rows as MacSort.step passes them."""
    return build_cost_matrix(tracks, dets, cfg, unit_rows(dets.features))


def assign(cost):
    """linear_assignment on a dense cost, +inf forbidden: its finite cells
    passed as row-major pairs."""
    cost = np.asarray(cost, dtype=np.float64)
    rows, cols = np.nonzero(np.isfinite(cost))
    return linear_assignment(rows, cols, cost[rows, cols], cost.shape)


def dense_terms(bd):
    """A CostBreakdown's three per-pair term vectors (iou, velocity,
    appearance) as (m, n) matrices, NaN outside its gated pairs."""
    def dense(values):
        out = np.full(bd.shape, np.nan)
        out[bd.rows, bd.cols] = values
        return out
    return dense(bd.iou_term), dense(bd.velocity_term), dense(bd.appearance_term)


def uvwh(box):
    """A BBox as a (u, v, w, h) row."""
    return np.array([box.u, box.v, box.w, box.h])


def unit(vec):
    vec = np.asarray(vec, dtype=float)
    return vec / np.linalg.norm(vec)


def make_tracks(rows):
    """A track table from (id, (x, P) filter state, last BBox, appearance,
    previous centre or None) rows; the checkpoint is each row's state."""
    ids, states, boxes, apps, prevs = zip(*rows)
    xs, Ps = zip(*states)
    tracks = Tracks.born(0, np.stack(xs), np.stack(Ps), np.stack([uvwh(b) for b in boxes]),
                         np.stack(apps))
    tracks.ids = np.array(ids)
    tracks.prev_center = np.array([(np.nan, np.nan) if p is None else p for p in prevs], float)
    return tracks


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def frame_columns(*sets):
    """One frame's PromptDetections sets as the (frame column, boxes) pairs
    that ie_overlaps reads, every row in frame 1."""
    return [(np.ones(len(s), dtype=np.int64), s.boxes) for s in sets]


def ie_split(general, include, exclude, *overlap_threshold):
    """ie_classify on one frame's prompt sets, its maxima from ie_overlaps
    on that frame alone."""
    return ie_classify(*ie_overlaps(*frame_columns(general, include, exclude)),
                       *overlap_threshold)


def filter_frame(general, include, exclude, memory, frame):
    """tpod_frame on one frame's prompt sets, its maxima from ie_overlaps
    on that frame alone."""
    maxima = ie_overlaps(*frame_columns(general, include, exclude))
    return tpod_frame(general, *maxima, memory, frame)
