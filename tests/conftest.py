import numpy as np
import pytest

from macsort.geometry import BBox
from macsort.prompt_filter import PromptDetections
from macsort.tracker import Tracks
from motion_ref import Detection


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
                         np.stack(apps), False)
    tracks.ids = np.array(ids)
    tracks.prev_center = np.array([(np.nan, np.nan) if p is None else p for p in prevs], float)
    return tracks


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
