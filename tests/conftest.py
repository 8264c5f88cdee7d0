import numpy as np
import pytest

from macsort.geometry import BBox, Detection
from macsort.tracker import Tracks


def make_det(frame, u, v, w=10.0, h=10.0, conf=0.9, emb=None, dim=4):
    if emb is None:
        emb = np.zeros(dim)
        emb[0] = 1.0
    return Detection(frame, BBox(u, v, w, h), conf, np.asarray(emb, dtype=float))


def unit(vec):
    vec = np.asarray(vec, dtype=float)
    return vec / np.linalg.norm(vec)


def make_tracks(rows):
    """A track table from (id, KalmanState, last BBox, appearance, previous
    centre or None) rows; the checkpoint is each row's state."""
    ids, states, boxes, apps, prevs = zip(*rows)
    tracks = Tracks.born(0, list(states), np.array([(b.u, b.v, b.w, b.h) for b in boxes]),
                         np.stack(apps), False)
    tracks.ids = np.array(ids)
    tracks.prev_center = np.array([(np.nan, np.nan) if p is None else p for p in prevs], float)
    return tracks


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
