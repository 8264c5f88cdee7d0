"""The prompt filter that passed detection tables between its stages, kept
as a test oracle: IE and LSM return PromptDetections subsets, the memory
bands and short window are tables, and every stage re-validates its rows.
Also the memory bank as lists of entries, re-sorted on every update.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from macsort.errors import DimensionMismatch, EmptyInput, EmptyMemory
from macsort.geometry import iou_matrix, unit_rows
from macsort.prompt_filter import (
    SHORT_WINDOW_FRAMES,
    PromptDetections,
    TpodConfig,
    TpodFrameStats,
)


def cosine_matrix(a, b):
    """Pairwise cosine similarity of the rows of a and b; a zero row gives 0."""
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatch(f"embedding dims differ: {a.shape[1]} vs {b.shape[1]}")
    return np.clip(unit_rows(a) @ unit_rows(b).T, -1.0, 1.0)


def subset(rows, indices):
    indices = np.asarray(indices, dtype=int)
    return PromptDetections(rows.boxes[indices], rows.features[indices], rows.scores[indices])


def concat(*sets):
    """The rows of all sets in order; an empty set adds nothing, and when
    all are empty the last one is returned."""
    full = [s for s in sets if len(s)]
    if len(full) <= 1:
        return full[0] if full else sets[-1]
    if len({s.dim for s in full}) > 1:
        dims = " vs ".join(str(s.dim) for s in full)
        raise DimensionMismatch(f"feature dims differ: {dims}")
    return PromptDetections(*(np.concatenate([getattr(s, col) for s in full])
                              for col in ("boxes", "features", "scores")))


def _top_k(rows, k):
    return subset(rows, np.argsort(-rows.scores, kind="stable")[:k])


@dataclass
class MemoryBank:
    """Both bands and each short-window entry as a detection table."""

    kappa1: int = TpodConfig.kappa1
    kappa2: int = TpodConfig.kappa2
    long: PromptDetections = field(default_factory=PromptDetections.empty)
    short: PromptDetections = field(default_factory=PromptDetections.empty)
    window: list = field(default_factory=list)

    @property
    def usable(self):
        return bool(self.long) and bool(self.short)

    def update(self, accepted, frame):
        self.long = _top_k(concat(self.long, accepted), self.kappa1)
        self.window = [*self.window, accepted][-SHORT_WINDOW_FRAMES:]
        self.short = _top_k(concat(*self.window), self.kappa2)
        return self


@dataclass
class TpodFrameResult:
    """The frame's final true positives as a table of their rows."""

    final_tps: PromptDetections
    stats: TpodFrameStats


def _check_dims(*sets):
    dims = {s.dim for s in sets if len(s) > 0}
    if len(dims) > 1:
        raise DimensionMismatch(f"prompt feature dims differ: {sorted(dims)}")


def ie_classify(general, include, exclude, overlap_threshold=TpodConfig.overlap_threshold):
    """(true positives, unclassified) as subsets of ``general``."""
    if not (0.0 <= overlap_threshold < 1.0):
        raise ValueError(f"overlap_threshold must be in [0,1), got {overlap_threshold}")
    _check_dims(general, include, exclude)
    n = len(general)
    if n == 0:
        return general, general
    max_inc, max_exc = (
        iou_matrix(general.boxes, prompt.boxes).max(axis=1) if len(prompt) else np.zeros(n)
        for prompt in (include, exclude)
    )
    inc_hit = max_inc > overlap_threshold
    exc_hit = max_exc > overlap_threshold
    tp_mask = inc_hit & (~exc_hit | (max_inc > max_exc))
    fp_mask = exc_hit & ~tp_mask
    uncl_mask = ~tp_mask & ~fp_mask
    return subset(general, np.flatnonzero(tp_mask)), subset(general, np.flatnonzero(uncl_mask))


class LsmSimilarityProfile(NamedTuple):
    """Per-box and pooled feature similarity against the memory bands."""

    sim_long: np.ndarray
    sim_short: np.ndarray
    sim_long_overall: float
    sim_short_overall: float


def lsm_similarity_profile(memory, unclassified):
    if not memory.long or not memory.short:
        raise EmptyMemory("both memory bands must be non-empty")
    if len(unclassified) == 0:
        raise EmptyInput("no unclassified boxes to profile")
    sim_long = cosine_matrix(memory.long.features, unclassified.features).mean(axis=0)
    sim_short = cosine_matrix(memory.short.features, unclassified.features).mean(axis=0)
    return LsmSimilarityProfile(sim_long, sim_short, float(sim_long.mean()),
                                float(sim_short.mean()))


def lsm_classify(profile, unclassified):
    """(rescued, rejected) as subsets of ``unclassified``."""
    fp_mask = (profile.sim_short < profile.sim_short_overall) & (
        profile.sim_long < profile.sim_long_overall
    )
    return (subset(unclassified, np.flatnonzero(~fp_mask)),
            subset(unclassified, np.flatnonzero(fp_mask)))


def tpod_frame(general, include, exclude, memory, frame, config=None):
    config = config or TpodConfig()
    tps_ie, unclassified = ie_classify(general, include, exclude, config.overlap_threshold)
    rescued = PromptDetections.empty(general.dim)
    rejected = PromptDetections.empty(general.dim)
    if len(unclassified):
        if memory.usable:
            profile = lsm_similarity_profile(memory, unclassified)
            rescued, rejected = lsm_classify(profile, unclassified)
        elif config.cold_start_passthrough:
            rescued = unclassified
        else:
            rejected = unclassified
    final = concat(tps_ie, rescued)
    memory.update(tps_ie if config.memory_from_ie_only else final, frame)
    stats = TpodFrameStats(
        n_general=len(general),
        n_ie_tps=len(tps_ie),
        n_dropped=len(general) - len(tps_ie) - len(unclassified),
        n_rescued=len(rescued),
        n_rejected=len(rejected),
    )
    return TpodFrameResult(final_tps=final, stats=stats)


@dataclass(frozen=True)
class RefEntry:
    feature: np.ndarray
    score: float
    frame: int
    index: int


class RefMemoryBank:
    """The memory bank as lists of entries, each band re-sorted by
    (-score, frame, index) on every update."""

    def __init__(self, kappa1, kappa2):
        self.kappa1, self.kappa2 = kappa1, kappa2
        self.long, self.short, self.window = [], [], []

    @staticmethod
    def _top_k(entries, k):
        return sorted(entries, key=lambda e: (-e.score, e.frame, e.index))[:k]

    def update(self, features, scores, frame):
        entries = [RefEntry(features[i], float(scores[i]), frame, i) for i in range(len(scores))]
        self.long = self._top_k(self.long + entries, self.kappa1)
        self.window = (self.window + [entries])[-SHORT_WINDOW_FRAMES:]
        self.short = self._top_k([e for batch in self.window for e in batch], self.kappa2)
