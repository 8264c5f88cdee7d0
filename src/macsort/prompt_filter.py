"""Detector-side filtering of prompt-based detections.

Two stages run per frame. The include-exclude (IE) stage classifies each
general-prompt box by overlap against include- and exclude-prompt boxes:
include overlap keeps it as a true positive, exclude overlap drops it, no
overlap leaves it unclassified. The long-short memory (LSM) stage then
rescues or rejects unclassified boxes by comparing their features against
two confidence-ranked banks of past true positives: a long band over the
whole sequence and a short band over the last three frames. A box is
rejected only when it sits strictly below the mean similarity of the whole
unclassified pool on both bands.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, EmptyInput, EmptyMemory
from .geometry import BBox, cosine_matrix, iou_matrix

SHORT_WINDOW_FRAMES = 3


@dataclass
class TpodConfig:
    """Knobs for the per-frame filtering pipeline."""

    kappa1: int = 9
    kappa2: int = 3
    detection_threshold: float = 0.2
    overlap_threshold: float = 0.0
    cold_start_passthrough: bool = True
    memory_from_ie_only: bool = False

    def __post_init__(self):
        if self.kappa1 < 1 or self.kappa2 < 1:
            raise ValueError(
                f"kappa1 and kappa2 must be >= 1, got {self.kappa1} and {self.kappa2}"
            )
        if not (0.0 <= self.detection_threshold <= 1.0):
            raise ValueError(
                f"detection_threshold must be in [0, 1], got {self.detection_threshold}"
            )
        if not (0.0 <= self.overlap_threshold < 1.0):
            raise ValueError(
                f"overlap_threshold must be in [0, 1), got {self.overlap_threshold}"
            )


@dataclass
class PromptDetections:
    """Parallel boxes / features / scores of one prompt's detections."""

    boxes: list[BBox]
    features: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        self.features = np.atleast_2d(np.asarray(self.features, dtype=np.float64))
        self.scores = np.asarray(self.scores, dtype=np.float64).reshape(-1)
        if len(self.boxes) == 0 and self.features.size == 0:
            self.features = self.features.reshape(0, self.features.shape[-1] or 1)
        if not (len(self.boxes) == len(self.features) == len(self.scores)):
            raise ValueError(
                f"boxes/features/scores lengths differ: "
                f"{len(self.boxes)}/{len(self.features)}/{len(self.scores)}"
            )
        if self.scores.size and (self.scores.min() < 0.0 or self.scores.max() > 1.0):
            raise ValueError("scores must lie in [0, 1]")

    def __len__(self) -> int:
        return len(self.boxes)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @classmethod
    def empty(cls, dim: int = 1) -> "PromptDetections":
        return cls([], np.zeros((0, max(dim, 1))), np.zeros(0))

    def subset(self, indices) -> "PromptDetections":
        indices = np.asarray(indices, dtype=int)
        return PromptDetections(
            [self.boxes[i] for i in indices],
            self.features[indices] if len(indices) else np.zeros((0, self.dim)),
            self.scores[indices],
        )

    @staticmethod
    def concat(a: "PromptDetections", b: "PromptDetections") -> "PromptDetections":
        if len(a) == 0:
            return b
        if len(b) == 0:
            return a
        if a.dim != b.dim:
            raise DimensionMismatch(f"feature dims differ: {a.dim} vs {b.dim}")
        return PromptDetections(
            a.boxes + b.boxes,
            np.vstack([a.features, b.features]),
            np.concatenate([a.scores, b.scores]),
        )


@dataclass(frozen=True)
class MemoryEntry:
    box: BBox
    feature: np.ndarray
    score: float
    frame: int
    index: int


def _top_k(entries: list[MemoryEntry], k: int) -> list[MemoryEntry]:
    # ties broken by earlier frame, then lower in-frame index
    return sorted(entries, key=lambda e: (-e.score, e.frame, e.index))[:k]


@dataclass
class MemoryBank:
    """Long/short bands of high-confidence true positives.

    The long band keeps the top kappa1 scores since the start of tracking;
    the short band keeps the top kappa2 scores from the last three frames.
    """

    kappa1: int = TpodConfig.kappa1
    kappa2: int = TpodConfig.kappa2
    long: list[MemoryEntry] = field(default_factory=list)
    short: list[MemoryEntry] = field(default_factory=list)
    window: list[tuple[int, list[MemoryEntry]]] = field(default_factory=list)

    @property
    def usable(self) -> bool:
        return bool(self.long) and bool(self.short)

    def long_features(self) -> np.ndarray:
        return np.vstack([e.feature for e in self.long])

    def short_features(self) -> np.ndarray:
        return np.vstack([e.feature for e in self.short])

    def update(self, accepted: PromptDetections, frame: int) -> "MemoryBank":
        """Fold one frame's accepted true positives into both bands."""
        entries = [
            MemoryEntry(accepted.boxes[i], accepted.features[i],
                        float(accepted.scores[i]), frame, i)
            for i in range(len(accepted))
        ]
        self.long = _top_k(self.long + entries, self.kappa1)
        self.window.append((frame, entries))
        if len(self.window) > SHORT_WINDOW_FRAMES:
            self.window = self.window[-SHORT_WINDOW_FRAMES:]
        pool = [e for _, batch in self.window for e in batch]
        self.short = _top_k(pool, self.kappa2)
        return self


@dataclass
class LsmSimilarityProfile:
    """Per-box and pooled feature similarity against the memory bands."""

    sim_long: np.ndarray
    sim_short: np.ndarray
    sim_long_overall: float
    sim_short_overall: float


@dataclass(frozen=True)
class TpodFrameStats:
    n_general: int
    n_ie_tps: int
    n_dropped: int
    n_unclassified: int
    n_rescued: int
    n_rejected: int


def _check_dims(*sets: PromptDetections) -> None:
    dims = {s.dim for s in sets if len(s) > 0}
    if len(dims) > 1:
        raise DimensionMismatch(f"prompt feature dims differ: {sorted(dims)}")


def ie_classify(
    general: PromptDetections,
    include: PromptDetections,
    exclude: PromptDetections,
    overlap_threshold: float = TpodConfig.overlap_threshold,
) -> tuple[PromptDetections, PromptDetections]:
    """Classify general-prompt boxes by include/exclude overlap.

    Returns (true positives, unclassified); boxes overlapping an exclude box
    are dropped. A box overlapping both sides goes to the larger IoU, ties
    falling to the exclude side.
    """
    if not (0.0 <= overlap_threshold < 1.0):
        raise ValueError(f"overlap_threshold must be in [0,1), got {overlap_threshold}")
    _check_dims(general, include, exclude)
    n = len(general)
    if n == 0:
        return general, general
    max_inc = (
        iou_matrix(general.boxes, include.boxes).max(axis=1)
        if len(include)
        else np.zeros(n)
    )
    max_exc = (
        iou_matrix(general.boxes, exclude.boxes).max(axis=1)
        if len(exclude)
        else np.zeros(n)
    )
    inc_hit = max_inc > overlap_threshold
    exc_hit = max_exc > overlap_threshold
    tp_mask = inc_hit & (~exc_hit | (max_inc > max_exc))
    fp_mask = exc_hit & ~tp_mask
    uncl_mask = ~tp_mask & ~fp_mask
    return general.subset(np.flatnonzero(tp_mask)), general.subset(np.flatnonzero(uncl_mask))


def lsm_similarity_profile(
    memory: MemoryBank, unclassified: PromptDetections
) -> LsmSimilarityProfile:
    """Mean cosine similarity of each unclassified box against both bands.

    Means run over the actual band occupancy (bands may hold fewer than
    kappa entries early in a sequence); the pooled values are the means of
    the per-box values.
    """
    if not memory.long or not memory.short:
        raise EmptyMemory("both memory bands must be non-empty")
    if len(unclassified) == 0:
        raise EmptyInput("no unclassified boxes to profile")
    sim_long = cosine_matrix(memory.long_features(), unclassified.features).mean(axis=0)
    sim_short = cosine_matrix(memory.short_features(), unclassified.features).mean(axis=0)
    return LsmSimilarityProfile(
        sim_long=sim_long,
        sim_short=sim_short,
        sim_long_overall=float(sim_long.mean()),
        sim_short_overall=float(sim_short.mean()),
    )


def lsm_classify(
    profile: LsmSimilarityProfile, unclassified: PromptDetections
) -> tuple[PromptDetections, PromptDetections]:
    """Split unclassified boxes into rescued TPs and rejected FPs.

    A box is rejected only when strictly below the pooled similarity on
    both the short and the long band.
    """
    fp_mask = (profile.sim_short < profile.sim_short_overall) & (
        profile.sim_long < profile.sim_long_overall
    )
    return (
        unclassified.subset(np.flatnonzero(~fp_mask)),
        unclassified.subset(np.flatnonzero(fp_mask)),
    )


@dataclass
class TpodFrameResult:
    final_tps: PromptDetections
    memory: MemoryBank
    stats: TpodFrameStats


def tpod_frame(
    general: PromptDetections,
    include: PromptDetections,
    exclude: PromptDetections,
    memory: MemoryBank,
    frame: int,
    config: TpodConfig | None = None,
) -> TpodFrameResult:
    """One frame of the full filtering pipeline: IE stage, then LSM stage.

    While the memory bands are still empty (cold start) unclassified boxes
    pass through as TPs by default, otherwise the memory could never fill.
    The memory is updated with the frame's final TPs and returned.
    """
    config = config or TpodConfig()
    tps_ie, unclassified = ie_classify(
        general, include, exclude, config.overlap_threshold
    )
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
    final = PromptDetections.concat(tps_ie, rescued)
    memory.update(tps_ie if config.memory_from_ie_only else final, frame)
    stats = TpodFrameStats(
        n_general=len(general),
        n_ie_tps=len(tps_ie),
        n_dropped=len(general) - len(tps_ie) - len(unclassified),
        n_unclassified=len(unclassified),
        n_rescued=len(rescued),
        n_rejected=len(rejected),
    )
    return TpodFrameResult(final_tps=final, memory=memory, stats=stats)
