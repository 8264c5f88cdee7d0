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
from .geometry import BBox, Detection, cosine_matrix, iou_matrix_edges, uvwh_array, uvwh_edges

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
    """One frame's detections of one prompt as parallel arrays: boxes (n, 4)
    as (u, v, w, h), features (n, d) and scores (n,). It is also the frame's
    detection table that MacSort.step reads. Boxes may be given as a list
    of BBox."""

    boxes: np.ndarray
    features: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        self.boxes = uvwh_array(self.boxes)
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
        return cls(np.zeros((0, 4)), np.zeros((0, max(dim, 1))), np.zeros(0))

    @classmethod
    def of(cls, detections: "PromptDetections | list[Detection]") -> "PromptDetections":
        """A detection table as it is, or the table of a list of Detection."""
        if isinstance(detections, PromptDetections):
            return detections
        if not detections:
            return cls.empty()
        return cls(
            [d.bbox for d in detections],
            np.stack([d.embedding for d in detections]),
            [d.confidence for d in detections],
        )

    def detection(self, i: int, frame: int) -> Detection:
        """Row ``i`` as a Detection of ``frame``."""
        return Detection(frame, BBox(*self.boxes[i].tolist()), float(self.scores[i]),
                         self.features[i])

    def subset(self, indices) -> "PromptDetections":
        indices = np.asarray(indices, dtype=int)
        return PromptDetections(
            self.boxes[indices], self.features[indices], self.scores[indices]
        )

    @staticmethod
    def concat(*sets: "PromptDetections") -> "PromptDetections":
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


def _top_k(rows: PromptDetections, k: int) -> PromptDetections:
    """The k highest-scoring rows; a stable sort keeps equal scores in row
    order."""
    return rows.subset(np.argsort(-rows.scores, kind="stable")[:k])


@dataclass
class MemoryBank:
    """Long/short bands of high-confidence true positives.

    The long band keeps the top kappa1 scores since the start of tracking;
    the short band keeps the top kappa2 scores from the last three frames
    (``window``, the accepted tables of the last three updates). Bands are
    ranked by score, ties broken by earlier frame, then lower in-frame
    index: rows enter in that order, and the ranking is stable.
    """

    kappa1: int = TpodConfig.kappa1
    kappa2: int = TpodConfig.kappa2
    long: PromptDetections = field(default_factory=PromptDetections.empty)
    short: PromptDetections = field(default_factory=PromptDetections.empty)
    window: list[PromptDetections] = field(default_factory=list)

    @property
    def usable(self) -> bool:
        return bool(self.long) and bool(self.short)

    def update(self, accepted: PromptDetections, frame: int) -> "MemoryBank":
        """Fold one frame's accepted true positives into both bands; frames
        are to come in ascending order."""
        self.long = _top_k(PromptDetections.concat(self.long, accepted), self.kappa1)
        self.window = [*self.window, accepted][-SHORT_WINDOW_FRAMES:]
        self.short = _top_k(PromptDetections.concat(*self.window), self.kappa2)
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
    edges = uvwh_edges(general.boxes)
    max_inc, max_exc = (
        iou_matrix_edges(edges, uvwh_edges(prompt.boxes)).max(axis=1)
        if len(prompt)
        else np.zeros(n)
        for prompt in (include, exclude)
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
    sim_long = cosine_matrix(memory.long.features, unclassified.features).mean(axis=0)
    sim_short = cosine_matrix(memory.short.features, unclassified.features).mean(axis=0)
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
