"""Detector-side filtering of prompt-based detections.

Two stages decide each general-prompt box. The include-exclude (IE) stage
classifies it by overlap against the include- and exclude-prompt boxes of
its frame: include overlap keeps it as a true positive, exclude overlap
drops it, no overlap leaves it unclassified. The overlaps depend on the
frame's own boxes only, so ``ie_overlaps`` computes every row's maxima in
one pass over the sequence's frame-sorted columns, and ``ie_classify``
decides one frame from them.
The long-short memory (LSM) stage then runs frame by frame: it rescues or
rejects unclassified boxes by comparing their features against two
confidence-ranked banks of past true positives, a long band over the
whole sequence and a short band over the last three frames. A box is
rejected only when it sits strictly below the mean similarity of the whole
unclassified pool on both bands. ``tpod_frame`` normalises a frame's
features once; the bands hold those unit rows. It returns the kept rows
as indices into the frame's general rows, so the filter's output is one
take of the general columns, with the raw features.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, EmptyInput, EmptyMemory
from .geometry import box_edges, iou_of_edges, unit_rows, uvwh_array

SHORT_WINDOW_FRAMES = 3
# ie_overlaps holds at most this many (general, prompt) pairs at a time; a
# general row with more runs alone
IE_MAX_PAIRS = 1 << 14


@dataclass
class TpodConfig:
    """Knobs of the per-frame filter; a MemoryBank carries them to ``tpod_frame``."""

    kappa1: int = 9
    kappa2: int = 3
    detection_threshold: float = 0.2
    overlap_threshold: float = 0.0
    cold_start_passthrough: bool = True
    memory_from_ie_only: bool = False

    def __post_init__(self):
        if self.kappa1 < 1 or self.kappa2 < 1:
            raise ValueError(
                f"kappa1 and kappa2 must be >= 1, got {self.kappa1} and {self.kappa2}")
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
    """Detections of one prompt as parallel arrays: boxes (n, 4) as (u, v,
    w, h), features (n, d) and scores (n,), for one frame or, next to a
    frame column, for a sequence. A frame's table is also what MacSort.step
    reads. Boxes may be given as a list of BBox. Float32 or float64
    features are kept as given (a sidecar's embeddings stay float32);
    features of any other type are read as float64. Every computation on
    features starts from ``unit_rows``, which widens them to float64."""

    boxes: np.ndarray
    features: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        self.boxes = uvwh_array(self.boxes)
        features = np.asarray(self.features)
        if features.dtype not in (np.float32, np.float64):
            features = features.astype(np.float64)
        self.features = np.atleast_2d(features)
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

    def take(self, rows) -> "PromptDetections":
        """The rows selected by an index array, boolean mask or slice; a
        slice views them. The rows of a checked table need no new check, so
        ``__post_init__`` is not run again."""
        out = object.__new__(PromptDetections)
        out.boxes, out.features, out.scores = (
            self.boxes[rows], self.features[rows], self.scores[rows])
        return out


# a memory band or short-window entry: features (n, d) and scores (n,)
Band = tuple[np.ndarray, np.ndarray]


def _concat_rows(*sets: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """The rows of parallel columns, features next to last and scores last,
    set after set; an empty set adds nothing, and when all are empty the
    last one is returned."""
    full = [cols for cols in sets if len(cols[-1])]
    if len(full) <= 1:
        return full[0] if full else sets[-1]
    dims = [cols[-2].shape[1] for cols in full]
    if len(set(dims)) > 1:
        raise DimensionMismatch(f"feature dims differ: {' vs '.join(map(str, dims))}")
    return tuple(np.concatenate(col) for col in zip(*full))


def _top_k(features: np.ndarray, scores: np.ndarray, k: int) -> Band:
    """The k highest-scoring rows; a stable sort keeps equal scores in row
    order."""
    keep = np.argsort(-scores, kind="stable")[:k]
    return features[keep], scores[keep]


@dataclass
class MemoryBank:
    """Long/short bands of high-confidence true positives, each a Band, and
    the TpodConfig that sizes them and that ``tpod_frame`` reads.

    The long band keeps the top ``config.kappa1`` scores since the start of
    tracking; the short band keeps the top ``config.kappa2`` scores from the
    last three frames (``window``, the accepted Bands of the last three
    updates). Bands are ranked by score, ties broken by earlier frame, then
    lower in-frame index: rows enter in that order, and the ranking is
    stable. The rows are kept as given; ``tpod_frame`` gives unit feature
    rows, which ``lsm_similarity_profile`` reads.
    """

    config: TpodConfig
    long: Band = field(init=False, default=(np.zeros((0, 1)), np.zeros(0)))
    short: Band = field(init=False, default=(np.zeros((0, 1)), np.zeros(0)))
    window: list[Band] = field(init=False, default_factory=list)

    @property
    def usable(self) -> bool:
        return len(self.long[1]) > 0 and len(self.short[1]) > 0

    @property
    def idle(self) -> bool:
        """True when an update with no rows would change nothing: the short
        window holds no rows, so the short band is empty and stays so."""
        return not any(len(scores) for _, scores in self.window)

    def update(self, features: np.ndarray, scores: np.ndarray) -> "MemoryBank":
        """Fold one frame's accepted true positives into both bands; frames
        are to come in ascending order."""
        self.long = _top_k(*_concat_rows(self.long, (features, scores)), self.config.kappa1)
        self.window = [*self.window, (features, scores)][-SHORT_WINDOW_FRAMES:]
        self.short = _top_k(*_concat_rows(*self.window), self.config.kappa2)
        return self


@dataclass(frozen=True)
class TpodFrameStats:
    n_general: int
    n_ie_tps: int
    n_dropped: int
    n_rescued: int
    n_rejected: int


def _row_maxima(g_frame, g_edges, p_frame, p_edges) -> np.ndarray:
    """Each general row's largest IoU against the prompt rows of its own
    frame, 0 where there are none, from both sides' frame-sorted frame
    columns and box edges."""
    first_col = np.searchsorted(p_frame, g_frame, side="left")  # a row's pairs: its frame's rows
    per_row = np.searchsorted(p_frame, g_frame, side="right") - first_col
    pairs_before = np.concatenate([[0], np.cumsum(per_row)])
    out = np.zeros(len(per_row))
    lo = 0
    while lo < len(per_row):
        # as many rows from ``lo`` on as fit in IE_MAX_PAIRS, at least one
        fit = np.searchsorted(pairs_before, pairs_before[lo] + IE_MAX_PAIRS, side="right") - 1
        hi = max(int(fit), lo + 1)
        if pairs_before[hi] > pairs_before[lo]:
            before = pairs_before[lo:hi] - pairs_before[lo]
            rows = np.repeat(np.arange(lo, hi), per_row[lo:hi])
            # the k-th pair of row r pairs it with its frame's k-th prompt row
            cols = first_col[rows] + np.arange(len(rows)) - before[rows - lo]
            iou = iou_of_edges([e[rows] for e in g_edges], [e[cols] for e in p_edges])
            paired = np.flatnonzero(per_row[lo:hi])
            out[lo + paired] = np.maximum.reduceat(iou, before[paired])
        lo = hi
    return out


def ie_overlaps(general, include, exclude) -> tuple[np.ndarray, np.ndarray]:
    """The include/exclude maxima of a sequence.

    Each argument is a ``(frame column, boxes)`` pair of (n,) frames and
    (n, 4) (u, v, w, h) boxes, rows sorted by frame. Returns two arrays
    over the general rows: each row's largest IoU against the include
    rows of its own frame, and its largest against the exclude rows, 0
    where there are none. Every same-frame pair is scored by
    ``iou_of_edges`` on pair columns, with the bits of the frame's
    ``iou_matrix`` cell, and reduced per row. At most IE_MAX_PAIRS pairs are
    held at a time: rows are batched, and a row with more runs alone.
    """
    g_frame, g_boxes = general
    g_edges = box_edges(g_boxes)
    return tuple(_row_maxima(g_frame, g_edges, frame, box_edges(boxes))
                 for frame, boxes in (include, exclude))


def ie_classify(
    max_inc: np.ndarray,
    max_exc: np.ndarray,
    overlap_threshold: float = TpodConfig.overlap_threshold,
) -> tuple[np.ndarray, np.ndarray]:
    """Classify one frame's general-prompt boxes by their include/exclude
    maxima (``ie_overlaps``).

    Returns the row indices of the true positives and of the unclassified
    boxes, each ascending; boxes whose exclude overlap is above the
    threshold are dropped. A box overlapping both sides goes to the larger
    IoU, ties falling to the exclude side.
    """
    if not (0.0 <= overlap_threshold < 1.0):
        raise ValueError(f"overlap_threshold must be in [0,1), got {overlap_threshold}")
    inc_hit = max_inc > overlap_threshold
    exc_hit = max_exc > overlap_threshold
    tp_mask = inc_hit & (~exc_hit | (max_inc > max_exc))
    return np.flatnonzero(tp_mask), np.flatnonzero(~tp_mask & ~exc_hit)


def lsm_similarity_profile(memory: MemoryBank,
                           unit_features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(sim_long, sim_short)``: the mean cosine similarity of each
    unclassified box against the long and the short band, from the boxes'
    unit feature rows (n, d) and the bands' unit rows. Means run over the
    actual band occupancy (bands may hold fewer than kappa entries early in
    a sequence).
    """
    if not memory.usable:
        raise EmptyMemory("both memory bands must be non-empty")
    if len(unit_features) == 0:
        raise EmptyInput("no unclassified boxes to profile")
    band_dim, dim = memory.long[0].shape[1], unit_features.shape[1]
    if band_dim != dim:
        raise DimensionMismatch(f"embedding dims differ: {band_dim} vs {dim}")
    return tuple(np.clip(band @ unit_features.T, -1.0, 1.0).mean(axis=0)
                 for band, _ in (memory.long, memory.short))


def lsm_classify(sim_long: np.ndarray, sim_short: np.ndarray) -> np.ndarray:
    """The boolean mask of the profiled boxes that are rejected as false
    positives; the rest are rescued as true positives.

    A box is rejected only when strictly below the pooled similarity, the
    mean over the profiled boxes, on both the short and the long band.
    """
    return (sim_short < sim_short.mean()) & (sim_long < sim_long.mean())


@dataclass
class TpodFrameResult:
    rows: np.ndarray  # the final true positives, as row indices into general
    stats: TpodFrameStats


def tpod_frame(
    general: PromptDetections,
    max_inc: np.ndarray,
    max_exc: np.ndarray,
    memory: MemoryBank,
    frame: int,
) -> TpodFrameResult:
    """One frame of the full filtering pipeline: IE stage on the frame's
    include/exclude maxima (``ie_overlaps``), then LSM stage, each under
    ``memory.config``. ``frame`` is the frame's number, for callers and
    traces that log it; the filter reads only the rows.

    While the memory bands are still empty (cold start) unclassified boxes
    pass through as TPs by default, otherwise the memory could never fill.
    The final TPs are the IE true positives, then the rescued boxes, each
    in ``general``'s row order, returned as row indices into ``general``.
    The memory is updated in place with their unit feature rows.
    """
    config = memory.config
    tp_rows, unclassified = ie_classify(max_inc, max_exc, config.overlap_threshold)
    unit = unit_rows(general.features)
    rescued = rejected = unclassified[:0]
    if len(unclassified):
        if memory.usable:
            fp_mask = lsm_classify(*lsm_similarity_profile(memory, unit[unclassified]))
            rescued, rejected = unclassified[~fp_mask], unclassified[fp_mask]
        elif config.cold_start_passthrough:
            rescued = unclassified
        else:
            rejected = unclassified
    final = np.concatenate([tp_rows, rescued])
    accepted = tp_rows if config.memory_from_ie_only else final
    memory.update(unit[accepted], general.scores[accepted])
    stats = TpodFrameStats(
        n_general=len(general),
        n_ie_tps=len(tp_rows),
        n_dropped=len(general) - len(tp_rows) - len(unclassified),
        n_rescued=len(rescued),
        n_rejected=len(rejected),
    )
    return TpodFrameResult(rows=final, stats=stats)
