from dataclasses import dataclass

import numpy as np
import pytest

from macsort.errors import DimensionMismatch, EmptyInput, EmptyMemory
from macsort.geometry import BBox
from macsort.prompt_filter import (
    MemoryBank,
    SHORT_WINDOW_FRAMES,
    PromptDetections,
    TpodConfig,
    ie_classify,
    lsm_classify,
    lsm_similarity_profile,
    tpod_frame,
)

E1 = np.array([1.0, 0.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0, 0.0])


def dets(boxes, feats, scores=None):
    if scores is None:
        scores = [0.9] * len(boxes)
    return PromptDetections([BBox(*b) for b in boxes], np.array(feats), np.array(scores))


def spaced_boxes(n, step=100.0, size=10.0):
    return [(i * step, 0.0, size, size) for i in range(n)]


class TestIeClassify:
    def test_partition_rules(self):
        # A overlaps include, B overlaps exclude, C disjoint from both
        general = dets([(0, 0, 10, 10), (100, 0, 10, 10), (200, 0, 10, 10)],
                       [E1, E1, E1])
        include = dets([(1, 0, 10, 10)], [E1])
        exclude = dets([(101, 0, 10, 10)], [E1])
        tps, uncl = ie_classify(general, include, exclude)
        assert tps.boxes[:, 0].tolist() == [0]
        assert uncl.boxes[:, 0].tolist() == [200]

    def test_empty_prompts_leave_all_unclassified(self):
        general = dets(spaced_boxes(3), [E1, E1, E2])
        empty = PromptDetections.empty(4)
        tps, uncl = ie_classify(general, empty, empty)
        assert len(tps) == 0
        assert len(uncl) == 3

    def test_full_include_coverage(self):
        general = dets(spaced_boxes(3), [E1, E1, E2])
        tps, uncl = ie_classify(general, general, PromptDetections.empty(4))
        assert len(tps) == 3 and len(uncl) == 0

    def test_tie_goes_to_exclude(self):
        general = dets([(0, 0, 10, 10)], [E1])
        same = dets([(2, 0, 10, 10)], [E1])
        tps, uncl = ie_classify(general, same, same)
        assert len(tps) == 0 and len(uncl) == 0

    def test_higher_iou_wins(self):
        general = dets([(0, 0, 10, 10)], [E1])
        include = dets([(1, 0, 10, 10)], [E1])   # closer overlap
        exclude = dets([(6, 0, 10, 10)], [E1])
        tps, _ = ie_classify(general, include, exclude)
        assert len(tps) == 1

    def test_overlap_threshold_gates(self):
        general = dets([(0, 0, 10, 10)], [E1])
        include = dets([(8, 0, 10, 10)], [E1])  # iou = 2/18 ~ 0.111
        tps, uncl = ie_classify(general, include, PromptDetections.empty(4), 0.2)
        assert len(tps) == 0 and len(uncl) == 1

    def test_dim_mismatch(self):
        general = dets([(0, 0, 10, 10)], [E1])
        include = dets([(0, 0, 10, 10)], [[1.0, 0.0]])
        with pytest.raises(DimensionMismatch):
            ie_classify(general, include, PromptDetections.empty(4))

    def test_partition_counts_random(self, rng):
        for _ in range(50):
            n_g, n_i, n_e = rng.integers(1, 8, 3)
            mk = lambda n: dets(
                [(u, v, 10, 10) for u, v in rng.uniform(0, 80, (n, 2))],
                rng.standard_normal((n, 4)),
            )
            general = mk(n_g)
            tps, uncl = ie_classify(general, mk(n_i), mk(n_e))
            assert len(tps) + len(uncl) <= len(general)
            got = {tuple(b) for b in tps.boxes.tolist()} | {tuple(b) for b in uncl.boxes.tolist()}
            assert len(got) == len(tps) + len(uncl)  # disjoint subsets


def full_memory(feature=E1, n_frames=2):
    memory = MemoryBank(kappa1=9, kappa2=3)
    for f in range(n_frames):
        memory.update(dets(spaced_boxes(3), [feature] * 3, [0.9, 0.8, 0.7]), f)
    return memory


class TestLsmProfile:
    def test_identical_features_give_one(self):
        memory = full_memory()
        profile = lsm_similarity_profile(memory, dets([(0, 0, 5, 5)], [E1]))
        assert profile.sim_long[0] == pytest.approx(1.0)
        assert profile.sim_short[0] == pytest.approx(1.0)
        assert profile.sim_long_overall == pytest.approx(1.0)
        assert profile.sim_short_overall == pytest.approx(1.0)

    def test_orthogonal_pair_means(self):
        memory = full_memory()
        profile = lsm_similarity_profile(
            memory, dets(spaced_boxes(2), [E1, E2])
        )
        assert profile.sim_long == pytest.approx([1.0, 0.0])
        assert profile.sim_long_overall == pytest.approx(0.5)
        assert profile.sim_short == pytest.approx([1.0, 0.0])
        assert profile.sim_short_overall == pytest.approx(0.5)

    def test_single_box_equals_aggregate(self):
        memory = full_memory()
        profile = lsm_similarity_profile(memory, dets([(0, 0, 5, 5)], [E2]))
        assert profile.sim_long_overall == profile.sim_long[0]
        assert profile.sim_short_overall == profile.sim_short[0]

    def test_aggregate_is_mean_of_per_box(self, rng):
        memory = full_memory()
        feats = rng.standard_normal((5, 4))
        profile = lsm_similarity_profile(memory, dets(spaced_boxes(5), feats))
        assert profile.sim_long_overall == pytest.approx(profile.sim_long.mean())
        assert profile.sim_short_overall == pytest.approx(profile.sim_short.mean())

    def test_empty_memory_raises(self):
        with pytest.raises(EmptyMemory):
            lsm_similarity_profile(MemoryBank(), dets([(0, 0, 5, 5)], [E1]))

    def test_empty_input_raises(self):
        with pytest.raises(EmptyInput):
            lsm_similarity_profile(full_memory(), PromptDetections.empty(4))


class TestLsmClassify:
    def test_single_box_is_tp(self):
        memory = full_memory()
        uncl = dets([(0, 0, 5, 5)], [E2])  # dissimilar, but alone
        profile = lsm_similarity_profile(memory, uncl)
        tps, fps = lsm_classify(profile, uncl)
        assert len(tps) == 1 and len(fps) == 0

    def test_orthogonal_pair_split(self):
        memory = full_memory()
        uncl = dets(spaced_boxes(2), [E1, E2])
        profile = lsm_similarity_profile(memory, uncl)
        tps, fps = lsm_classify(profile, uncl)
        assert tps.boxes[:, 0].tolist() == [0]
        assert fps.boxes[:, 0].tolist() == [100]

    def test_shared_feature_all_tp(self):
        memory = full_memory()
        uncl = dets(spaced_boxes(4), [E2] * 4)
        profile = lsm_similarity_profile(memory, uncl)
        tps, fps = lsm_classify(profile, uncl)
        assert len(tps) == 4 and len(fps) == 0


def tagged(frame, scores):
    """A frame's detections whose features read (frame, in-frame index)."""
    feats = [(frame, i, 1.0, 0.0) for i in range(len(scores))]
    return dets(spaced_boxes(len(scores)), feats, scores)


def frame_index(band):
    return [tuple(row) for row in band.features[:, :2].astype(int).tolist()]


@dataclass(frozen=True)
class RefEntry:
    feature: np.ndarray
    score: float
    frame: int
    index: int


class RefMemoryBank:
    """The memory bank as lists of entries, each band re-sorted by
    (-score, frame, index) on every update; kept as a test oracle."""

    def __init__(self, kappa1, kappa2):
        self.kappa1, self.kappa2 = kappa1, kappa2
        self.long, self.short, self.window = [], [], []

    @staticmethod
    def _top_k(entries, k):
        return sorted(entries, key=lambda e: (-e.score, e.frame, e.index))[:k]

    def update(self, accepted, frame):
        entries = [RefEntry(accepted.features[i], float(accepted.scores[i]), frame, i)
                   for i in range(len(accepted))]
        self.long = self._top_k(self.long + entries, self.kappa1)
        self.window = (self.window + [entries])[-SHORT_WINDOW_FRAMES:]
        self.short = self._top_k([e for batch in self.window for e in batch], self.kappa2)


class TestMemoryBank:
    def test_top_k_selection(self, rng):
        memory = MemoryBank(kappa1=9, kappa2=3)
        scores = rng.permutation(np.linspace(0.1, 0.9, 12))
        memory.update(dets(spaced_boxes(12), [E1] * 12, scores), 0)
        assert len(memory.long) == 9
        assert len(memory.short) == 3
        top = sorted(scores, reverse=True)
        assert memory.long.scores.tolist() == pytest.approx(top[:9])
        assert memory.short.scores.tolist() == pytest.approx(top[:3])

    def test_short_window_eviction(self):
        memory = MemoryBank()
        memory.update(tagged(0, [0.99]), 0)
        for f in (1, 2, 3):
            memory.update(tagged(f, [0.5]), f)
        assert all(f >= 1 for f, _ in frame_index(memory.short))
        assert (0, 0) in frame_index(memory.long)  # long keeps the best

    def test_long_stable_when_full_of_better(self):
        memory = MemoryBank(kappa1=3)
        memory.update(tagged(0, [0.9, 0.8, 0.7]), 0)
        before = memory.long.scores.tolist(), frame_index(memory.long)
        memory.update(tagged(1, [0.1]), 1)
        assert (memory.long.scores.tolist(), frame_index(memory.long)) == before

    def test_tie_break_earlier_frame_lower_index(self):
        memory = MemoryBank(kappa1=2)
        memory.update(tagged(3, [0.5, 0.5]), 3)
        memory.update(tagged(4, [0.5]), 4)
        assert frame_index(memory.long) == [(3, 0), (3, 1)]

    def test_bounds_always_hold(self, rng):
        memory = MemoryBank(kappa1=9, kappa2=3)
        for f in range(40):
            n = int(rng.integers(0, 6))
            memory.update(
                dets(spaced_boxes(n), rng.standard_normal((n, 4)), rng.uniform(0, 1, n)),
                f,
            )
            assert len(memory.long) <= 9
            assert len(memory.short) <= 3
            scores = memory.long.scores.tolist()
            assert scores == sorted(scores, reverse=True)

    def test_equals_entry_lists_on_tied_scores(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            kappa1, kappa2 = (int(k) for k in rng.integers(1, 8, 2))
            memory, ref = MemoryBank(kappa1, kappa2), RefMemoryBank(kappa1, kappa2)
            for frame in range(1, 25):
                n = int(rng.choice([0, 0, 1, 2, 4, 6]))  # empty frames are common
                accepted = dets(spaced_boxes(n), rng.standard_normal((n, 3)),
                                rng.choice([0.3, 0.6, 0.9], n))
                memory.update(accepted, frame)
                ref.update(accepted, frame)
                for band, want in ((memory.long, ref.long), (memory.short, ref.short)):
                    assert band.scores.tolist() == [e.score for e in want]
                    assert np.array_equal(band.features.reshape(-1, 3),
                                          np.array([e.feature for e in want]).reshape(-1, 3))


class TestTpodFrame:
    def test_cold_start_passthrough(self):
        general = dets(spaced_boxes(3), [E1, E1, E2])
        empty = PromptDetections.empty(4)
        res = tpod_frame(general, empty, empty, MemoryBank(), 0)
        assert len(res.final_tps) == 3
        assert res.stats.n_dropped == 0

    def test_cold_start_reject_mode(self):
        general = dets(spaced_boxes(3), [E1, E1, E2])
        empty = PromptDetections.empty(4)
        cfg = TpodConfig(cold_start_passthrough=False)
        res = tpod_frame(general, empty, empty, MemoryBank(), 0, cfg)
        assert len(res.final_tps) == 0
        assert res.stats.n_rejected == 3

    def test_ie_example_composition(self):
        general = dets([(0, 0, 10, 10), (100, 0, 10, 10)], [E1, E1])
        include = dets([(1, 0, 10, 10)], [E1])
        exclude = dets([(101, 0, 10, 10)], [E1])
        res = tpod_frame(general, include, exclude, MemoryBank(), 0)
        assert res.final_tps.boxes[:, 0].tolist() == [0]
        assert res.stats.n_dropped == 1

    def test_rescue_scenario(self):
        # frames 1..2 fill the memory with E1 cars via include overlap;
        # frame 3 has an unclassified true car (E1) next to clutter (E2):
        # the car is rescued, the clutter rejected
        memory = MemoryBank()
        cfg = TpodConfig()
        for frame in (1, 2):
            general = dets(spaced_boxes(2), [E1, E1], [0.9, 0.8])
            include = dets(spaced_boxes(2), [E1, E1], [0.9, 0.8])
            res = tpod_frame(general, include, PromptDetections.empty(4), memory, frame, cfg)
            assert len(res.final_tps) == 2
        general = dets([(0, 0, 10, 10), (300, 0, 10, 10)], [E1, E2])
        res = tpod_frame(
            general, PromptDetections.empty(4), PromptDetections.empty(4), memory, 3, cfg
        )
        assert res.final_tps.boxes[:, 0].tolist() == [0]
        assert res.stats.n_rescued == 1
        assert res.stats.n_rejected == 1

    def test_memory_from_ie_only_flag(self):
        cfg = TpodConfig(memory_from_ie_only=True)
        memory = MemoryBank()
        general = dets(spaced_boxes(2), [E1, E2], [0.9, 0.8])
        include = dets([(0, 0, 10, 10)], [E1])
        tpod_frame(general, include, PromptDetections.empty(4), memory, 0, cfg)
        # passthrough box excluded from memory: only the IE TP is stored
        assert len(memory.long) == 1

    def test_partition_every_frame_random(self, rng):
        memory = MemoryBank()
        cfg = TpodConfig()
        for frame in range(30):
            n = int(rng.integers(1, 7))
            general = dets(
                [(u, v, 10, 10) for u, v in rng.uniform(0, 100, (n, 2))],
                rng.standard_normal((n, 4)),
                rng.uniform(0.2, 1.0, n),
            )
            m = int(rng.integers(0, 4))
            include = dets(
                [(u, v, 10, 10) for u, v in rng.uniform(0, 100, (m, 2))],
                rng.standard_normal((m, 4)),
            ) if m else PromptDetections.empty(4)
            res = tpod_frame(general, include, PromptDetections.empty(4), memory, frame, cfg)
            s = res.stats
            assert len(res.final_tps) + s.n_dropped + s.n_rejected == s.n_general


class TestMonotonicity:
    # LSM aggregates shift when the unclassified pool changes, so these
    # guarantees are scoped to the IE stage and the cold-start path.
    def test_adding_exclude_never_increases_ie_tps(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 7))
            general = dets(
                [(u, v, 10, 10) for u, v in rng.uniform(0, 60, (n, 2))],
                rng.standard_normal((n, 4)),
            )
            include = dets(
                [(u, v, 10, 10) for u, v in rng.uniform(0, 60, (2, 2))],
                rng.standard_normal((2, 4)),
            )
            exclude = dets(
                [(u, v, 10, 10) for u, v in rng.uniform(0, 60, (1, 2))],
                rng.standard_normal((1, 4)),
            )
            extra = dets(
                [(u, v, 10, 10) for u, v in rng.uniform(0, 60, (1, 2))],
                rng.standard_normal((1, 4)),
            )
            tps0, uncl0 = ie_classify(general, include, exclude)
            tps1, uncl1 = ie_classify(
                general, include, PromptDetections.concat(exclude, extra)
            )
            assert len(tps1) <= len(tps0)
            assert len(tps1) + len(uncl1) <= len(tps0) + len(uncl0)

    def test_adding_include_never_decreases_ie_tps(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 7))
            general = dets(
                [(u, v, 10, 10) for u, v in rng.uniform(0, 60, (n, 2))],
                rng.standard_normal((n, 4)),
            )
            include = dets(
                [(u, v, 10, 10) for u, v in rng.uniform(0, 60, (1, 2))],
                rng.standard_normal((1, 4)),
            )
            exclude = dets(
                [(u, v, 10, 10) for u, v in rng.uniform(0, 60, (1, 2))],
                rng.standard_normal((1, 4)),
            )
            extra = dets(
                [(u, v, 10, 10) for u, v in rng.uniform(0, 60, (1, 2))],
                rng.standard_normal((1, 4)),
            )
            tps0, _ = ie_classify(general, include, exclude)
            tps1, _ = ie_classify(
                general, PromptDetections.concat(include, extra), exclude
            )
            assert len(tps1) >= len(tps0)
