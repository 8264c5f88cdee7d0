from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from macsort.errors import DimensionMismatch, EmptyInput, EmptyMemory
import macsort.prompt_filter
from macsort.geometry import SWEEP_MIN_CELLS, BBox, iou_matrix, unit_rows
from macsort.prompt_filter import (
    MemoryBank,
    PromptDetections,
    TpodConfig,
    ie_classify,
    ie_overlaps,
    lsm_classify,
    lsm_similarity_profile,
)
from conftest import filter_frame, ie_split
import prompt_filter_ref as ref

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
        tps, uncl = ie_split(general, include, exclude)
        assert general.boxes[tps, 0].tolist() == [0]
        assert general.boxes[uncl, 0].tolist() == [200]

    def test_empty_prompts_leave_all_unclassified(self):
        general = dets(spaced_boxes(3), [E1, E1, E2])
        empty = PromptDetections.empty(4)
        tps, uncl = ie_split(general, empty, empty)
        assert tps.tolist() == []
        assert uncl.tolist() == [0, 1, 2]

    def test_full_include_coverage(self):
        general = dets(spaced_boxes(3), [E1, E1, E2])
        tps, uncl = ie_split(general, general, PromptDetections.empty(4))
        assert tps.tolist() == [0, 1, 2] and uncl.tolist() == []

    def test_tie_goes_to_exclude(self):
        general = dets([(0, 0, 10, 10)], [E1])
        same = dets([(2, 0, 10, 10)], [E1])
        tps, uncl = ie_split(general, same, same)
        assert tps.tolist() == [] and uncl.tolist() == []

    def test_higher_iou_wins(self):
        general = dets([(0, 0, 10, 10)], [E1])
        include = dets([(1, 0, 10, 10)], [E1])   # closer overlap
        exclude = dets([(6, 0, 10, 10)], [E1])
        tps, _ = ie_split(general, include, exclude)
        assert tps.tolist() == [0]

    @pytest.mark.parametrize("threshold", [1.0, -0.1])
    def test_threshold_outside_unit_rejected(self, threshold):
        with pytest.raises(ValueError, match=r"^overlap_threshold must be in \[0,1\), got "):
            ie_classify(np.zeros(1), np.zeros(1), threshold)

    def test_overlap_threshold_gates(self):
        general = dets([(0, 0, 10, 10)], [E1])
        include = dets([(8, 0, 10, 10)], [E1])  # iou = 2/18 ~ 0.111
        tps, uncl = ie_split(general, include, PromptDetections.empty(4), 0.2)
        assert tps.tolist() == [] and uncl.tolist() == [0]

    def test_partition_counts_random(self, rng):
        for _ in range(50):
            n_g, n_i, n_e = rng.integers(1, 8, 3)
            mk = lambda n: dets(
                [(u, v, 10, 10) for u, v in rng.uniform(0, 80, (n, 2))],
                rng.standard_normal((n, 4)),
            )
            general = mk(n_g)
            tps, uncl = ie_split(general, mk(n_i), mk(n_e))
            assert len(tps) + len(uncl) <= len(general)
            assert len(set(tps.tolist()) | set(uncl.tolist())) == len(tps) + len(uncl)  # disjoint
            assert np.all(np.diff(tps) > 0) and np.all(np.diff(uncl) > 0)


def boxes_near(rng, n, spread=60.0):
    """n boxes of 5-25 px near the origin, so that boxes of two sets often
    overlap."""
    return np.column_stack([rng.uniform(0, spread, (n, 2)), rng.uniform(5, 25, (n, 2))])


def frame_sets(rng, n_general, n_include, n_exclude, spread=60.0, dim=3):
    return tuple(
        PromptDetections(boxes_near(rng, n, spread), rng.standard_normal((n, dim)),
                         np.full(n, 0.5))
        if n else PromptDetections.empty(dim)
        for n in (n_general, n_include, n_exclude)
    )


def per_frame_maxima(sets):
    """The oracle: each frame's dense iou_matrix, maximum per general row, 0
    without prompt rows."""
    sides = [], []
    for g, i, e in sets:
        for side, prompt in zip(sides, (i, e)):
            side.append(iou_matrix(g.boxes, prompt.boxes).max(axis=1) if len(prompt)
                        else np.zeros(len(g)))
    return tuple(np.concatenate([np.zeros(0), *side]) for side in sides)


def sequence_columns(sets):
    """A sequence's per-frame (general, include, exclude) sets, in frames 1,
    4, 7, ..., as the three (frame column, boxes) pairs of ie_overlaps."""
    frames = np.arange(len(sets)) * 3 + 1
    return [(np.repeat(frames, [len(s[side]) for s in sets]).astype(np.int64),
             np.concatenate([np.zeros((0, 4)), *(s[side].boxes for s in sets)]))
            for side in range(3)]


def overlaps(sets):
    return ie_overlaps(*sequence_columns(sets))


def assert_same_bits(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestIeOverlaps:
    """ie_overlaps against per-frame iou_matrix maxima, bit for bit."""

    def test_random_sequences(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            counts = rng.choice([0, 0, 1, 2, 5, 9], (int(rng.integers(0, 12)), 3))
            sets = [frame_sets(rng, *c) for c in counts.tolist()]
            assert_same_bits(overlaps(sets), per_frame_maxima(sets))

    def test_empty_include_only_and_exclude_only_frames(self, rng):
        sets = [frame_sets(rng, *c) for c in
                ((0, 0, 0), (4, 0, 0), (4, 3, 0), (4, 0, 3), (0, 3, 3), (4, 3, 3), (3, 0, 0))]
        max_inc, max_exc = overlaps(sets)
        assert_same_bits((max_inc, max_exc), per_frame_maxima(sets))
        assert len(max_inc) == 4 * 4 + 3
        assert not max_inc[:4].any() and not max_exc[:8].any() and not max_inc[-3:].any()

    def test_touching_nested_and_identical_boxes(self):
        general = PromptDetections(
            [(0, 0, 10, 10), (0, 0, 10, 10), (0, 0, 10, 10), (100, 0, 10, 10)],
            np.ones((4, 2)), np.full(4, 0.5))
        include = PromptDetections(
            [(10, 0, 10, 10),          # touches general 0-2 at an edge: IoU 0
             (0, 0, 4, 4),             # nested inside general 0-2
             (100, 0, 10, 10)],        # identical to general 3
            np.ones((3, 2)), np.full(3, 0.5))
        exclude = PromptDetections([(0, 0, 10, 10), (105, 0, 10, 10)],
                                   np.ones((2, 2)), np.full(2, 0.5))
        sets = [(general, include, exclude)]
        max_inc, max_exc = overlaps(sets)
        assert_same_bits((max_inc, max_exc), per_frame_maxima(sets))
        assert max_inc.tolist() == [0.16, 0.16, 0.16, 1.0]
        assert max_exc.tolist() == [1.0, 1.0, 1.0, 1 / 3]

    def test_frame_where_iou_matrix_sweeps(self):
        rng = np.random.default_rng(7)
        big = frame_sets(rng, 90, 80, 60, spread=400.0)  # 7,200 and 5,400 cells: iou_matrix sweeps
        sets = [frame_sets(rng, 3, 2, 1), big, frame_sets(rng, 4, 0, 2)]
        assert len(big[0]) * len(big[2]) >= SWEEP_MIN_CELLS
        max_inc, max_exc = overlaps(sets)
        assert_same_bits((max_inc, max_exc), per_frame_maxima(sets))
        assert 0 < np.count_nonzero(max_inc[3:93]) < 90  # overlaps and misses both

    @pytest.mark.parametrize("cap", [1, 7, 30])
    def test_batches_split_under_a_small_cap(self, monkeypatch, cap):
        rng = np.random.default_rng(cap)
        counts = [(2, 2, 1), (3, 3, 0), (0, 4, 4), (6, 6, 6), (1, 1, 1), (2, 0, 2), (5, 4, 3)]
        sets = [frame_sets(rng, *c) for c in counts]
        want = overlaps(sets)  # one batch at the module's cap
        batches = []
        real = macsort.prompt_filter.iou_of_edges

        def counted(edges_a, edges_b):
            # pairs, and general rows (their left edges are distinct here)
            batches.append((len(edges_a[0]), len(np.unique(edges_a[0]))))
            return real(edges_a, edges_b)

        monkeypatch.setattr(macsort.prompt_filter, "IE_MAX_PAIRS", cap)
        monkeypatch.setattr(macsort.prompt_filter, "iou_of_edges", counted)
        got = overlaps(sets)
        assert_same_bits(got, want)
        assert_same_bits(got, per_frame_maxima(sets))
        assert len(batches) > 2  # batches split mid-sequence
        # a batch holds at most cap pairs, unless it is one row with more
        assert all(n <= cap or rows == 1 for n, rows in batches)
        assert (max(batches)[0] > cap) == (cap < 6)  # 6: the most pairs of one row
        assert sum(n for n, _ in batches) == sum(len(g) * (len(i) + len(e)) for g, i, e in sets)

    def test_no_frames(self):
        assert_same_bits(overlaps([]), (np.zeros(0), np.zeros(0)))


def full_memory(feature=E1, n_frames=2):
    memory = MemoryBank(TpodConfig(kappa1=9, kappa2=3))
    for _ in range(n_frames):
        memory.update(np.array([feature] * 3), np.array([0.9, 0.8, 0.7]))
    return memory


def n_rows(band):
    """A memory band's row count; len() of the (features, scores) pair is
    always 2."""
    features, scores = band
    assert len(features) == len(scores)
    return len(scores)


class TestLsmProfile:
    def test_identical_features_give_one(self):
        memory = full_memory()
        sim_long, sim_short = lsm_similarity_profile(memory, np.array([E1]))
        assert sim_long.tolist() == pytest.approx([1.0])
        assert sim_short.tolist() == pytest.approx([1.0])

    def test_orthogonal_pair_means(self):
        memory = full_memory()
        sim_long, sim_short = lsm_similarity_profile(memory, np.array([E1, E2]))
        assert sim_long == pytest.approx([1.0, 0.0])
        assert sim_short == pytest.approx([1.0, 0.0])

    def test_single_box_equals_aggregate(self):
        """A box alone is its own pool's mean, so it is never below it."""
        memory = full_memory()
        sim_long, sim_short = lsm_similarity_profile(memory, np.array([E2]))
        assert sim_long.shape == sim_short.shape == (1,)
        assert lsm_classify(sim_long, sim_short).tolist() == [False]

    def test_aggregate_is_mean_of_per_box(self, rng):
        """lsm_classify cuts each band at the mean of the profiled boxes: a
        box is rejected exactly when strictly below it on both bands."""
        memory = full_memory()
        feats = rng.standard_normal((5, 4))
        sim_long, sim_short = lsm_similarity_profile(memory, feats)
        want = [long < sim_long.mean() and short < sim_short.mean()
                for long, short in zip(sim_long.tolist(), sim_short.tolist())]
        assert lsm_classify(sim_long, sim_short).tolist() == want

    def test_empty_memory_raises(self):
        with pytest.raises(EmptyMemory):
            lsm_similarity_profile(MemoryBank(TpodConfig()), np.array([E1]))

    def test_empty_input_raises(self):
        with pytest.raises(EmptyInput):
            lsm_similarity_profile(full_memory(), np.zeros((0, 4)))

    def test_dim_mismatch_raises(self):
        # the bands hold 4-d rows; numpy's matmul would raise ValueError
        with pytest.raises(DimensionMismatch, match="^embedding dims differ: 4 vs 3$"):
            lsm_similarity_profile(full_memory(), np.array([[1.0, 0.0, 0.0]]))


class TestLsmClassify:
    def test_single_box_is_tp(self):
        memory = full_memory()
        profile = lsm_similarity_profile(memory, np.array([E2]))  # dissimilar, but alone
        assert lsm_classify(*profile).tolist() == [False]

    def test_orthogonal_pair_split(self):
        memory = full_memory()
        profile = lsm_similarity_profile(memory, np.array([E1, E2]))
        assert lsm_classify(*profile).tolist() == [False, True]

    def test_shared_feature_all_tp(self):
        memory = full_memory()
        profile = lsm_similarity_profile(memory, np.array([E2] * 4))
        assert lsm_classify(*profile).tolist() == [False] * 4


def tagged(frame, scores):
    """A frame's accepted (features, scores) whose features read (frame,
    in-frame index)."""
    return np.array([(frame, i, 1.0, 0.0) for i in range(len(scores))]), np.array(scores)


def frame_index(band):
    features, _ = band
    return [tuple(row) for row in features[:, :2].astype(int).tolist()]


class TestPromptDetections:
    def test_feature_widths(self):
        boxes, scores = [(0.0, 0.0, 1.0, 1.0)] * 2, [0.5, 0.5]
        for given, want in ((np.float32, np.float32), (np.float64, np.float64),
                            (np.int64, np.float64), (np.float16, np.float64)):
            got = PromptDetections(boxes, np.ones((2, 3), dtype=given), scores)
            assert got.features.dtype == want
        assert PromptDetections(boxes, [[1, 2], [3, 4]], scores).features.dtype == np.float64

    def test_take_keeps_float32_and_views_a_slice(self, rng):
        table = PromptDetections(rng.uniform(1, 9, (6, 4)),
                                 rng.standard_normal((6, 3)).astype(np.float32),
                                 rng.uniform(0, 1, 6))
        part = table.take(slice(1, 4))
        assert part.features.dtype == np.float32 and len(part) == 3
        for name in ("boxes", "features", "scores"):
            assert np.shares_memory(getattr(part, name), getattr(table, name))
        rows = np.array([4, 0])
        picked = table.take(rows)
        want = PromptDetections(table.boxes[rows], table.features[rows], table.scores[rows])
        for name in ("boxes", "features", "scores"):
            assert np.array_equal(getattr(picked, name), getattr(want, name))
        assert table.take(np.zeros(0, np.intp)).features.shape == (0, 3)

    def test_construction_still_checks(self):
        with pytest.raises(ValueError, match="lengths differ"):
            PromptDetections([(0.0, 0.0, 1.0, 1.0)], np.ones((2, 3), np.float32), [0.5])
        with pytest.raises(ValueError, match="scores"):
            PromptDetections([(0.0, 0.0, 1.0, 1.0)], np.ones((1, 3), np.float32), [1.5])


class TestMemoryBank:
    def test_top_k_selection(self, rng):
        memory = MemoryBank(TpodConfig(kappa1=9, kappa2=3))
        scores = rng.permutation(np.linspace(0.1, 0.9, 12))
        memory.update(np.array([E1] * 12), scores)
        assert n_rows(memory.long) == 9
        assert n_rows(memory.short) == 3
        top = sorted(scores, reverse=True)
        assert memory.long[1].tolist() == pytest.approx(top[:9])
        assert memory.short[1].tolist() == pytest.approx(top[:3])

    def test_short_window_eviction(self):
        memory = MemoryBank(TpodConfig())
        memory.update(*tagged(0, [0.99]))
        for f in (1, 2, 3):
            memory.update(*tagged(f, [0.5]))
        assert all(f >= 1 for f, _ in frame_index(memory.short))
        assert (0, 0) in frame_index(memory.long)  # long keeps the best

    def test_long_stable_when_full_of_better(self):
        memory = MemoryBank(TpodConfig(kappa1=3))
        memory.update(*tagged(0, [0.9, 0.8, 0.7]))
        before = memory.long[1].tolist(), frame_index(memory.long)
        memory.update(*tagged(1, [0.1]))
        assert (memory.long[1].tolist(), frame_index(memory.long)) == before

    def test_tie_break_earlier_frame_lower_index(self):
        memory = MemoryBank(TpodConfig(kappa1=2))
        memory.update(*tagged(3, [0.5, 0.5]))
        memory.update(*tagged(4, [0.5]))
        assert frame_index(memory.long) == [(3, 0), (3, 1)]

    def test_bounds_always_hold(self, rng):
        memory, sizes = MemoryBank(TpodConfig(kappa1=9, kappa2=3)), []
        for f in range(40):
            n = int(rng.integers(0, 6))
            memory.update(rng.standard_normal((n, 4)), rng.uniform(0, 1, n))
            sizes.append(n)
            assert n_rows(memory.long) == min(9, sum(sizes))
            assert n_rows(memory.short) == min(3, sum(sizes[-3:]))
            scores = memory.long[1].tolist()
            assert scores == sorted(scores, reverse=True)

    def test_equals_entry_lists_on_tied_scores(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            kappa1, kappa2 = (int(k) for k in rng.integers(1, 8, 2))
            memory = MemoryBank(TpodConfig(kappa1, kappa2))
            entries = ref.RefMemoryBank(kappa1, kappa2)
            for frame in range(1, 25):
                n = int(rng.choice([0, 0, 1, 2, 4, 6]))  # empty frames are common
                features, scores = rng.standard_normal((n, 3)), rng.choice([0.3, 0.6, 0.9], n)
                memory.update(features, scores)
                entries.update(features, scores, frame)
                for (band_features, band_scores), want in ((memory.long, entries.long),
                                                          (memory.short, entries.short)):
                    assert band_scores.tolist() == [e.score for e in want]
                    assert np.array_equal(band_features.reshape(-1, 3),
                                          np.array([e.feature for e in want]).reshape(-1, 3))

    @settings(max_examples=150, deadline=None)
    @given(kappa1=st.integers(1, 5), kappa2=st.integers(1, 5), dim=st.integers(1, 3),
           counts=st.lists(st.sampled_from([0, 0, 1, 2, 4]), max_size=10), seed=st.integers(0, 99))
    def test_idle_update_without_rows_changes_nothing(self, kappa1, kappa2, dim, counts, seed):
        """Whenever the bank is idle, an update with no rows leaves both
        bands and the window's rows as they are: the frame walk may skip it."""
        rng = np.random.default_rng(seed)
        memory = MemoryBank(TpodConfig(kappa1, kappa2))

        def rows(memory):  # long, short, then the window's entries that hold rows
            window = [band for band in memory.window if len(band[1])]
            return [(features.tolist(), scores.tolist())
                    for features, scores in (memory.long, memory.short, *window)]

        for n in counts:
            memory.update(rng.standard_normal((n, dim)), rng.choice([0.3, 0.6, 0.9], n))
            if memory.idle:
                before = rows(memory)
                memory.update(np.zeros((0, dim)), np.zeros(0))
                assert memory.idle
                assert rows(memory) == before

    def test_update_without_rows_changes_a_bank_that_is_not_idle(self):
        memory = MemoryBank(TpodConfig(kappa2=1))
        assert memory.idle
        memory.update(*tagged(0, [0.9]))
        for _ in range(2):
            memory.update(np.zeros((0, 4)), np.zeros(0))
            assert not memory.idle and memory.short[1].tolist() == [0.9]
        memory.update(np.zeros((0, 4)), np.zeros(0))  # the frame-0 row leaves the window
        assert memory.idle and n_rows(memory.short) == 0 and n_rows(memory.long) == 1

    def test_update_in_another_dimension_raises(self):
        memory = MemoryBank(TpodConfig()).update(np.ones((1, 4)), np.array([0.9]))
        with pytest.raises(DimensionMismatch, match="^feature dims differ: 4 vs 3$"):
            memory.update(np.ones((1, 3)), np.array([0.9]))

    @pytest.mark.parametrize("kappas", [(-1, 3), (0, 3), (9, 0), (9, -2)])
    def test_kappas_below_one_rejected(self, kappas):
        """A bank's band sizes are its config's, checked when the config is built."""
        message = f"kappa1 and kappa2 must be >= 1, got {kappas[0]} and {kappas[1]}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            MemoryBank(TpodConfig(*kappas))


class TestTpodFrame:
    def test_cold_start_passthrough(self):
        general = dets(spaced_boxes(3), [E1, E1, E2])
        empty = PromptDetections.empty(4)
        res = filter_frame(general, empty, empty, MemoryBank(TpodConfig()), 0)
        assert res.rows.tolist() == [0, 1, 2]
        assert res.stats.n_dropped == 0

    def test_cold_start_reject_mode(self):
        general = dets(spaced_boxes(3), [E1, E1, E2])
        empty = PromptDetections.empty(4)
        cfg = TpodConfig(cold_start_passthrough=False)
        res = filter_frame(general, empty, empty, MemoryBank(cfg), 0)
        assert len(res.rows) == 0
        assert res.stats.n_rejected == 3

    def test_ie_example_composition(self):
        general = dets([(0, 0, 10, 10), (100, 0, 10, 10)], [E1, E1])
        include = dets([(1, 0, 10, 10)], [E1])
        exclude = dets([(101, 0, 10, 10)], [E1])
        res = filter_frame(general, include, exclude, MemoryBank(TpodConfig()), 0)
        assert general.boxes[res.rows, 0].tolist() == [0]
        assert res.stats.n_dropped == 1

    def test_rescue_scenario(self):
        # frames 1..2 fill the memory with E1 cars via include overlap;
        # frame 3 has an unclassified true car (E1) next to clutter (E2):
        # the car is rescued, the clutter rejected
        memory = MemoryBank(TpodConfig())
        for frame in (1, 2):
            general = dets(spaced_boxes(2), [E1, E1], [0.9, 0.8])
            include = dets(spaced_boxes(2), [E1, E1], [0.9, 0.8])
            res = filter_frame(general, include, PromptDetections.empty(4), memory, frame)
            assert res.rows.tolist() == [0, 1]
        general = dets([(0, 0, 10, 10), (300, 0, 10, 10)], [E1, E2])
        res = filter_frame(
            general, PromptDetections.empty(4), PromptDetections.empty(4), memory, 3
        )
        assert general.boxes[res.rows, 0].tolist() == [0]
        assert res.stats.n_rescued == 1
        assert res.stats.n_rejected == 1

    def test_bands_hold_the_config_sizes(self):
        """The bank's config sizes the bands that tpod_frame fills: five
        frames of three true positives under kappa1=2, kappa2=1 leave 2 and 1
        rows, not the default 9 and 3."""
        memory = MemoryBank(TpodConfig(kappa1=2, kappa2=1))
        for frame in range(1, 6):
            general = dets(spaced_boxes(3), [E1, E1, E2], [0.9, 0.8, 0.7])
            filter_frame(general, general, PromptDetections.empty(4), memory, frame)
            assert n_rows(memory.long) <= 2 and n_rows(memory.short) <= 1
        assert (n_rows(memory.long), n_rows(memory.short)) == (2, 1)

    def test_memory_from_ie_only_flag(self):
        memory = MemoryBank(TpodConfig(memory_from_ie_only=True))
        general = dets(spaced_boxes(2), [E1, E2], [0.9, 0.8])
        include = dets([(0, 0, 10, 10)], [E1])
        filter_frame(general, include, PromptDetections.empty(4), memory, 0)
        # passthrough box excluded from memory: only the IE TP is stored
        assert n_rows(memory.long) == 1
        assert memory.long[1].tolist() == [0.9]

    def test_partition_every_frame_random(self, rng):
        memory = MemoryBank(TpodConfig())
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
            res = filter_frame(general, include, PromptDetections.empty(4), memory, frame)
            s = res.stats
            assert len(res.rows) + s.n_dropped + s.n_rejected == s.n_general


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
            tps0, uncl0 = ie_split(general, include, exclude)
            tps1, uncl1 = ie_split(
                general, include, ref.concat(exclude, extra)
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
            tps0, _ = ie_split(general, include, exclude)
            tps1, _ = ie_split(
                general, ref.concat(include, extra), exclude
            )
            assert len(tps1) >= len(tps0)


def random_prompt(rng, n, dim, prototypes):
    """n boxes near the origin, so that general and prompt boxes overlap
    often, with features near one of the prototypes and tied scores."""
    if n == 0:
        return PromptDetections.empty(int(rng.choice([1, dim])))
    boxes = [(u, v, w, h) for (u, v), (w, h) in zip(rng.uniform(0, 60, (n, 2)),
                                                    rng.uniform(5, 25, (n, 2)))]
    features = prototypes[rng.integers(0, len(prototypes), n)]
    features = features + rng.choice([0.0, 0.3], (n, 1)) * rng.standard_normal((n, dim))
    return PromptDetections(boxes, features, rng.choice([0.3, 0.6, 0.9], n))


def band_bytes(features, scores):
    return features.shape, features.tobytes(), scores.shape, scores.tobytes()


class TestTpodFrameOracle:
    """tpod_frame against the table-passing filter it replaced, frame by
    frame: the same final rows bit for bit, the same stats, and memory
    bands that are the unit rows of the oracle's bands."""

    @pytest.mark.parametrize("config", [
        TpodConfig(), TpodConfig(cold_start_passthrough=False),
        TpodConfig(memory_from_ie_only=True),
    ], ids=["default", "no_passthrough", "memory_from_ie_only"])
    def test_equals_table_filter(self, config):
        rng = np.random.default_rng(18)
        totals = np.zeros(5, dtype=int)
        for _ in range(40):
            dim = int(rng.integers(2, 6))
            prototypes = rng.standard_normal((3, dim))
            kappa1, kappa2 = (int(k) for k in rng.integers(1, 10, 2))
            memory = MemoryBank(replace(config, kappa1=kappa1, kappa2=kappa2))
            want_memory = ref.MemoryBank(kappa1, kappa2)
            for frame in range(1, 31):
                general, include, exclude = (
                    random_prompt(rng, int(rng.choice(sizes)), dim, prototypes)
                    for sizes in ([0, 0, 1, 3, 6, 9], [0, 0, 1, 2, 4], [0, 0, 0, 1, 2])
                )
                got = filter_frame(general, include, exclude, memory, frame)
                want = ref.tpod_frame(general, include, exclude, want_memory, frame, config)
                for col in ("boxes", "features", "scores"):
                    a, b = getattr(general, col)[got.rows], getattr(want.final_tps, col)
                    assert a.shape == b.shape and a.tobytes() == b.tobytes()
                assert got.stats == want.stats
                # the bands hold unit rows; unit_rows is row-independent, so
                # normalising the oracle's raw bands gives the same bits
                for band, want_band in ((memory.long, want_memory.long),
                                        (memory.short, want_memory.short)):
                    assert band_bytes(*band) == band_bytes(unit_rows(want_band.features),
                                                           want_band.scores)
                assert [band_bytes(*e) for e in memory.window] == [
                    band_bytes(unit_rows(e.features), e.scores) for e in want_memory.window]
                s = got.stats
                totals += (s.n_general == 0 and len(include) > 0, s.n_ie_tps, s.n_dropped,
                           s.n_rescued, s.n_rejected)
        assert np.all(totals > 0), totals  # every path was taken
