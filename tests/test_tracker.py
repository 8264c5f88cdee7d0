import itertools
import math

import numpy as np
import pytest

from macsort.errors import NonMonotonicFrame
from macsort.geometry import BBox, Detection
from macsort.motion import MotionConfig, kf_init, kf_predict
from macsort.tracker import (
    AssocConfig,
    MacSort,
    Track,
    adaptive_weights,
    build_cost_matrix,
    compute_mu_det,
    linear_assignment,
    track_sequence,
)

E1 = np.array([1.0, 0.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0, 0.0])
COS45 = math.cos(math.radians(45.0))


def det(frame, u, v, w=12.0, h=12.0, emb=E1, conf=0.9):
    return Detection(frame, BBox(u, v, w, h), conf, np.asarray(emb, float))


def make_track(tid, d, history_points=()):
    """A predicted track whose observations were at ``history_points``
    (centers), or at ``d`` alone."""
    state = kf_predict(kf_init(d))
    last = BBox(*history_points[-1], d.bbox.w, d.bbox.h) if history_points else d.bbox
    emb = np.asarray(d.embedding, float)
    return Track(
        id=tid,
        state=state,
        checkpoint=state.copy(),
        last_box=last,
        appearance=emb / np.linalg.norm(emb),
        prev_center=history_points[-2] if len(history_points) >= 2 else None,
    )


class TestMuDet:
    def test_identical_features(self):
        assert compute_mu_det(np.stack([E1, E1, E1]), 45.0) == pytest.approx(1.0)

    def test_two_orthogonal(self):
        got = compute_mu_det(np.stack([E1, E2]), 45.0)
        assert got == pytest.approx(0.70711, abs=1e-5)

    def test_single_detection_neutral(self):
        assert compute_mu_det(E1[None, :], 45.0) == pytest.approx(COS45)

    def test_empty_neutral(self):
        assert compute_mu_det(np.zeros((0, 4)), 60.0) == pytest.approx(
            math.cos(math.radians(60.0))
        )

    def test_zero_mean_neutral(self):
        assert compute_mu_det(np.stack([E1, -E1]), 45.0) == pytest.approx(COS45)

    def test_scale_invariant(self, rng):
        embs = rng.standard_normal((6, 8))
        base = compute_mu_det(embs, 45.0)
        assert compute_mu_det(embs * 37.5, 45.0) == pytest.approx(base, abs=1e-12)


class TestAdaptiveWeights:
    def test_crossover_point(self):
        w_aaw, w_amc = adaptive_weights(COS45, 45.0)
        assert w_aaw == pytest.approx(1.0, abs=1e-12)
        assert w_amc == pytest.approx(1.0, abs=1e-12)

    def test_fully_homogeneous(self):
        assert adaptive_weights(1.0, 45.0) == (0.0, 2.0)

    def test_hand_value(self):
        w_aaw, w_amc = adaptive_weights(0.85, 45.0)
        assert w_aaw == pytest.approx(0.15 / 0.29289, abs=1e-4)
        assert w_amc == pytest.approx(2.0 - 0.15 / 0.29289, abs=1e-4)

    def test_sum_is_two_exactly(self, rng):
        for _ in range(2000):
            mu = float(rng.uniform(-1, 1))
            theta = float(rng.uniform(5.0, 90.0))
            w_aaw, w_amc = adaptive_weights(mu, theta)
            assert w_aaw + w_amc == 2.0

    def test_bad_theta_rejected(self):
        with pytest.raises(ValueError):
            adaptive_weights(0.5, 0.0)
        with pytest.raises(ValueError):
            adaptive_weights(0.5, 91.0)


class TestBuildCostMatrix:
    def test_perfect_match_is_zero(self):
        d = det(1, 50, 50)
        track = make_track(1, d)
        bd = build_cost_matrix([track], [d], AssocConfig())
        assert bd.total[0, 0] == 0.0

    def test_homogeneous_frame_zeroes_appearance(self):
        d1, d2 = det(1, 50, 50), det(1, 200, 50)
        tracks = [make_track(1, d1), make_track(2, d2)]
        bd = build_cost_matrix(tracks, [d1, d2], AssocConfig())
        assert bd.mu_det == pytest.approx(1.0)
        assert bd.w_aaw == pytest.approx(0.0)
        assert bd.w_amc == pytest.approx(2.0)
        finite = np.isfinite(bd.total)
        expected = 2.0 * bd.iou_term + bd.velocity_term
        assert bd.total[finite] == pytest.approx(expected[finite])

    def test_reduces_to_non_adaptive_at_crossover(self, rng):
        # detections built so mu_det == cos(theta) exactly is hard; instead
        # compare the frozen-weight form against weights fixed at 1
        d1, d2 = det(1, 50, 50, emb=E1), det(1, 60, 52, emb=E2)
        tracks = [make_track(1, det(0, 49, 50, emb=E1)),
                  make_track(2, det(0, 61, 51, emb=E2))]
        bd_fixed = build_cost_matrix([*tracks], [d1, d2], AssocConfig(fixed_w_aaw=1.0))
        manual = bd_fixed.iou_term + bd_fixed.velocity_term + bd_fixed.appearance_term
        finite = np.isfinite(bd_fixed.total)
        assert bd_fixed.total[finite] == pytest.approx(manual[finite], abs=1e-12)

    def test_gate_blocks_distant_pairs(self):
        track = make_track(1, det(0, 0, 0))
        far = det(1, 500, 500)
        bd = build_cost_matrix([track], [far], AssocConfig(iou_gate=0.1))
        assert np.isinf(bd.total[0, 0])

    def test_direction_term_needs_two_observations(self):
        d = det(1, 50, 50)
        track = make_track(1, d)  # single-entry history
        bd = build_cost_matrix([track], [det(1, 52, 50)], AssocConfig())
        assert np.all(bd.velocity_term == 0.0)

    def test_direction_term_value(self):
        d = det(2, 70, 50)
        track = make_track(1, d, history_points=[(40, 50), (55, 50)])
        ahead = det(2, 70, 50)
        bd = build_cost_matrix([track], [ahead], AssocConfig())
        assert bd.velocity_term[0, 0] == pytest.approx(0.0)
        track2 = make_track(1, d, history_points=[(70, 20), (70, 35)])
        bd2 = build_cost_matrix([track2], [det(2, 70, 20)], AssocConfig(iou_gate=0.0))
        # heading reversal: cost = lambda * pi/pi = lambda
        assert bd2.velocity_term[0, 0] == pytest.approx(0.2)

    def test_component_toggles(self):
        d1, d2 = det(1, 50, 50, emb=E1), det(1, 56, 50, emb=E2)
        track = make_track(1, det(0, 52, 50, emb=E1), history_points=[(40, 50), (46, 50)])
        off = AssocConfig(use_appearance=False, use_direction=False)
        bd = build_cost_matrix([track], [d1, d2], off)
        assert np.all(bd.appearance_term == 0.0)
        assert np.all(bd.velocity_term == 0.0)

    def test_embedding_scale_leaves_costs_unchanged(self, rng):
        for k in (0.001, 0.5, 7.0, 4096.0):
            dets = [
                det(1, 50 + 30 * i, 50, emb=rng.standard_normal(4)) for i in range(3)
            ]
            tracks = [make_track(i + 1, det(0, 50 + 30 * i, 49)) for i in range(3)]
            bd1 = build_cost_matrix(tracks, dets, AssocConfig())
            scaled = [
                Detection(d.frame, d.bbox, d.confidence, d.embedding * k) for d in dets
            ]
            bd2 = build_cost_matrix(tracks, scaled, AssocConfig())
            assert bd2.mu_det == pytest.approx(bd1.mu_det, abs=1e-12)
            assert bd2.w_aaw == pytest.approx(bd1.w_aaw, abs=1e-12)
            finite = np.isfinite(bd1.total)
            assert np.array_equal(finite, np.isfinite(bd2.total))
            assert bd2.total[finite] == pytest.approx(bd1.total[finite], abs=1e-12)


class TestLinearAssignment:
    def test_two_by_two_hand_case(self):
        matches, ur, uc = linear_assignment(np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert matches == [(0, 1), (1, 0)]
        assert ur == [] and uc == []

    def test_all_infinite(self):
        matches, ur, uc = linear_assignment(np.full((2, 3), np.inf))
        assert matches == []
        assert ur == [0, 1] and uc == [0, 1, 2]

    def test_diagonal_zeros(self):
        cost = np.ones((3, 3))
        np.fill_diagonal(cost, 0.0)
        matches, _, _ = linear_assignment(cost)
        assert matches == [(0, 0), (1, 1), (2, 2)]

    def test_partial_gating(self):
        cost = np.array([[0.1, np.inf], [np.inf, np.inf]])
        matches, ur, uc = linear_assignment(cost)
        assert matches == [(0, 0)]
        assert ur == [1] and uc == [1]

    def test_rectangular(self):
        cost = np.array([[5.0, 1.0, 3.0]])
        matches, ur, uc = linear_assignment(cost)
        assert matches == [(0, 1)]
        assert uc == [0, 2]

    def test_matches_brute_force_minimum(self, rng):
        for n in range(2, 6):
            for _ in range(50):
                cost = rng.uniform(0, 1, (n, n))
                matches, _, _ = linear_assignment(cost)
                total = sum(cost[r, c] for r, c in matches)
                best = min(
                    sum(cost[i, p[i]] for i in range(n))
                    for p in itertools.permutations(range(n))
                )
                assert total == pytest.approx(best, abs=1e-12)


class TestTrackerStep:
    def test_new_track_uses_tracker_motion_config(self):
        tracker = MacSort(motion=MotionConfig(p0_pos=1, p0_vel=1))
        tracker.step([det(1, 10, 10)], 1)
        assert np.array_equal(tracker.tracks[0].state.P, np.eye(7))

    def test_cold_start_creates_tracks(self):
        tracker = MacSort()
        out = tracker.step([det(1, 10, 10), det(1, 60, 10)], 1)
        assert len(tracker.tracks) == 2
        assert all(t.status == "tentative" for t in tracker.tracks)
        # young-sequence emission: matched tracks report from frame 1
        assert {tid for tid, _ in out} == {1, 2}

    def test_single_object_single_id(self):
        tracker = MacSort()
        seen = set()
        for t in range(1, 11):
            out = tracker.step([det(t, 10 + 2 * t, 20)], t)
            seen.update(tid for tid, _ in out)
        assert seen == {1}

    def test_probation_after_startup(self):
        # a track born once the sequence is mature must survive min_hits
        # frames before being reported
        tracker = MacSort(AssocConfig(min_hits=3))
        for t in range(1, 8):
            tracker.step([det(t, 10 + 2 * t, 20)], t)
        out7 = tracker.step([det(8, 26, 20), det(8, 200, 100)], 8)
        assert {tid for tid, _ in out7} == {1}
        out8 = tracker.step([det(9, 28, 20), det(9, 202, 100)], 9)
        assert {tid for tid, _ in out8} == {1}
        out9 = tracker.step([det(10, 30, 20), det(10, 204, 100)], 10)
        assert {tid for tid, _ in out9} == {1, 2}

    def test_crossing_objects_keep_ids(self):
        tracker = MacSort()
        last = {}
        for t in range(1, 17):
            xa = 20 + 4.0 * (t - 1)
            xb = 80 - 4.0 * (t - 1)
            dets = [det(t, xa, 50, emb=E1), det(t, xb, 50.5, emb=E1)]
            for tid, box in tracker.step(dets, t):
                last[tid] = float(box.u)
        # id 1 started left and ends right; id 2 the reverse
        assert last[1] == pytest.approx(80.0, abs=1.0)
        assert last[2] == pytest.approx(20.0, abs=1.0)

    def test_track_removed_after_max_age(self):
        tracker = MacSort(AssocConfig(max_age=3))
        tracker.step([det(1, 10, 10)], 1)
        for t in range(2, 7):
            tracker.step([], t)
        assert tracker.tracks == []

    def test_ids_never_reused(self):
        tracker = MacSort(AssocConfig(max_age=1))
        tracker.step([det(1, 10, 10)], 1)
        tracker.step([], 2)
        tracker.step([], 3)  # first track removed
        tracker.step([det(4, 10, 10)], 4)
        assert [t.id for t in tracker.tracks] == [2]

    def test_non_monotonic_frame_rejected(self):
        tracker = MacSort()
        tracker.step([det(5, 10, 10)], 5)
        with pytest.raises(NonMonotonicFrame):
            tracker.step([det(5, 10, 10)], 5)

    def test_occlusion_gap_recovery_keeps_id(self):
        tracker = MacSort()
        for t in range(1, 11):
            tracker.step([det(t, 2.0 * t, 30)], t)
        for t in range(11, 16):
            tracker.step([], t)
        # a confirmed track re-found after the gap reports immediately
        out = tracker.step([det(16, 32.0, 30)], 16)
        assert [tid for tid, _ in out] == [1]
        trk = tracker.tracks[0]
        assert trk.state.x[4] == pytest.approx(2.0, rel=0.10)

    def test_deterministic_given_stream(self, rng):
        frames = []
        for t in range(1, 21):
            n = int(rng.integers(0, 5))
            frames.append(
                [
                    det(t, *rng.uniform(20, 200, 2), emb=rng.standard_normal(4))
                    for _ in range(n)
                ]
            )

        def run():
            tracker = MacSort()
            out = []
            for t, dets in enumerate(frames, start=1):
                out.append(
                    [(tid, b.u, b.v, b.w, b.h) for tid, b in tracker.step(dets, t)]
                )
            return out

        assert run() == run()

    def test_ema_appearance_update(self):
        tracker = MacSort(AssocConfig(ema_alpha=0.9))
        tracker.step([det(1, 10, 10, emb=E1)], 1)
        tracker.step([det(2, 10, 10, emb=E2)], 2)
        app = tracker.tracks[0].appearance
        expected = 0.9 * E1 + 0.1 * E2
        expected /= np.linalg.norm(expected)
        assert app == pytest.approx(expected)


class TestErrorPaths:
    def test_dim_mismatch_between_tracks_and_dets(self):
        track = make_track(1, det(0, 50, 50, emb=E1))
        bad = det(1, 50, 50, emb=np.array([1.0, 0.0]))
        from macsort.errors import DimensionMismatch
        with pytest.raises(DimensionMismatch):
            build_cost_matrix([track], [bad], AssocConfig())


class TestTrackSequence:
    def test_equals_stepping_every_frame(self):
        # frame 3 has no key: it is stepped with no detections, so the
        # track coasts through it and frame 4's match is a gap of 2
        per_frame = {
            1: [det(1, 50, 50)],
            2: [det(2, 52, 50)],
            4: [det(4, 56, 50)],
            5: [det(5, 58, 50), det(5, 300, 300)],
        }
        cfg = AssocConfig(min_hits=1)
        tracker = MacSort(cfg)
        expected = [
            (frame, tid, box)
            for frame in range(1, 6)
            for tid, box in tracker.step(per_frame.get(frame, []), frame)
        ]
        assert track_sequence(per_frame, cfg) == expected
        assert [row[0] for row in expected] == [1, 2, 4, 5, 5]

    def test_empty_input(self):
        assert track_sequence({}) == []
