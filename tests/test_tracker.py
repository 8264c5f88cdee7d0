import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest

import motion_ref as ref
from conftest import make_tracks, table, tables, uvwh
from macsort.errors import NonMonotonicFrame
from macsort.geometry import BBox, ZERO_NORM_EPS, iou_matrix, unit_rows
from macsort.motion import DEFAULT_MOTION, MotionConfig, kf_init, kf_predict_batch
from macsort.prompt_filter import PromptDetections
from motion_ref import Detection
from macsort.tracker import (
    AssocConfig,
    MacSort,
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
    (centers), or at ``d`` alone, as a make_tracks row."""
    xs, Ps = kf_predict_batch(*(a[None] for a in kf_init(uvwh(d.bbox))))
    state = xs[0], Ps[0]
    last = BBox(*history_points[-1], d.bbox.w, d.bbox.h) if history_points else d.bbox
    emb = np.asarray(d.embedding, float)
    prev = history_points[-2] if len(history_points) >= 2 else None
    return (tid, state, last, emb / np.linalg.norm(emb), prev)


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

    @pytest.mark.parametrize("theta", [1e-9, 1e-7])
    def test_theta_whose_cosine_rounds_to_one_rejected(self, theta):
        assert math.cos(math.radians(theta)) == 1.0
        with pytest.raises(ValueError, match="theta_deg"):
            adaptive_weights(0.5, theta)
        with pytest.raises(ValueError, match="theta_deg"):
            AssocConfig(theta_deg=theta)

    def test_smallest_theta_with_cosine_below_one_kept(self):
        w_aaw, w_amc = adaptive_weights(0.5, 7e-7)
        assert math.isfinite(w_aaw) and w_aaw + w_amc == 2.0


class TestBuildCostMatrix:
    def test_perfect_match_is_zero(self):
        d = det(1, 50, 50)
        track = make_track(1, d)
        bd = build_cost_matrix(make_tracks([track]), table([d]), AssocConfig())
        assert bd.total[0, 0] == 0.0

    def test_homogeneous_frame_zeroes_appearance(self):
        d1, d2 = det(1, 50, 50), det(1, 200, 50)
        tracks = [make_track(1, d1), make_track(2, d2)]
        bd = build_cost_matrix(make_tracks(tracks), table([d1, d2]), AssocConfig())
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
        bd_fixed = build_cost_matrix(make_tracks(tracks), table([d1, d2]),
                                     AssocConfig(fixed_w_aaw=1.0))
        manual = bd_fixed.iou_term + bd_fixed.velocity_term + bd_fixed.appearance_term
        finite = np.isfinite(bd_fixed.total)
        assert bd_fixed.total[finite] == pytest.approx(manual[finite], abs=1e-12)

    def test_gate_blocks_distant_pairs(self):
        track = make_track(1, det(0, 0, 0))
        far = det(1, 500, 500)
        bd = build_cost_matrix(make_tracks([track]), table([far]), AssocConfig(iou_gate=0.1))
        assert np.isinf(bd.total[0, 0])

    def test_direction_term_needs_two_observations(self):
        d = det(1, 50, 50)
        track = make_track(1, d)  # single-entry history
        bd = build_cost_matrix(make_tracks([track]), table([det(1, 52, 50)]), AssocConfig())
        assert np.all(bd.velocity_term == 0.0)

    def test_direction_term_value(self):
        d = det(2, 70, 50)
        track = make_track(1, d, history_points=[(40, 50), (55, 50)])
        ahead = det(2, 70, 50)
        bd = build_cost_matrix(make_tracks([track]), table([ahead]), AssocConfig())
        assert bd.velocity_term[0, 0] == pytest.approx(0.0)
        track2 = make_track(1, d, history_points=[(70, 20), (70, 35)])
        bd2 = build_cost_matrix(make_tracks([track2]), table([det(2, 70, 20)]),
                                AssocConfig(iou_gate=0.0))
        # heading reversal: cost = lambda * pi/pi = lambda
        assert bd2.velocity_term[0, 0] == pytest.approx(0.2)

    def test_component_toggles(self):
        d1, d2 = det(1, 50, 50, emb=E1), det(1, 56, 50, emb=E2)
        track = make_track(1, det(0, 52, 50, emb=E1), history_points=[(40, 50), (46, 50)])
        off = AssocConfig(use_appearance=False, use_direction=False)
        bd = build_cost_matrix(make_tracks([track]), table([d1, d2]), off)
        assert np.all(bd.appearance_term == 0.0)
        assert np.all(bd.velocity_term == 0.0)

    def test_embedding_scale_leaves_costs_unchanged(self, rng):
        for k in (0.001, 0.5, 7.0, 4096.0):
            dets = [
                det(1, 50 + 30 * i, 50, emb=rng.standard_normal(4)) for i in range(3)
            ]
            tracks = make_tracks([make_track(i + 1, det(0, 50 + 30 * i, 49)) for i in range(3)])
            bd1 = build_cost_matrix(tracks, table(dets), AssocConfig())
            scaled = [
                Detection(d.frame, d.bbox, d.confidence, d.embedding * k) for d in dets
            ]
            bd2 = build_cost_matrix(tracks, table(scaled), AssocConfig())
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
        tracker.step(table([det(1, 10, 10)]), 1)
        assert np.array_equal(ref.expand(tracker.tracks.P[0]), np.eye(7))

    def test_cold_start_creates_tracks(self):
        tracker = MacSort()
        out = tracker.step(table([det(1, 10, 10), det(1, 60, 10)]), 1)
        assert len(tracker.tracks) == 2
        assert not tracker.tracks.confirmed.any()
        # young-sequence emission: matched tracks report from frame 1
        assert {tid for tid, _ in out} == {1, 2}

    def test_single_object_single_id(self):
        tracker = MacSort()
        seen = set()
        for t in range(1, 11):
            out = tracker.step(table([det(t, 10 + 2 * t, 20)]), t)
            seen.update(tid for tid, _ in out)
        assert seen == {1}

    def test_probation_after_startup(self):
        # a track born once the sequence is mature must survive min_hits
        # frames before being reported
        tracker = MacSort(AssocConfig(min_hits=3))
        for t in range(1, 8):
            tracker.step(table([det(t, 10 + 2 * t, 20)]), t)
        out7 = tracker.step(table([det(8, 26, 20), det(8, 200, 100)]), 8)
        assert {tid for tid, _ in out7} == {1}
        out8 = tracker.step(table([det(9, 28, 20), det(9, 202, 100)]), 9)
        assert {tid for tid, _ in out8} == {1}
        out9 = tracker.step(table([det(10, 30, 20), det(10, 204, 100)]), 10)
        assert {tid for tid, _ in out9} == {1, 2}

    def test_crossing_objects_keep_ids(self):
        tracker = MacSort()
        last = {}
        for t in range(1, 17):
            xa = 20 + 4.0 * (t - 1)
            xb = 80 - 4.0 * (t - 1)
            dets = [det(t, xa, 50, emb=E1), det(t, xb, 50.5, emb=E1)]
            for tid, box in tracker.step(table(dets), t):
                last[tid] = float(box.u)
        # id 1 started left and ends right; id 2 the reverse
        assert last[1] == pytest.approx(80.0, abs=1.0)
        assert last[2] == pytest.approx(20.0, abs=1.0)

    def test_track_removed_after_max_age(self):
        tracker = MacSort(AssocConfig(max_age=3))
        tracker.step(table([det(1, 10, 10)]), 1)
        for t in range(2, 7):
            tracker.step(table([]), t)
        assert len(tracker.tracks) == 0

    def test_ids_never_reused(self):
        tracker = MacSort(AssocConfig(max_age=1))
        tracker.step(table([det(1, 10, 10)]), 1)
        tracker.step(table([]), 2)
        tracker.step(table([]), 3)  # first track removed
        tracker.step(table([det(4, 10, 10)]), 4)
        assert tracker.tracks.ids.tolist() == [2]

    def test_non_monotonic_frame_rejected(self):
        tracker = MacSort()
        tracker.step(table([det(5, 10, 10)]), 5)
        with pytest.raises(NonMonotonicFrame):
            tracker.step(table([det(5, 10, 10)]), 5)

    def test_occlusion_gap_recovery_keeps_id(self):
        tracker = MacSort()
        for t in range(1, 11):
            tracker.step(table([det(t, 2.0 * t, 30)]), t)
        for t in range(11, 16):
            tracker.step(table([]), t)
        # a confirmed track re-found after the gap reports immediately
        out = tracker.step(table([det(16, 32.0, 30)]), 16)
        assert [tid for tid, _ in out] == [1]
        assert tracker.tracks.x[0, 4] == pytest.approx(2.0, rel=0.10)

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
                    [(tid, b.u, b.v, b.w, b.h) for tid, b in tracker.step(table(dets), t)]
                )
            return out

        assert run() == run()

    def test_ema_appearance_update(self):
        tracker = MacSort(AssocConfig(ema_alpha=0.9))
        tracker.step(table([det(1, 10, 10, emb=E1)]), 1)
        tracker.step(table([det(2, 10, 10, emb=E2)]), 2)
        app = tracker.tracks.appearance[0]
        expected = 0.9 * E1 + 0.1 * E2
        expected /= np.linalg.norm(expected)
        assert app == pytest.approx(expected)


class TestErrorPaths:
    def test_dim_mismatch_between_tracks_and_dets(self):
        track = make_track(1, det(0, 50, 50, emb=E1))
        bad = det(1, 50, 50, emb=np.array([1.0, 0.0]))
        from macsort.errors import DimensionMismatch
        with pytest.raises(DimensionMismatch):
            build_cost_matrix(make_tracks([track]), table([bad]), AssocConfig())


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
            for tid, box in tracker.step(table(per_frame.get(frame, [])), frame)
        ]
        assert track_sequence(tables(per_frame), cfg) == expected
        assert [row[0] for row in expected] == [1, 2, 4, 5, 5]

    def test_empty_input(self):
        assert track_sequence({}) == []


# -- the Track-list tracker the track table replaced, kept as a test oracle --


@dataclass
class _RefTrack:
    id: int
    state: ref.KalmanState
    checkpoint: ref.KalmanState
    last_box: BBox
    appearance: np.ndarray
    prev_center: tuple[float, float] | None = None
    hits: int = 1
    time_since_update: int = 0
    confirmed: bool = False


def _ref_cost(tracks, detections, cfg, det_embs_unit):
    m, n = len(tracks), len(detections)
    xs = np.stack([t.state.x for t in tracks])
    w, h = np.sqrt(xs[:, 2] * xs[:, 3]), np.sqrt(xs[:, 2] / xs[:, 3])
    uvwh = np.array([(d.bbox.u, d.bbox.v, d.bbox.w, d.bbox.h) for d in detections])
    iou = iou_matrix(np.stack([xs[:, 0], xs[:, 1], w, h], axis=1), uvwh)
    velocity = np.zeros((m, n))
    rows = [i for i, t in enumerate(tracks) if t.prev_center is not None]
    if cfg.use_direction and rows:
        pts = np.array(
            [(*tracks[i].prev_center, tracks[i].last_box.u, tracks[i].last_box.v) for i in rows]
        )
        prev, last, centers = pts[:, :2], pts[:, 2:], uvwh[:, :2]
        theta_track = np.arctan2(last[:, 1] - prev[:, 1], last[:, 0] - prev[:, 0])
        theta_new = np.arctan2(
            centers[None, :, 1] - last[:, 1, None], centers[None, :, 0] - last[:, 0, None]
        )
        delta = np.abs(np.mod(theta_track[:, None] - theta_new + math.pi, 2 * math.pi) - math.pi)
        velocity[rows] = cfg.lam * delta / math.pi
    appearance = np.zeros((m, n))
    if cfg.use_appearance:
        apps = np.stack([t.appearance for t in tracks])
        appearance = (1.0 - np.clip(apps @ det_embs_unit.T, -1.0, 1.0)) / 2.0
    if cfg.fixed_w_aaw is not None:
        w_aaw, w_amc = cfg.fixed_w_aaw, 2.0 - cfg.fixed_w_aaw
    else:
        w_aaw, w_amc = adaptive_weights(compute_mu_det(det_embs_unit, cfg.theta_deg), cfg.theta_deg)
    total = w_amc * (1.0 - iou) + velocity + w_aaw * appearance
    total[iou < cfg.iou_gate] = np.inf
    return total


def _reference_sequence(per_frame, cfg, counts):
    """(frame, id, box) rows of the Track-list tracker, which filters with
    the per-object motion API of motion_ref; ``counts`` tallies births,
    gapped matches and deaths."""
    motion, tracks, next_id, rows = DEFAULT_MOTION, [], 1, []
    for seen, frame in enumerate(range(1, max(per_frame, default=0) + 1), start=1):
        detections = per_frame.get(frame, [])
        if tracks:
            xs, Ps = ref.kf_predict_batch(
                np.stack([t.state.x for t in tracks]), np.stack([t.state.P for t in tracks]), motion
            )
            for i, trk in enumerate(tracks):
                trk.state = ref.KalmanState(xs[i], Ps[i])
                trk.time_since_update += 1
        embs = unit_rows(np.stack([d.embedding for d in detections]) if detections else np.zeros((0, 1)))
        matches, unmatched = [], list(range(len(detections)))
        if tracks and detections:
            matches, _, unmatched = linear_assignment(_ref_cost(tracks, detections, cfg, embs))
        fresh = [(m, n) for m, n in matches if tracks[m].time_since_update == 1]
        if fresh:
            xs, Ps = ref.kf_update_batch(
                np.stack([tracks[m].state.x for m, _ in fresh]),
                np.stack([tracks[m].state.P for m, _ in fresh]),
                np.array([ref.bbox_to_xysr(detections[n].bbox) for _, n in fresh]),
                motion,
            )
            for i, (m, _) in enumerate(fresh):
                tracks[m].state = ref.KalmanState(xs[i], Ps[i])
        for m, n in matches:
            trk = tracks[m]
            if trk.time_since_update > 1:
                counts["gapped"] += 1
                trk.state = ref.ocr_reupdate(
                    trk.checkpoint, trk.last_box, detections[n], trk.time_since_update, motion
                )
        if matches:
            apps = np.stack([tracks[m].appearance for m, _ in matches])
            new = embs[[n for _, n in matches]]
            live = np.einsum("ij,ij->i", new, new) >= ZERO_NORM_EPS
            blended = cfg.ema_alpha * apps + (1.0 - cfg.ema_alpha) * new
            if not live.all():
                blended = np.where(live[:, None], blended, apps)
            norms = np.linalg.norm(blended, axis=1, keepdims=True)
            blended /= np.where(norms < ZERO_NORM_EPS, 1.0, norms)
            for i, (m, _) in enumerate(matches):
                tracks[m].appearance = blended[i]
        for m, n in matches:
            trk = tracks[m]
            trk.checkpoint = trk.state
            trk.prev_center = (trk.last_box.u, trk.last_box.v)
            trk.last_box = detections[n].bbox
            trk.hits += 1
            trk.time_since_update = 0
            trk.confirmed |= trk.hits >= cfg.min_hits
        for n in unmatched:
            counts["births"] += 1
            d = detections[n]
            state = ref.kf_init(d, motion)
            norm = np.linalg.norm(d.embedding)
            app = d.embedding / norm if norm >= ZERO_NORM_EPS else d.embedding.copy()
            tracks.append(
                _RefTrack(next_id, state, state.copy(), d.bbox, app, confirmed=cfg.min_hits <= 1)
            )
            next_id += 1
        rows.extend(
            (frame, t.id, t.state.bbox())
            for t in tracks
            if t.time_since_update == 0 and (t.confirmed or seen <= cfg.min_hits)
        )
        counts["deaths"] += sum(t.time_since_update > cfg.max_age for t in tracks)
        tracks = [t for t in tracks if t.time_since_update <= cfg.max_age]
    return rows


def _random_stream(rng, n_frames=40, dim=4):
    """Objects born and dying at random frames, moving linearly with noise,
    missed singly or for several frames, plus clutter, zero embeddings and
    empty or absent frames."""
    n_obj = int(rng.integers(1, 7))
    start = rng.integers(1, n_frames // 2, n_obj)
    end = start + rng.integers(3, n_frames, n_obj)
    pos = rng.uniform(40, 260, (n_obj, 2))
    vel = rng.uniform(-4, 4, (n_obj, 2))
    size = rng.uniform(10, 30, (n_obj, 2))
    embs = rng.standard_normal((n_obj, dim))
    hidden = np.zeros(n_obj, dtype=int)
    per_frame = {}
    for frame in range(1, n_frames + 1):
        if rng.random() < 0.08:
            continue  # absent frame: stepped with no detections
        dets = []
        for k in range(n_obj):
            if not start[k] <= frame <= end[k]:
                continue
            if hidden[k] == 0 and rng.random() < 0.1:
                hidden[k] = int(rng.integers(1, 6))
            if hidden[k]:
                hidden[k] -= 1
                continue
            u, v = pos[k] + vel[k] * (frame - start[k]) + rng.normal(0, 0.8, 2)
            emb = np.zeros(dim) if rng.random() < 0.05 else embs[k] + rng.normal(0, 0.3, dim)
            dets.append(Detection(frame, BBox(u, v, *size[k]), 0.9, emb))
        for _ in range(rng.poisson(0.3)):
            dets.append(
                Detection(frame, BBox(*rng.uniform(0, 300, 2), *rng.uniform(8, 30, 2)), 0.5,
                          rng.standard_normal(dim))
            )
        per_frame[frame] = [dets[i] for i in rng.permutation(len(dets))]
    return per_frame


@pytest.mark.parametrize(
    "cfg",
    [
        AssocConfig(),
        AssocConfig(max_age=0),
        AssocConfig(max_age=1, min_hits=1),
        AssocConfig(min_hits=1),
        AssocConfig(use_appearance=False),
        AssocConfig(use_direction=False),
        AssocConfig(use_appearance=False, use_direction=False, max_age=1),
        AssocConfig(fixed_w_aaw=0.5),
    ],
    ids=lambda c: f"age{c.max_age}-hits{c.min_hits}-app{int(c.use_appearance)}"
    f"-dir{int(c.use_direction)}-w{c.fixed_w_aaw}",
)
def test_track_table_equals_track_list_tracker(cfg):
    rng = np.random.default_rng(20240518)
    counts = {"births": 0, "gapped": 0, "deaths": 0}
    for _ in range(25):
        per_frame = _random_stream(rng)
        expected = _reference_sequence(per_frame, cfg, counts)
        got = track_sequence(tables(per_frame), cfg)
        assert [(f, tid) for f, tid, _ in got] == [(f, tid) for f, tid, _ in expected]
        # the block filter sums in another order than the 7x7 oracle
        np.testing.assert_allclose([(b.u, b.v, b.w, b.h) for _, _, b in got],
                                   [(b.u, b.v, b.w, b.h) for _, _, b in expected],
                                   rtol=1e-12, atol=0)
    assert counts["births"] and counts["deaths"]
    assert counts["gapped"] or cfg.max_age <= 1


def _spread(rng, per_frame):
    """The same frames in order, a third of them after a run of up to 80
    absent frames."""
    spread, frame = {}, 0
    for f in sorted(per_frame):
        frame += 1 + (int(rng.integers(0, 81)) if rng.random() < 0.3 else 0)
        spread[frame] = per_frame[f]
    return spread


@pytest.mark.parametrize(
    "cfg",
    [AssocConfig(), AssocConfig(max_age=0), AssocConfig(max_age=2, min_hits=1),
     AssocConfig(max_age=1, min_hits=6)],
    ids=lambda c: f"age{c.max_age}-hits{c.min_hits}",
)
def test_sparse_frames_equal_stepping_every_frame(cfg, monkeypatch):
    """track_sequence skips absent frames only while the tracker is idle,
    where a step would change nothing."""
    rng = np.random.default_rng(99)
    step, stepped = MacSort.step, []
    monkeypatch.setattr(MacSort, "step", lambda self, dets, frame: (
        stepped.append(frame), step(self, dets, frame))[1])
    skipped = 0
    empty = PromptDetections.empty()
    for _ in range(20):
        per_frame = tables(_spread(rng, _random_stream(rng)))
        last, tracker = max(per_frame), MacSort(cfg)
        expected = [(frame, tid, box) for frame in range(1, last + 1)
                    for tid, box in step(tracker, per_frame.get(frame, empty), frame)]
        stepped.clear()
        assert track_sequence(per_frame, cfg) == expected
        skipped += last - len(stepped)
    assert skipped > 0


def test_track_builds_a_box_per_output_row_only(monkeypatch):
    """Births, gapped matches and deaths run on arrays: the only BBox built
    over a track_sequence run is the one of each output row."""
    cfg, per_frame = AssocConfig(max_age=3), _random_stream(np.random.default_rng(7), 60)
    counts = {"births": 0, "gapped": 0, "deaths": 0}
    _reference_sequence(per_frame, cfg, counts)
    assert all(counts.values()), counts
    per_frame = tables(per_frame)
    init, built = BBox.__post_init__, []
    monkeypatch.setattr(BBox, "__post_init__", lambda box: (built.append(box), init(box))[1])
    rows = track_sequence(per_frame, cfg)
    assert len(built) == len(rows) > 0
