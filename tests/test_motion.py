import math

import numpy as np
import pytest

from conftest import make_tracks
from macsort.geometry import BBox, Detection, bbox_to_xysr
from macsort.motion import (
    DEFAULT_MOTION,
    MotionConfig,
    kf_init,
    kf_predict,
    kf_predict_batch,
    kf_update,
    kf_update_batch,
    ocr_reupdate,
)
from macsort.tracker import _direction_costs

EMB = np.array([1.0, 0.0])


def det(frame, u, v, w=10.0, h=10.0):
    return Detection(frame, BBox(u, v, w, h), 0.9, EMB)


class TestInit:
    def test_zero_velocity_init(self):
        state = kf_init(det(0, 10, 10, 4, 2))
        assert state.x == pytest.approx([10, 10, 8, 2, 0, 0, 0])

    def test_deterministic(self):
        a = kf_init(det(0, 3, 4, 5, 6))
        b = kf_init(det(0, 3, 4, 5, 6))
        assert np.array_equal(a.x, b.x) and np.array_equal(a.P, b.P)

    def test_initial_covariance_follows_config(self):
        state = kf_init(det(0, 10, 10), MotionConfig(p0_pos=1, p0_vel=2))
        assert np.array_equal(np.diag(state.P), [1, 1, 1, 1, 2, 2, 2])
        assert np.array_equal(kf_init(det(0, 10, 10)).P, DEFAULT_MOTION.p0())

    def test_readout_round_trip(self):
        box = BBox(12.5, -3.0, 7.0, 3.5)
        state = kf_init(Detection(0, box, 0.9, EMB))
        got = state.bbox()
        assert got.u == pytest.approx(box.u)
        assert got.v == pytest.approx(box.v)
        assert got.w == pytest.approx(box.w)
        assert got.h == pytest.approx(box.h)


class TestPredict:
    def test_unit_velocity_step(self):
        state = kf_init(det(0, 10, 10, 4, 2))
        state.x[4] = 1.0
        state.x[2] = 8.0
        out = kf_predict(state)
        assert out.x[:4] == pytest.approx([11, 10, 8, 2])

    def test_zero_velocity_identity(self):
        state = kf_init(det(0, 10, 10, 4, 2))
        out = kf_predict(state)
        assert out.x[:4] == pytest.approx(state.x[:4])

    def test_negative_scale_velocity_zeroed(self):
        state = kf_init(det(0, 10, 10, 4, 2))
        state.x[6] = -100.0  # would drive s below zero
        out = kf_predict(state)
        assert out.x[2] == pytest.approx(8.0)

    def test_covariance_matches_hand_oracle(self, rng):
        # hand-rolled F P F^T + Q with explicit loops
        state = kf_init(det(0, 5, 5, 6, 3))
        a = rng.standard_normal((7, 7))
        state.P = a @ a.T + np.eye(7)  # random SPD
        F = np.eye(7)
        F[0, 4] = F[1, 5] = F[2, 6] = 1.0
        Q = DEFAULT_MOTION.q()
        expected = np.zeros((7, 7))
        for i in range(7):
            for j in range(7):
                acc = 0.0
                for k in range(7):
                    for l in range(7):
                        acc += F[i, k] * state.P[k, l] * F[j, l]
                expected[i, j] = acc + Q[i, j]
        out = kf_predict(state)
        assert out.P == pytest.approx(expected, abs=1e-9)

    def test_trace_strictly_increases_from_init(self):
        state = kf_init(det(0, 5, 5, 6, 3))
        for _ in range(5):
            nxt = kf_predict(state)
            assert np.trace(nxt.P) > np.trace(state.P)
            state = nxt


class TestUpdate:
    def test_zero_innovation_keeps_mean_shrinks_cov(self):
        state = kf_predict(kf_init(det(0, 10, 10, 4, 2)))
        out = kf_update(state, det(1, 10, 10, 4, 2))
        assert out.x[:4] == pytest.approx(state.x[:4])
        assert np.trace(out.P) < np.trace(state.P)

    def test_posterior_between_prediction_and_measurement(self, rng):
        for _ in range(50):
            state = kf_init(det(0, *rng.uniform(10, 50, 2)))
            state.x[4:6] = rng.uniform(-3, 3, 2)
            pred = kf_predict(state)
            z = det(1, *rng.uniform(10, 50, 2))
            post = kf_update(pred, z)
            for i, m in [(0, z.bbox.u), (1, z.bbox.v)]:
                lo, hi = sorted([pred.x[i], m])
                assert lo - 1e-9 <= post.x[i] <= hi + 1e-9

    def test_noiseless_constant_velocity_convergence(self):
        # oracle simulation: geometric error decay reaches ~1.4e-4 px by
        # cycle 10 under the default noise levels (not lower; the gain is
        # bounded away from 1 by R)
        state = kf_init(det(0, 10, 20))
        for t in range(1, 11):
            state = kf_update(kf_predict(state), det(t, 10 + 2 * t, 20))
        assert abs(state.x[0] - 30.0) < 1e-3
        assert abs(state.x[1] - 20.0) < 1e-9
        assert state.x[4] == pytest.approx(2.0, abs=1e-3)

    def test_repeated_identical_measurement_fixed_point(self):
        state = kf_init(det(0, 0, 0))
        target = det(1, 5, 7)
        for _ in range(50):
            state = kf_update(kf_predict(state), target)
        assert abs(state.x[0] - 5.0) < 1e-3
        assert abs(state.x[1] - 7.0) < 1e-3


class TestBatchedKernelsAgree:
    def test_batch_matches_scalar_filtering(self, rng):
        # the batched kernels are an optimization, never a semantic fork
        states = [kf_init(det(0, *rng.uniform(10, 90, 2))) for _ in range(7)]
        for s in states:
            s.x[4:] = rng.uniform(-5, 5, 3)
        zs = rng.uniform(10, 90, (7, 4))
        zs[:, 2] = rng.uniform(50, 200, 7)   # scale
        zs[:, 3] = rng.uniform(0.5, 2.0, 7)  # ratio
        xs = np.stack([s.x for s in states])
        Ps = np.stack([s.P for s in states])
        for _ in range(3):
            xs, Ps = kf_predict_batch(xs, Ps)
            xs, Ps = kf_update_batch(xs, Ps, zs)
            for i, s in enumerate(states):
                states[i] = kf_predict(s)
                w = np.sqrt(zs[i, 2] * zs[i, 3])
                h = np.sqrt(zs[i, 2] / zs[i, 3])
                d = det(1, zs[i, 0], zs[i, 1], w, h)
                assert np.allclose(bbox_to_xysr(d.bbox), zs[i])
                states[i] = kf_update(states[i], d)
            for i, s in enumerate(states):
                assert xs[i] == pytest.approx(s.x, abs=1e-9)
                assert Ps[i] == pytest.approx(s.P, abs=1e-9)


class TestPsdProperty:
    def test_random_interleavings_keep_P_psd(self, rng):
        state = kf_init(det(0, 50, 50))
        frame = 0
        for _ in range(1000):
            if rng.uniform() < 0.6:
                state = kf_predict(state)
            else:
                frame += 1
                state = kf_update(
                    state, det(frame, *rng.uniform(0, 100, 2))
                )
            assert np.allclose(state.P, state.P.T)
            assert np.linalg.eigvalsh(state.P).min() >= -1e-9


class TestOcrReupdate:
    def _burned_in(self, speed=2.0, n=10):
        state = kf_init(det(0, 0, 0))
        last = BBox(0.0001, 0, 10, 10)
        for t in range(1, n + 1):
            d = det(t, speed * t, 0)
            state = kf_update(kf_predict(state), d)
            last = d.bbox
        return state, last

    def test_gap_one_equals_plain_cycle(self):
        state, last = self._burned_in()
        d = det(11, 22, 0)
        via_ocr = ocr_reupdate(state.copy(), last, d, gap=1)
        plain = kf_update(kf_predict(state.copy()), d)
        assert via_ocr.x == pytest.approx(plain.x)
        assert via_ocr.P == pytest.approx(plain.P)

    def test_velocity_recovered_after_occlusion(self):
        state, last = self._burned_in(speed=2.0)
        # frames 11..15 occluded, reappears at 16 => gap 6
        d = det(16, 32.0, 0)
        out = ocr_reupdate(state, last, d, gap=6)
        assert abs(out.x[4] - 2.0) / 2.0 < 0.10
        assert out.bbox().u == pytest.approx(32.0, abs=0.5)

    def test_stationary_object_keeps_zero_velocity(self):
        state = kf_init(det(0, 50, 50))
        last = BBox(50, 50, 10, 10)
        for t in range(1, 11):
            d = det(t, 50, 50)
            state = kf_update(kf_predict(state), d)
            last = d.bbox
        out = ocr_reupdate(state, last, det(16, 50, 50), gap=6)
        assert abs(out.x[4]) + abs(out.x[5]) < 1e-3

    def test_bad_gap_rejected(self):
        state, last = self._burned_in()
        with pytest.raises(ValueError):
            ocr_reupdate(state, last, det(11, 22, 0), gap=0)


class TestVelocityDirectionCost:
    """The heading gap, in [0, pi], of tracker._direction_costs at lam = 1."""

    def _history(self, *points):
        d = det(len(points) - 1, *points[-1])
        state = kf_init(d)
        prev = tuple(points[-2]) if len(points) >= 2 else None
        return make_tracks([(1, state, d.bbox, EMB, prev)])

    def _gap(self, track, d):
        centers = np.array([[d.bbox.u, d.bbox.v]])
        return _direction_costs(track, centers, 1.0)[0, 0] * math.pi

    def test_collinear_motion_is_zero(self):
        hist = self._history((0, 0), (1, 0))
        assert self._gap(hist, det(2, 2, 0)) == pytest.approx(0.0)

    def test_45_degree_turn(self):
        hist = self._history((0, 0), (1, 0))
        got = self._gap(hist, det(2, 1 + math.sqrt(0.5), math.sqrt(0.5)))
        assert got == pytest.approx(math.pi / 4)

    def test_reversal_is_pi(self):
        hist = self._history((0, 0), (1, 0))
        assert self._gap(hist, det(2, 0, 0)) == pytest.approx(math.pi)

    def test_single_entry_history_inert(self):
        hist = self._history((0, 0))
        assert self._gap(hist, det(1, 50, 50)) == 0.0

    def test_range_and_invariances(self, rng):
        for _ in range(200):
            pts = rng.uniform(-50, 50, (3, 2))
            hist = self._history(pts[0], pts[1])
            d = det(2, *pts[2])
            base = self._gap(hist, d)
            assert 0.0 <= base <= math.pi
            # translation invariance
            off = rng.uniform(-100, 100, 2)
            hist_t = self._history(pts[0] + off, pts[1] + off)
            d_t = det(2, *(pts[2] + off))
            assert self._gap(hist_t, d_t) == pytest.approx(base, abs=1e-9)
            # positive uniform scaling invariance
            k = rng.uniform(0.1, 10)
            hist_s = self._history(pts[0] * k, pts[1] * k)
            d_s = det(2, *(pts[2] * k))
            assert self._gap(hist_s, d_s) == pytest.approx(base, abs=1e-7)


class TestBurnInResidual:
    def test_bounded_error_for_fast_targets(self):
        # after 20-frame burn-in, residual < 0.5 px for speeds up to 10 px/frame
        for speed in (1.0, 5.0, 10.0):
            state = kf_init(det(0, 0, 0))
            errs = []
            for t in range(1, 41):
                state = kf_update(kf_predict(state), det(t, speed * t, 0))
                if t > 20:
                    errs.append(abs(state.x[0] - speed * t))
            assert max(errs) < 0.5


class TestDegenerateUpdate:
    def test_singular_innovation_raises(self):
        from macsort.errors import InvalidState
        from macsort.motion import MotionConfig

        degenerate = MotionConfig(r_pos=0.0, r_size=0.0)
        state = kf_init(det(0, 10, 10))
        state.P = np.zeros((7, 7))  # no uncertainty, no measurement noise
        with pytest.raises(InvalidState):
            kf_update(state, det(1, 12, 10), degenerate)
