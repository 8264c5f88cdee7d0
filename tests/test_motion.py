import math
import warnings

import numpy as np
import pytest

import motion_ref as ref
from conftest import make_tracks
from macsort.errors import InvalidState
from macsort.geometry import BBox, uvwh_to_xysr, xysr_to_uvwh
from macsort.motion import kf_init, kf_predict_batch, kf_update_batch, ocr_reupdate
from macsort.tracker import _direction_costs

EMB = np.array([1.0, 0.0])


def box(u, v, w=10.0, h=10.0):
    return np.array([u, v, w, h], dtype=float)


def predict(state):
    """One (x, P) state advanced one frame, as a batch of one."""
    xs, Ps = kf_predict_batch(state[0][None], state[1][None])
    return xs[0], Ps[0]


def update(state, b):
    """One (x, P) state updated with the (u, v, w, h) box ``b``."""
    xs, Ps = kf_update_batch(state[0][None], state[1][None], uvwh_to_xysr(b[None]))
    return xs[0], Ps[0]


def readout(state):
    """The (u, v, w, h) box of one state."""
    return xysr_to_uvwh(state[0][None, :4])[0]


class TestInit:
    def test_zero_velocity_init(self):
        x, _ = kf_init(box(10, 10, 4, 2))
        assert x == pytest.approx([10, 10, 8, 2, 0, 0, 0])

    def test_deterministic(self):
        a = kf_init(box(3, 4, 5, 6))
        b = kf_init(box(3, 4, 5, 6))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_initial_covariance_follows_config(self):
        assert np.array_equal(ref.expand(kf_init(box(10, 10))[1]), ref.P0)

    def test_readout_round_trip(self):
        b = box(12.5, -3.0, 7.0, 3.5)
        assert readout(kf_init(b)) == pytest.approx(b)


class TestPredict:
    def test_unit_velocity_step(self):
        x, P = kf_init(box(10, 10, 4, 2))
        x[4] = 1.0
        x[2] = 8.0
        out, _ = predict((x, P))
        assert out[:4] == pytest.approx([11, 10, 8, 2])

    def test_zero_velocity_identity(self):
        state = kf_init(box(10, 10, 4, 2))
        out, _ = predict(state)
        assert out[:4] == pytest.approx(state[0][:4])

    def test_negative_scale_velocity_zeroed(self):
        x, P = kf_init(box(10, 10, 4, 2))
        x[6] = -100.0  # would drive s below zero
        out, _ = predict((x, P))
        assert out[2] == pytest.approx(8.0)

    def test_covariance_matches_hand_oracle(self, rng):
        # hand-rolled F P F^T + Q with explicit loops
        x, _ = kf_init(box(5, 5, 6, 3))
        a = rng.standard_normal((3, 2, 2))
        pos_vel = a @ a.transpose(0, 2, 1) + np.eye(2)  # random SPD (pos, vel) blocks
        blocks = np.zeros((4, 3))
        blocks[:3] = np.column_stack([pos_vel[:, 0, 0], pos_vel[:, 0, 1], pos_vel[:, 1, 1]])
        blocks[3, 0] = rng.uniform(0.5, 2.0)
        P = ref.expand(blocks)
        F = np.eye(7)
        F[0, 4] = F[1, 5] = F[2, 6] = 1.0
        Q = ref.Q
        expected = np.zeros((7, 7))
        for i in range(7):
            for j in range(7):
                acc = 0.0
                for k in range(7):
                    for l in range(7):
                        acc += F[i, k] * P[k, l] * F[j, l]
                expected[i, j] = acc + Q[i, j]
        _, out = predict((x, blocks))
        assert ref.expand(out) == pytest.approx(expected, abs=1e-9)

    def test_trace_strictly_increases_from_init(self):
        state = kf_init(box(5, 5, 6, 3))
        for _ in range(5):
            nxt = predict(state)
            assert np.trace(ref.expand(nxt[1])) > np.trace(ref.expand(state[1]))
            state = nxt


class TestUpdate:
    def test_zero_innovation_keeps_mean_shrinks_cov(self):
        state = predict(kf_init(box(10, 10, 4, 2)))
        out = update(state, box(10, 10, 4, 2))
        assert out[0][:4] == pytest.approx(state[0][:4])
        assert np.trace(ref.expand(out[1])) < np.trace(ref.expand(state[1]))

    def test_posterior_between_prediction_and_measurement(self, rng):
        for _ in range(50):
            x, P = kf_init(box(*rng.uniform(10, 50, 2)))
            x[4:6] = rng.uniform(-3, 3, 2)
            pred = predict((x, P))
            z = box(*rng.uniform(10, 50, 2))
            post, _ = update(pred, z)
            for i in (0, 1):
                lo, hi = sorted([pred[0][i], z[i]])
                assert lo - 1e-9 <= post[i] <= hi + 1e-9

    def test_noiseless_constant_velocity_convergence(self):
        # oracle simulation: geometric error decay reaches ~1.4e-4 px by
        # cycle 10 under the default noise levels (not lower; the gain is
        # bounded away from 1 by R)
        state = kf_init(box(10, 20))
        for t in range(1, 11):
            state = update(predict(state), box(10 + 2 * t, 20))
        x = state[0]
        assert abs(x[0] - 30.0) < 1e-3
        assert abs(x[1] - 20.0) < 1e-9
        assert x[4] == pytest.approx(2.0, abs=1e-3)

    def test_repeated_identical_measurement_fixed_point(self):
        state = kf_init(box(0, 0))
        target = box(5, 7)
        for _ in range(50):
            state = update(predict(state), target)
        assert abs(state[0][0] - 5.0) < 1e-3
        assert abs(state[0][1] - 7.0) < 1e-3


class TestBatchedKernelsAgree:
    def test_batch_matches_scalar_filtering(self, rng):
        # rows of a batch are independent: a batch of seven filters as
        # seven batches of one do
        states = [kf_init(box(*rng.uniform(10, 90, 2))) for _ in range(7)]
        for x, _ in states:
            x[4:] = rng.uniform(-5, 5, 3)
        zs = rng.uniform(10, 90, (7, 4))
        zs[:, 2] = rng.uniform(50, 200, 7)   # scale
        zs[:, 3] = rng.uniform(0.5, 2.0, 7)  # ratio
        xs = np.stack([x for x, _ in states])
        Ps = np.stack([P for _, P in states])
        for _ in range(3):
            xs, Ps = kf_update_batch(*kf_predict_batch(xs, Ps), zs)
            for i, state in enumerate(states):
                one = kf_predict_batch(state[0][None], state[1][None])
                one = kf_update_batch(*one, zs[i][None])
                states[i] = one[0][0], one[1][0]
            for i, (x, P) in enumerate(states):
                assert np.array_equal(xs[i], x)
                assert np.array_equal(Ps[i], P)


class TestPsdProperty:
    def test_random_interleavings_keep_P_psd(self, rng):
        state = kf_init(box(50, 50))
        for _ in range(1000):
            if rng.uniform() < 0.6:
                state = predict(state)
            else:
                state = update(state, box(*rng.uniform(0, 100, 2)))
            P = ref.expand(state[1])
            assert np.allclose(P, P.T)
            assert np.linalg.eigvalsh(P).min() >= -1e-9


class TestOcrReupdate:
    def _burned_in(self, speed=2.0, n=10):
        state = kf_init(box(0, 0))
        last = box(0.0001, 0)
        for t in range(1, n + 1):
            last = box(speed * t, 0)
            state = update(predict(state), last)
        return state, last

    def test_gap_one_equals_plain_cycle(self):
        state, last = self._burned_in()
        b = box(22, 0)
        via_ocr = ocr_reupdate(state, last, b, gap=1)
        plain = update(predict(state), b)
        assert np.array_equal(via_ocr[0], plain[0])
        assert np.array_equal(via_ocr[1], plain[1])

    def test_velocity_recovered_after_occlusion(self):
        state, last = self._burned_in(speed=2.0)
        # frames 11..15 occluded, reappears at 16 => gap 6
        out = ocr_reupdate(state, last, box(32.0, 0), gap=6)
        assert abs(out[0][4] - 2.0) / 2.0 < 0.10
        assert readout(out)[0] == pytest.approx(32.0, abs=0.5)

    def test_stationary_object_keeps_zero_velocity(self):
        state = kf_init(box(50, 50))
        for _ in range(1, 11):
            state = update(predict(state), box(50, 50))
        out = ocr_reupdate(state, box(50, 50), box(50, 50), gap=6)
        assert abs(out[0][4]) + abs(out[0][5]) < 1e-3

    def test_bad_gap_rejected(self):
        state, last = self._burned_in()
        with pytest.raises(ValueError):
            ocr_reupdate(state, last, box(22, 0), gap=0)


def _virtual_rounds(state, last, b, gap):
    """ocr_reupdate's virtual trajectory as ``gap`` rounds of the batch
    kernels on a batch of one; also returns the steps whose predict
    clamped the scale velocity."""
    (u0, v0, s0, _), (u1, v1, s1, r1) = uvwh_to_xysr(np.stack([last, b])).tolist()
    xs, Ps, clamped = state[0][None], state[1][None], []
    for k in range(1, gap + 1):
        t = k / gap
        if xs[0, 2] + xs[0, 6] <= 0.0:
            clamped.append(k)
        z = np.array([[u0 + t * (u1 - u0), v0 + t * (v1 - v0), s0 + t * (s1 - s0), r1]])
        xs, Ps = kf_update_batch(*kf_predict_batch(xs, Ps), z)
    return (xs[0], Ps[0]), clamped


class TestOcrMatchesBatchKernels:
    """ocr_reupdate steps Python floats through the same per-block formulas
    as the batch kernels, so it equals them bit for bit."""

    def test_random_checkpoints_bit_equal(self, rng):
        for gap in list(range(1, 31)) * 4:
            last, new = (np.array([b.u, b.v, b.w, b.h]) for b in (_random_box(rng), _random_box(rng)))
            x, P = kf_init(last)
            x[4:] = rng.normal(0.0, 20.0, 3)
            P = P * rng.uniform(0.1, 10.0, (4, 3))
            got = ocr_reupdate((x, P), last, new, gap)
            want, _ = _virtual_rounds((x, P), last, new, gap)
            assert got[0].shape == (7,) and got[1].shape == (4, 3)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_shrinking_box_clamps_scale_velocity_mid_gap(self):
        # a steady shrink with a confident scale velocity drives s + ds
        # non-positive part way through the gap
        last, new = box(50, 50, 20, 20), box(50, 50, 2, 2)
        x, _ = kf_init(last)
        x[6] = -150.0
        P = np.array([[10.0, 0.0, 1e-3]] * 3 + [[10.0, 0.0, 0.0]])
        want, clamped = _virtual_rounds((x, P), last, new, 8)
        assert clamped and clamped[0] > 1
        got = ocr_reupdate((x, P), last, new, 8)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def _random_box(rng):
    return BBox(*rng.uniform(-500, 500, 2), *np.exp(rng.uniform(-3, 6, 2)))


def _assert_close(got, want):
    """A block filter state against the 7x7 oracle's: the same algebra,
    summed in another order, so equal to within rounding."""
    np.testing.assert_allclose(got[0], want.x, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(ref.expand(got[1]), want.P, rtol=1e-12, atol=0)


class TestMatchesPerObjectApi:
    """The (x, P) array API against the per-object API it replaced
    (tests/motion_ref.py): bit for bit at init, to within rounding after
    filtering."""

    def test_init_predict_update_reupdate_bit_equal(self, rng):
        for _ in range(60):
            b = _random_box(rng)
            want = ref.kf_init(ref.Detection(0, b, 0.9, EMB))
            got = kf_init(np.array([b.u, b.v, b.w, b.h]))
            assert np.array_equal(got[0], want.x) and np.array_equal(ref.expand(got[1]), want.P)
            for _ in range(int(rng.integers(0, 4))):
                nxt = _random_box(rng)
                want = ref.kf_update(ref.kf_predict(want), ref.Detection(0, nxt, 0.9, EMB))
                got = update(predict(got), np.array([nxt.u, nxt.v, nxt.w, nxt.h]))
                _assert_close(got, want)
                b = nxt
            gap, new = int(rng.integers(1, 31)), _random_box(rng)
            want = ref.ocr_reupdate(want, b, ref.Detection(gap, new, 0.9, EMB), gap)
            got = ocr_reupdate(got, np.array([b.u, b.v, b.w, b.h]),
                               np.array([new.u, new.v, new.w, new.h]), gap)
            _assert_close(got, want)

    def test_oracle_covariance_stays_block_structured(self, rng):
        """Every 7x7 covariance entry outside the (u, du), (v, dv), (s, ds)
        and r blocks stays exactly 0.0 under the oracle's matrix algebra,
        which is what makes the (4, 3) block layout lossless."""
        off_block = ref.expand(np.ones((4, 3))) == 0.0
        for _ in range(40):
            b = _random_box(rng)
            state = ref.kf_init(ref.Detection(0, b, 0.9, EMB))
            for _ in range(int(rng.integers(1, 12))):
                nxt = _random_box(rng)
                step = rng.integers(3)
                if step == 0:
                    state = ref.kf_predict(state)
                elif step == 1:
                    state = ref.kf_update(state, ref.Detection(0, nxt, 0.9, EMB))
                else:
                    gap = int(rng.integers(1, 31))
                    state = ref.ocr_reupdate(state, b, ref.Detection(gap, nxt, 0.9, EMB), gap)
                b = nxt
                assert np.all(state.P[off_block] == 0.0)

    def test_conversions_bit_equal(self, rng):
        boxes = [_random_box(rng) for _ in range(500)]
        uvwh = np.array([(b.u, b.v, b.w, b.h) for b in boxes])
        assert np.array_equal(uvwh_to_xysr(uvwh), [ref.bbox_to_xysr(b) for b in boxes])
        xysr = np.column_stack([rng.uniform(-500, 500, (500, 2)),
                                np.exp(rng.uniform(-6, 12, 500)), np.exp(rng.uniform(-3, 3, 500))])
        want = [ref.xysr_to_bbox(*row) for row in xysr.tolist()]
        assert np.array_equal(xysr_to_uvwh(xysr), [(b.u, b.v, b.w, b.h) for b in want])

    @pytest.mark.parametrize("s, r", [(-1.0, 1.0), (0.0, 2.0), (1.0, 0.0), (4.0, -0.5)])
    def test_same_invalid_state(self, s, r):
        with pytest.raises(InvalidState) as want:
            ref.xysr_to_bbox(3.0, 4.0, s, r)
        rows = np.array([[1.0, 2.0, 9.0, 1.0], [3.0, 4.0, s, r]])
        with pytest.raises(InvalidState) as got:
            xysr_to_uvwh(rows)
        assert str(got.value) == str(want.value)


class TestVelocityDirectionCost:
    """The heading gap, in [0, pi], of tracker._direction_costs at lam = 1."""

    def _history(self, *points):
        b = BBox(*points[-1], 10.0, 10.0)
        state = kf_init(np.array([b.u, b.v, b.w, b.h]))
        prev = tuple(points[-2]) if len(points) >= 2 else None
        return make_tracks([(1, state, b, EMB, prev)])

    def _gap(self, track, center):
        return _direction_costs(track, np.array([0]), np.array([center], float), 1.0)[0] * math.pi

    def test_collinear_motion_is_zero(self):
        hist = self._history((0, 0), (1, 0))
        assert self._gap(hist, (2, 0)) == pytest.approx(0.0)

    def test_45_degree_turn(self):
        hist = self._history((0, 0), (1, 0))
        got = self._gap(hist, (1 + math.sqrt(0.5), math.sqrt(0.5)))
        assert got == pytest.approx(math.pi / 4)

    def test_reversal_is_pi(self):
        hist = self._history((0, 0), (1, 0))
        assert self._gap(hist, (0, 0)) == pytest.approx(math.pi)

    def test_single_entry_history_inert(self):
        hist = self._history((0, 0))
        assert self._gap(hist, (50, 50)) == 0.0

    def test_range_and_invariances(self, rng):
        for _ in range(200):
            pts = rng.uniform(-50, 50, (3, 2))
            hist = self._history(pts[0], pts[1])
            base = self._gap(hist, pts[2])
            assert 0.0 <= base <= math.pi
            # translation invariance
            off = rng.uniform(-100, 100, 2)
            hist_t = self._history(pts[0] + off, pts[1] + off)
            assert self._gap(hist_t, pts[2] + off) == pytest.approx(base, abs=1e-9)
            # positive uniform scaling invariance
            k = rng.uniform(0.1, 10)
            hist_s = self._history(pts[0] * k, pts[1] * k)
            assert self._gap(hist_s, pts[2] * k) == pytest.approx(base, abs=1e-7)


class TestBurnInResidual:
    def test_bounded_error_for_fast_targets(self):
        # after 20-frame burn-in, residual < 0.5 px for speeds up to 10 px/frame
        for speed in (1.0, 5.0, 10.0):
            state = kf_init(box(0, 0))
            errs = []
            for t in range(1, 41):
                state = update(predict(state), box(speed * t, 0))
                if t > 20:
                    errs.append(abs(state[0][0] - speed * t))
            assert max(errs) < 0.5


def _singular_u(a):
    """Covariance blocks, zero but for the u row's variance ``a``: the u
    row's innovation variance is a + 1 at update."""
    P = np.zeros((4, 3))
    P[0, 0] = a
    return P


class TestDegenerateUpdate:
    """A caller's covariance can make an innovation variance exactly 0; the
    measurement noise of the u row is 1."""

    def test_singular_innovation_raises(self):
        x, _ = kf_init(box(10, 10))
        with pytest.raises(InvalidState):
            update((x, _singular_u(-1.0)), box(12, 10))

    def test_one_singular_row_raises_before_dividing(self):
        # row 0 is well posed; only row 1 has a zero innovation variance
        (x, P), b = kf_init(box(10, 10)), box(12, 10)
        xs, Ps = np.stack([x, x]), np.stack([P, _singular_u(-1.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InvalidState):
                kf_update_batch(xs, Ps, uvwh_to_xysr(np.stack([b, b])))

    def test_reupdate_raises_before_dividing(self):
        # the predict adds the u row's process noise 1, so a = -2 reaches
        # S = 0; Python floats would raise ZeroDivisionError at a / S
        x, _ = kf_init(box(10, 10))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InvalidState, match="zero variance"):
                ocr_reupdate((x, _singular_u(-2.0)), box(10, 10), box(12, 10), 3)
