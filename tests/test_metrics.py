import json
import math

import numpy as np
import pytest

import macsort.metrics
from macsort.errors import FrameMismatch
from macsort.geometry import BBox, iou_matrix
from macsort.metrics import MetricsReport, TrackSequence, evaluate, match_frame
from macsort.tracker import linear_assignment


def seq(items, n_frames=None):
    """items: iterable of (frame, obj_id, (u, v, w, h))."""
    s = TrackSequence(n_frames=n_frames)
    for frame, obj_id, box in items:
        s.add(frame, obj_id, BBox(*box))
    return s


def moving_gt(obj_id=7, frames=range(1, 11)):
    return [(t, obj_id, (2.0 * t, 0, 10, 10)) for t in frames]


class TestMatchFrame:
    def test_identical_boxes_full_matching(self):
        gts = [(1, BBox(0, 0, 10, 10)), (2, BBox(30, 0, 10, 10))]
        preds = [(9, BBox(0, 0, 10, 10)), (8, BBox(30, 0, 10, 10))]
        assert match_frame(gts, preds, 0.5) == {1: 9, 2: 8}

    def test_disjoint_no_matching(self):
        gts = [(1, BBox(0, 0, 10, 10))]
        preds = [(9, BBox(500, 0, 10, 10))]
        assert match_frame(gts, preds, 0.5) == {}

    def test_crossed_ious_prefer_diagonal(self):
        # diag IoU 9/11, off-diag 5/15 and 7/13; Hungarian keeps the diagonal
        gts = [(1, BBox(0, 0, 10, 10)), (2, BBox(4, 0, 10, 10))]
        preds = [(1, BBox(1, 0, 10, 10)), (2, BBox(5, 0, 10, 10))]
        assert match_frame(gts, preds, 0.3) == {1: 1, 2: 2}

    def test_carry_over_beats_better_iou(self):
        gts = [(1, BBox(0, 0, 10, 10))]
        preds = [(10, BBox(2, 0, 10, 10)), (11, BBox(0.5, 0, 10, 10))]
        fresh = match_frame(gts, preds, 0.5)
        assert fresh == {1: 11}
        kept = match_frame(gts, preds, 0.5, prev_matches={1: 10})
        assert kept == {1: 10}

    def test_carry_over_dropped_below_threshold(self):
        gts = [(1, BBox(0, 0, 10, 10))]
        preds = [(10, BBox(9, 0, 10, 10)), (11, BBox(1, 0, 10, 10))]
        got = match_frame(gts, preds, 0.5, prev_matches={1: 10})
        assert got == {1: 11}


class TestEvaluateOracles:
    def test_perfect_tracking(self):
        gt = seq(moving_gt())
        report = evaluate(gt, gt)
        assert report.mota == 1.0
        assert report.idf1 == 1.0 and report.idp == 1.0 and report.idr == 1.0
        assert report.hota == 1.0 and report.deta == 1.0 and report.assa == 1.0
        assert report.id_switches == 0
        assert report.fp == report.fn == 0

    def test_one_missing_detection(self):
        # 2 objects x 2 frames, one prediction missing -> FN=1, MOTA=0.75
        gt = seq(
            [
                (1, 1, (0, 0, 10, 10)),
                (1, 2, (50, 0, 10, 10)),
                (2, 1, (2, 0, 10, 10)),
                (2, 2, (52, 0, 10, 10)),
            ]
        )
        pred = seq(
            [
                (1, 1, (0, 0, 10, 10)),
                (1, 2, (50, 0, 10, 10)),
                (2, 1, (2, 0, 10, 10)),
            ]
        )
        report = evaluate(gt, pred)
        assert report.fn == 1 and report.fp == 0 and report.tp == 3
        assert report.mota == pytest.approx(0.75)
        assert report.id_switches == 0

    def test_mid_sequence_id_flip(self):
        # one object, 10 frames; predicted id changes after frame 5:
        # IDSW=1; best global id mapping covers 5 of 10 frames both ways
        gt = seq(moving_gt())
        pred = seq(
            [(t, 1 if t <= 5 else 2, (2.0 * t, 0, 10, 10)) for t in range(1, 11)]
        )
        report = evaluate(gt, pred)
        assert report.id_switches == 1
        assert report.idf1 == pytest.approx(0.5)
        assert report.idp == pytest.approx(0.5)
        assert report.idr == pytest.approx(0.5)
        assert report.mota == pytest.approx(0.9)  # 1 - 1/10
        assert report.deta == pytest.approx(1.0)
        assert report.assa == pytest.approx(0.5)
        assert report.hota == pytest.approx(math.sqrt(0.5))

    def test_pure_false_positives(self):
        gt = seq(moving_gt())
        pred = seq(
            moving_gt(obj_id=1)
            + [(t, 99, (500, 500, 10, 10)) for t in range(1, 11)]
        )
        report = evaluate(gt, pred)
        assert report.fp == 10 and report.fn == 0
        assert report.mota == pytest.approx(0.0)

    def test_mota_can_go_negative(self):
        gt = seq([(1, 1, (0, 0, 10, 10))])
        pred = seq(
            [(1, 1, (0, 0, 10, 10)), (1, 2, (50, 0, 10, 10)), (1, 3, (90, 0, 10, 10))]
        )
        report = evaluate(gt, pred)
        assert report.mota == pytest.approx(-1.0)  # 1 - 2/1


class TestCoverage:
    def test_mostly_tracked_and_lost(self):
        gt = seq(
            moving_gt(obj_id=1)
            + [(t, 2, (100 + 2 * t, 50, 10, 10)) for t in range(1, 11)]
            + [(t, 3, (300 + 2 * t, 90, 10, 10)) for t in range(1, 11)]
        )
        pred = seq(
            moving_gt(obj_id=1)  # covered 10/10 -> MT
            + [(t, 2, (100 + 2 * t, 50, 10, 10)) for t in range(1, 6)]  # 5/10
            + [(1, 3, (302, 90, 10, 10))]  # 1/10 -> ML
        )
        report = evaluate(gt, pred)
        assert report.mostly_tracked == 1
        assert report.mostly_lost == 1


class TestInvariants:
    def _random_case(self, rng, flip=False):
        gt_items, pred_items = [], []
        for t in range(1, 16):
            for obj in range(1, 4):
                u, v = 40.0 * obj + 1.5 * t, 10.0 * obj
                gt_items.append((t, obj, (u, v, 12, 12)))
                if rng.uniform() < 0.85:
                    pid = obj + (3 if flip and t > 8 else 0)
                    du, dv = rng.uniform(-2, 2, 2)
                    pred_items.append((t, pid, (u + du, v + dv, 12, 12)))
        return seq(gt_items), seq(pred_items)

    def test_hota_geometric_mean_identity(self, rng):
        for flip in (False, True):
            gt, pred = self._random_case(rng, flip)
            for sweep in (False, True):
                report = evaluate(gt, pred, hota_sweep=sweep)
                assert report.hota == pytest.approx(
                    math.sqrt(report.deta * report.assa), abs=1e-9
                )

    def test_idf1_harmonic_mean_identity(self, rng):
        gt, pred = self._random_case(rng, flip=True)
        report = evaluate(gt, pred)
        expected = 2 * report.idp * report.idr / (report.idp + report.idr)
        assert report.idf1 == pytest.approx(expected, abs=1e-9)

    def test_prediction_id_relabeling_invariance(self, rng):
        gt, pred = self._random_case(rng, flip=True)
        mapping = {}
        relabeled = TrackSequence()
        for frame, items in pred.frames.items():
            for pid, box in items:
                new = mapping.setdefault(pid, 1000 + 7 * len(mapping))
                relabeled.add(frame, new, box)
        a = evaluate(gt, pred)
        b = evaluate(gt, relabeled)
        assert a == b

    def test_rates_bounded(self, rng):
        gt, pred = self._random_case(rng, flip=True)
        r = evaluate(gt, pred)
        for val in (r.hota, r.deta, r.assa, r.idf1, r.idp, r.idr):
            assert 0.0 <= val <= 1.0
        assert r.mota <= 1.0

    def test_evaluate_gt_vs_gt_is_perfect(self, rng):
        gt, _ = self._random_case(rng)
        report = evaluate(gt, gt)
        assert report == MetricsReport(
            hota=1.0, deta=1.0, assa=1.0, mota=1.0, idf1=1.0, idp=1.0, idr=1.0,
            id_switches=0, mostly_tracked=3, mostly_lost=0,
            tp=gt.total_boxes(), fp=0, fn=0,
        )


class TestEdgeCases:
    def test_frame_mismatch(self):
        gt = seq([(1, 1, (0, 0, 10, 10))], n_frames=5)
        pred = seq([(9, 1, (0, 0, 10, 10))])
        with pytest.raises(FrameMismatch):
            evaluate(gt, pred)

    def test_empty_everything_is_perfect(self):
        report = evaluate(TrackSequence(n_frames=3), TrackSequence())
        assert report.hota == 1.0 and report.mota == 1.0 and report.idf1 == 1.0

    def test_duplicate_id_in_frame_rejected(self):
        s = TrackSequence()
        s.add(1, 5, BBox(0, 0, 10, 10))
        with pytest.raises(ValueError):
            s.add(1, 5, BBox(30, 0, 10, 10))

    def test_report_serialization(self):
        gt = seq(moving_gt())
        report = evaluate(gt, gt)
        assert '"hota": 1.0' in report.to_json()
        assert "MOTA" in report.to_text()

    def test_undefined_mota_serializes_as_null(self):
        def reject(token):
            raise ValueError(f"non-finite JSON constant {token}")

        report = evaluate(TrackSequence(n_frames=1), seq([(1, 1, (0, 0, 10, 10))]))
        assert report.mota == float("-inf")
        values = json.loads(report.to_json(), parse_constant=reject)
        assert values["mota"] is None and values["fp"] == 1


def per_pair_match_frame(gt_frame, pred_frame, iou_threshold, prev_matches=None):
    """match_frame with one 1x1 IoU call per carried-over pair."""
    gt_by_id = dict(gt_frame)
    pred_by_id = dict(pred_frame)
    matches = {}
    if prev_matches:
        for g, p in prev_matches.items():
            if g in gt_by_id and p in pred_by_id and p not in matches.values():
                pair = iou_matrix([gt_by_id[g]], [pred_by_id[p]])[0, 0]
                if pair >= iou_threshold:
                    matches[g] = p
    rem_g = [g for g, _ in gt_frame if g not in matches]
    rem_p = [p for p, _ in pred_frame if p not in matches.values()]
    if rem_g and rem_p:
        ious = iou_matrix([gt_by_id[g] for g in rem_g], [pred_by_id[p] for p in rem_p])
        cost = np.where(ious >= iou_threshold, 1.0 - ious, np.inf)
        pairs, _, _ = linear_assignment(cost)
        for gi, pi in pairs:
            matches[rem_g[gi]] = rem_p[pi]
    return matches


def grid_case(rng, n_frames=20, n_objects=5):
    """Boxes on an integer grid, so that touching boxes (IoU 0) and IoUs of
    exactly 1/3 (half-width shift) and 1/2 (half-height box inside) occur."""
    gt, pred = TrackSequence(), TrackSequence()
    lefts = rng.integers(0, 40, n_objects)
    ids = list(range(1, n_objects + 1))
    for t in range(1, n_frames + 1):
        lefts = lefts + rng.integers(-1, 2, n_objects) * 5
        if rng.uniform() < 0.2:  # an identity switch between two predictions
            i, j = rng.choice(n_objects, 2, replace=False)
            ids[i], ids[j] = ids[j], ids[i]
        for k in range(n_objects):
            left, top = float(lefts[k]), 20.0 * (k % 2)
            gt.add(t, k + 1, BBox(left + 5, top + 5, 10, 10))
            kind = rng.integers(0, 5)
            if kind == 0:
                continue  # missed
            if kind == 1:
                box = BBox(left + 5, top + 5, 10, 10)
            elif kind == 2:  # half-width shift: IoU exactly 1/3
                box = BBox(left + 5 + rng.choice([-5, 5]), top + 5, 10, 10)
            elif kind == 3:  # top or bottom half: IoU exactly 1/2
                box = BBox(left + 5, top + rng.choice([2.5, 7.5]), 10, 5)
            else:  # touching on one side: IoU 0
                box = BBox(left + 5 + rng.choice([-10, 10]), top + 5, 10, 10)
            pred.add(t, ids[k] + 100, box)
    return gt, pred


class TestCarryOverOracle:
    THRESHOLDS = (0.5, 1 / 3, 0.3)

    def test_match_frame_equals_per_pair(self):
        rng = np.random.default_rng(7)
        at_threshold = touching = 0
        for _ in range(20):
            gt, pred = grid_case(rng)
            for thr in self.THRESHOLDS:
                prev = {}
                for t in range(1, gt.last_frame + 1):
                    gts, preds = gt.at(t), pred.at(t)
                    # the chained matching, and arbitrary (even non-injective)
                    # carry-over maps
                    pids = [p for p, _ in preds] or [0]
                    rand = {g: int(rng.choice(pids)) for g, _ in gts if rng.uniform() < 0.7}
                    for carry in (prev, rand):
                        got = match_frame(gts, preds, thr, carry)
                        want = per_pair_match_frame(gts, preds, thr, carry)
                        assert list(got.items()) == list(want.items())
                    prev = match_frame(gts, preds, thr, prev)
                    if gts and preds:
                        ious = iou_matrix([b for _, b in gts], [b for _, b in preds])
                        at_threshold += int((ious == thr).sum())
                        edges = np.array([[b.left, b.right] for _, b in preds])
                        touching += sum(
                            int(((edges[:, 0] == b.right) | (edges[:, 1] == b.left)).sum())
                            for _, b in gts
                        )
        assert at_threshold > 0 and touching > 0

    def test_evaluate_equals_per_pair(self, monkeypatch):
        rng = np.random.default_rng(11)
        cases = [grid_case(rng) for _ in range(10)]
        for thr in self.THRESHOLDS:
            got = [evaluate(g, p, thr) for g, p in cases]
            with monkeypatch.context() as m:
                m.setattr(macsort.metrics, "match_frame", per_pair_match_frame)
                want = [evaluate(g, p, thr) for g, p in cases]
            assert got == want
