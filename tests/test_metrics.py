import json
import math

import numpy as np
import pytest

import macsort.metrics
from macsort.errors import FrameMismatch
from macsort.geometry import BBox, iou_matrix
from macsort.metrics import MetricsReport, TrackSequence, evaluate, match_frame
from macsort.mot_io import MotTable
from macsort.tracker import linear_assignment


def seq(items, n_frames=None):
    """items: iterable of (frame, obj_id, (u, v, w, h))."""
    return TrackSequence.from_rows([(f, i, BBox(*box)) for f, i, box in items], n_frames)


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
        relabeled = TrackSequence(pred.frame, [
            mapping.setdefault(pid, 1000 + 7 * len(mapping)) for pid in pred.id.tolist()
        ], pred.boxes)
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
        report = evaluate(TrackSequence.from_rows([], 3), TrackSequence.from_rows([]))
        assert report.hota == 1.0 and report.mota == 1.0 and report.idf1 == 1.0

    def test_duplicate_id_in_frame_rejected(self):
        with pytest.raises(ValueError, match="duplicate id 5 in frame 1"):
            seq([(1, 5, (0, 0, 10, 10)), (2, 5, (0, 0, 10, 10)), (1, 5, (30, 0, 10, 10))])

    def test_report_serialization(self):
        gt = seq(moving_gt())
        report = evaluate(gt, gt)
        assert '"hota": 1.0' in report.to_json()
        assert "MOTA" in report.to_text()

    def test_undefined_mota_serializes_as_null(self):
        def reject(token):
            raise ValueError(f"non-finite JSON constant {token}")

        report = evaluate(seq([], n_frames=1), seq([(1, 1, (0, 0, 10, 10))]))
        assert report.mota == float("-inf")
        values = json.loads(report.to_json(), parse_constant=reject)
        assert values["mota"] is None and values["fp"] == 1


def per_pair_match_frame(gt_frame, pred_frame, iou_threshold, prev_matches=None, ious=None):
    """match_frame with one 1x1 IoU call per carried-over pair; a frame
    IoU matrix passed in is ignored, every IoU is computed here."""
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
    gt, pred = [], []
    lefts = rng.integers(0, 40, n_objects)
    ids = list(range(1, n_objects + 1))
    for t in range(1, n_frames + 1):
        lefts = lefts + rng.integers(-1, 2, n_objects) * 5
        if rng.uniform() < 0.2:  # an identity switch between two predictions
            i, j = rng.choice(n_objects, 2, replace=False)
            ids[i], ids[j] = ids[j], ids[i]
        for k in range(n_objects):
            left, top = float(lefts[k]), 20.0 * (k % 2)
            gt.append((t, k + 1, BBox(left + 5, top + 5, 10, 10)))
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
            pred.append((t, ids[k] + 100, box))
    return TrackSequence.from_rows(gt), TrackSequence.from_rows(pred)


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
                        edges = np.array([[b.u - b.w / 2, b.u + b.w / 2] for _, b in preds])
                        touching += sum(
                            int(((edges[:, 0] == right) | (edges[:, 1] == left)).sum())
                            for left, right in ((b.u - b.w / 2, b.u + b.w / 2) for _, b in gts)
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


def three_pass_evaluate(gt, pred, iou_threshold=0.5, hota_sweep=False):
    """evaluate as three passes over the frames (CLEAR, identity, and one
    higher-order pass per threshold), each building its own IoU matrices."""
    last = gt.last_frame
    bad = sorted({f for f in pred.frame.tolist() if f < 1 or f > last})
    if bad:
        raise FrameMismatch(f"prediction frames {bad} outside 1..{last}")
    frames = range(1, last + 1)

    def max_iou_matching(gts, preds, thr):
        if not gts or not preds:
            return []
        ious = iou_matrix([b for _, b in gts], [b for _, b in preds])
        cost = np.where(ious >= thr, 1.0 - ious, np.inf)
        pairs, _, _ = linear_assignment(cost)
        return [(gts[gi][0], preds[pi][0]) for gi, pi in pairs]

    def identity_scores():
        gt_len, pred_len, overlap = {}, {}, {}
        for f in frames:
            gts, preds = gt.at(f), pred.at(f)
            for g, _ in gts:
                gt_len[g] = gt_len.get(g, 0) + 1
            for p, _ in preds:
                pred_len[p] = pred_len.get(p, 0) + 1
            if gts and preds:
                ious = iou_matrix([b for _, b in gts], [b for _, b in preds])
                for gi, pi in zip(*np.nonzero(ious >= iou_threshold)):
                    key = (gts[gi][0], preds[pi][0])
                    overlap[key] = overlap.get(key, 0) + 1
        total_gt, total_pred = sum(gt_len.values()), sum(pred_len.values())
        if total_gt == 0 and total_pred == 0:
            return 1.0, 1.0, 1.0
        gt_ids, pred_ids = sorted(gt_len), sorted(pred_len)
        ng, np_ = len(gt_ids), len(pred_ids)
        cost = np.zeros((ng + np_, ng + np_))
        for i, g in enumerate(gt_ids):
            cost[i, np_:] = gt_len[g]
            for j, p in enumerate(pred_ids):
                cost[i, j] = gt_len[g] + pred_len[p] - 2 * overlap.get((g, p), 0)
        for j, p in enumerate(pred_ids):
            cost[ng:, j] = pred_len[p]
        pairs, _, _ = linear_assignment(cost)
        idtp = sum(
            overlap.get((gt_ids[i], pred_ids[j]), 0)
            for i, j in pairs
            if i < ng and j < np_
        )
        idp = idtp / total_pred if total_pred else 1.0
        idr = idtp / total_gt if total_gt else 1.0
        return 2.0 * idtp / (total_gt + total_pred), idp, idr

    def hota_at(alpha):
        tp = fp = fn = 0
        pair_count, gt_present, pred_present = {}, {}, {}
        for f in frames:
            gts, preds = gt.at(f), pred.at(f)
            for g, _ in gts:
                gt_present[g] = gt_present.get(g, 0) + 1
            for p, _ in preds:
                pred_present[p] = pred_present.get(p, 0) + 1
            pairs = max_iou_matching(gts, preds, alpha)
            tp += len(pairs)
            fn += len(gts) - len(pairs)
            fp += len(preds) - len(pairs)
            for pair in pairs:
                pair_count[pair] = pair_count.get(pair, 0) + 1
        if tp + fn + fp == 0:
            return 1.0, 1.0
        deta = tp / (tp + fn + fp)
        if tp == 0:
            return deta, 0.0
        ass_sum = 0.0
        for (g, p), count in pair_count.items():
            ass_sum += count * (count / (gt_present[g] + pred_present[p] - count))
        return deta, ass_sum / tp

    tp = fp = fn = idsw = 0
    prev, last_match, gt_count, cover_count = {}, {}, {}, {}
    for f in frames:
        gts, preds = gt.at(f), pred.at(f)
        for g, _ in gts:
            gt_count[g] = gt_count.get(g, 0) + 1
        matches = match_frame(gts, preds, iou_threshold, prev)
        tp += len(matches)
        fn += len(gts) - len(matches)
        fp += len(preds) - len(matches)
        for g, p in matches.items():
            if g in last_match and last_match[g] != p:
                idsw += 1
            last_match[g] = p
            cover_count[g] = cover_count.get(g, 0) + 1
        prev = matches
    gt_total = gt.total_boxes()
    if gt_total:
        mota = 1.0 - (fn + fp + idsw) / gt_total
    else:
        mota = 1.0 if (fp + idsw) == 0 else float("-inf")
    mt = ml = 0
    for g, count in gt_count.items():
        coverage = cover_count.get(g, 0) / count
        if coverage >= 0.8:
            mt += 1
        elif coverage <= 0.2:
            ml += 1
    idf1, idp, idr = identity_scores()
    if hota_sweep:
        scores = [hota_at(round(0.05 * k, 2)) for k in range(1, 20)]
        deta = float(np.mean([d for d, _ in scores]))
        assa = float(np.mean([a for _, a in scores]))
    else:
        deta, assa = hota_at(iou_threshold)
    return MetricsReport(
        hota=float(np.sqrt(deta * assa)), deta=deta, assa=assa, mota=mota,
        idf1=idf1, idp=idp, idr=idr, id_switches=idsw, mostly_tracked=mt,
        mostly_lost=ml, tp=tp, fp=fp, fn=fn,
    )


def sparse_case(rng, n_frames=12, n_ids=6):
    """Frames that are empty, gt-only, pred-only or both, on an integer grid,
    with a declared length that may run past the last box."""
    gt, pred = [], []
    for t in range(1, n_frames + 1):
        kind = rng.integers(0, 4)  # 0 empty, 1 gt only, 2 pred only, 3 both
        for obj in range(1, n_ids + 1):
            left, top = 5.0 * rng.integers(0, 6), 5.0 * rng.integers(0, 3)
            if kind in (1, 3) and rng.uniform() < 0.7:
                gt.append((t, obj, BBox(left + 5, top + 5, 10, 10)))
            if kind in (2, 3) and rng.uniform() < 0.7:
                du, dv = 5.0 * rng.integers(-1, 2, 2)
                pid = int(rng.integers(1, 3)) * 10 + obj  # ids switch at random
                pred.append((t, pid, BBox(left + 5 + du, top + 5 + dv, 10, 10)))
    n_frames += int(rng.integers(0, 3))
    return TrackSequence.from_rows(gt, n_frames), TrackSequence.from_rows(pred)


class TestOnePassOracle:
    THRESHOLDS = (0.05, 0.3, 1 / 3, 0.5, 0.95)

    def test_evaluate_equals_three_pass(self):
        rng = np.random.default_rng(2024)
        cases = [grid_case(rng, n_frames=8) for _ in range(6)]
        cases += [sparse_case(rng) for _ in range(14)]
        cases += [(seq([], n_frames=4), seq([]))]
        # a gt box outside 1..last counts for MOTA's denominator only
        cases += [(seq([(0, 1, (0, 0, 10, 10)), (1, 1, (0, 0, 10, 10))]), seq([]))]
        # frame 1 matches gt 1 to pred 5 (IoU 0.6); empty frames 2-3 drop the
        # pair, so at frame 4 the better pred 6 wins: one switch
        cases += [(seq([(1, 1, (0, 0, 10, 10)), (4, 1, (0, 0, 10, 10))]),
                   seq([(1, 5, (2.5, 0, 10, 10)), (4, 5, (2.5, 0, 10, 10)),
                        (4, 6, (0, 0, 10, 10))]))]
        for gt, pred in cases:
            for thr in self.THRESHOLDS:
                for sweep in (False, True):
                    got = evaluate(gt, pred, thr, sweep)
                    assert got == three_pass_evaluate(gt, pred, thr, sweep)

    def test_to_dict_lists_every_field_in_order(self):
        gt, pred = grid_case(np.random.default_rng(5), n_frames=6)
        report = evaluate(gt, pred)
        assert list(report.to_dict()) == [
            "hota", "deta", "assa", "mota", "idf1", "idp", "idr", "id_switches",
            "mostly_tracked", "mostly_lost", "tp", "fp", "fn",
        ]
        assert report.to_dict() == {k: getattr(report, k) for k in report.to_dict()}


def shift_after(sequence, frame, by):
    """The sequence with every row after ``frame`` moved ``by`` frames on."""
    later = sequence.frame > frame
    n_frames = sequence.n_frames and sequence.n_frames + by * (sequence.n_frames > frame)
    return TrackSequence(sequence.frame + by * later, sequence.id, sequence.boxes, n_frames)


class TestFrameWalk:
    def test_far_gap_after_an_empty_frame_changes_nothing(self):
        rng = np.random.default_rng(31)
        shifted = 0
        for _ in range(20):
            gt, pred = sparse_case(rng)
            with_rows = set(gt.frame.tolist()) | set(pred.frame.tolist())
            empty = [f for f in range(1, max(with_rows, default=0)) if f not in with_rows]
            if not empty:
                continue
            far_gt, far_pred = (shift_after(s, empty[0], 10**12) for s in (gt, pred))
            for thr in (0.3, 0.5):
                for sweep in (False, True):
                    assert evaluate(far_gt, far_pred, thr, sweep) == evaluate(gt, pred, thr, sweep)
            shifted += 1
        assert shifted >= 5


def mot_table(rng, frame, ids):
    """Rows of the given frame and id columns, with random boxes."""
    n = len(frame)
    ltwh = np.column_stack([rng.uniform(0, 50, (n, 2)), rng.uniform(1, 20, (n, 2))])
    return MotTable(frame, ids, ltwh, np.ones(n), np.full((n, 3), -1.0))


def first_repeat(table):
    """The (frame, id) at which adding rows frame by frame (frames
    ascending, file order within a frame) first meets a pair again."""
    seen = set()
    for record in sorted(table, key=lambda r: r.frame):
        if (record.frame, record.id) in seen:
            return record.frame, record.id
        seen.add((record.frame, record.id))
    return None


class TestTrackSequence:
    def test_from_mot_groups_as_dict_of_bbox(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            table = mot_table(rng, rng.integers(1, 10, 40), rng.permutation(40) + 1)
            want: dict[int, list] = {}
            for record in table:
                want.setdefault(record.frame, []).append((record.id, record.bbox()))
            sequence = TrackSequence.from_mot(table)
            got = {f: sequence.at(f) for f in sequence.frame_rows}
            assert list(got.items()) == sorted(want.items())
            assert sequence.at(0) == [] and sequence.at(10) == []
            assert sequence.total_boxes() == len(table)

    def test_repeat_named_as_adding_row_by_row(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            table = mot_table(rng, rng.integers(1, 7, 30), rng.integers(1, 6, 30))
            frame, obj_id = first_repeat(table)
            with pytest.raises(ValueError, match=f"^duplicate id {obj_id} in frame {frame}$"):
                TrackSequence.from_mot(table)
