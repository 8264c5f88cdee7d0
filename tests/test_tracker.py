import importlib.metadata
import importlib.machinery
import itertools
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import macsort.tracker
import metrics_ref
import motion_ref as ref
from geometry_ref import iou_dense
from conftest import (assign, cost_matrix, columns, dense_terms, make_tracks, mot_rows, table,
                      tables, uvwh)
from macsort.cli import main
from macsort.errors import NonMonotonicFrame
from macsort.geometry import (
    BBox,
    ZERO_NORM_EPS,
    box_edges,
    iou_matrix,
    unit_rows,
    uvwh_to_xysr,
    xysr_to_uvwh,
)
from macsort.mot_io import MotTable, read_mot_lines, write_detections
from macsort.motion import kf_init, kf_predict_batch
from macsort.prompt_filter import PromptDetections
from motion_ref import Detection
from macsort.tracker import (
    AssocConfig,
    MacSort,
    Tracks,
    _mean_unit_length,
    adaptive_weights,
    build_cost_matrix,
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


def mu_det_by_definition(embeddings, theta_deg):
    """mu_det as the paper defines it: the mean cosine, clipped to [-1, 1],
    of the unit embedding rows to their normalised mean; cos(theta) for at
    most one row or a zero mean."""
    neutral = math.cos(math.radians(theta_deg))
    unit = unit_rows(np.atleast_2d(np.asarray(embeddings, dtype=float)))
    if len(unit) <= 1:
        return neutral
    mean = unit.mean(axis=0)
    norm = np.linalg.norm(mean)
    if norm < ZERO_NORM_EPS:
        return neutral
    return float(np.clip(unit @ (mean / norm), -1.0, 1.0).mean())


class TestMuDet:
    def test_equals_the_definition(self, rng):
        """_mean_unit_length takes the length of the mean unit row, which is
        the mean cosine to the mean's direction."""
        base = rng.standard_normal((7, 5))
        cases = [np.zeros((0, 5)), base[:1], base, base * 1e-3, np.repeat(base[:1], 5, axis=0)]
        for _ in range(200):
            embs = rng.standard_normal((int(rng.integers(2, 40)), int(rng.integers(1, 9))))
            embs[rng.random(len(embs)) < 0.2] = 0.0  # zero rows count in n
            embs[rng.random(len(embs)) < 0.2] = embs[0]  # repeated rows
            cases.append(embs)
            cases.append(np.concatenate([embs, -embs[: int(rng.integers(1, len(embs) + 1))]]))
        cases += [np.stack([E1, -E1]), np.stack([E1, -E1, E2]), np.zeros((3, 4)),
                  np.stack([E1, np.zeros(4)]), np.stack([E1, E1, -E1])]
        for embs in cases:
            for theta in (45.0, 70.0):
                assert _mean_unit_length(unit_rows(embs), theta) == pytest.approx(
                    mu_det_by_definition(embs, theta), abs=1e-12, rel=0)

    def test_identical_features(self):
        assert _mean_unit_length(unit_rows(np.stack([E1, E1, E1])), 45.0) == pytest.approx(1.0)

    def test_two_orthogonal(self):
        got = _mean_unit_length(unit_rows(np.stack([E1, E2])), 45.0)
        assert got == pytest.approx(0.70711, abs=1e-5)

    def test_single_detection_neutral(self):
        assert _mean_unit_length(unit_rows(E1[None, :]), 45.0) == pytest.approx(COS45)

    def test_empty_neutral(self):
        assert _mean_unit_length(unit_rows(np.zeros((0, 4))), 60.0) == pytest.approx(
            math.cos(math.radians(60.0))
        )

    def test_zero_mean_neutral(self):
        assert _mean_unit_length(unit_rows(np.stack([E1, -E1])), 45.0) == pytest.approx(COS45)

    def test_scale_invariant(self, rng):
        embs = rng.standard_normal((6, 8))
        base = _mean_unit_length(unit_rows(embs), 45.0)
        assert _mean_unit_length(unit_rows(embs * 37.5), 45.0) == pytest.approx(base, abs=1e-12)


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
        bd = cost_matrix(make_tracks([track]), table([d]), AssocConfig())
        assert bd.total[0, 0] == 0.0

    def test_homogeneous_frame_zeroes_appearance(self):
        d1, d2 = det(1, 50, 50), det(1, 200, 50)
        tracks = [make_track(1, d1), make_track(2, d2)]
        bd = cost_matrix(make_tracks(tracks), table([d1, d2]), AssocConfig())
        assert bd.mu_det == pytest.approx(1.0)
        assert bd.w_aaw == pytest.approx(0.0)
        assert bd.w_amc == pytest.approx(2.0)
        finite = np.isfinite(bd.total)
        iou_term, velocity_term, _ = dense_terms(bd)
        expected = 2.0 * iou_term + velocity_term
        assert bd.total[finite] == pytest.approx(expected[finite])

    def test_reduces_to_non_adaptive_at_crossover(self, rng):
        # detections built so mu_det == cos(theta) exactly is hard; instead
        # compare the frozen-weight form against weights fixed at 1
        d1, d2 = det(1, 50, 50, emb=E1), det(1, 60, 52, emb=E2)
        tracks = [make_track(1, det(0, 49, 50, emb=E1)),
                  make_track(2, det(0, 61, 51, emb=E2))]
        bd_fixed = cost_matrix(make_tracks(tracks), table([d1, d2]),
                               AssocConfig(fixed_w_aaw=1.0))
        iou_term, velocity_term, appearance_term = dense_terms(bd_fixed)
        manual = iou_term + velocity_term + appearance_term
        finite = np.isfinite(bd_fixed.total)
        assert bd_fixed.total[finite] == pytest.approx(manual[finite], abs=1e-12)

    def test_gate_blocks_distant_pairs(self):
        track = make_track(1, det(0, 0, 0))
        far = det(1, 500, 500)
        bd = cost_matrix(make_tracks([track]), table([far]), AssocConfig(iou_gate=0.1))
        assert np.isinf(bd.total[0, 0])

    def test_direction_term_needs_two_observations(self):
        d = det(1, 50, 50)
        track = make_track(1, d)  # single-entry history
        bd = cost_matrix(make_tracks([track]), table([det(1, 52, 50)]), AssocConfig())
        assert np.all(bd.velocity_term == 0.0)

    def test_direction_term_value(self):
        d = det(2, 70, 50)
        track = make_track(1, d, history_points=[(40, 50), (55, 50)])
        ahead = det(2, 70, 50)
        bd = cost_matrix(make_tracks([track]), table([ahead]), AssocConfig())
        assert dense_terms(bd)[1][0, 0] == pytest.approx(0.0)
        track2 = make_track(1, d, history_points=[(70, 20), (70, 35)])
        bd2 = cost_matrix(make_tracks([track2]), table([det(2, 70, 20)]),
                          AssocConfig(iou_gate=0.0))
        # heading reversal: cost = lambda * pi/pi = lambda
        assert dense_terms(bd2)[1][0, 0] == pytest.approx(0.2)

    def test_component_toggles(self):
        d1, d2 = det(1, 50, 50, emb=E1), det(1, 56, 50, emb=E2)
        track = make_track(1, det(0, 52, 50, emb=E1), history_points=[(40, 50), (46, 50)])
        off = AssocConfig(use_appearance=False, use_direction=False)
        bd = cost_matrix(make_tracks([track]), table([d1, d2]), off)
        assert np.all(bd.appearance_term == 0.0)
        assert np.all(bd.velocity_term == 0.0)

    def test_embedding_scale_leaves_costs_unchanged(self, rng):
        for k in (0.001, 0.5, 7.0, 4096.0):
            dets = [
                det(1, 50 + 30 * i, 50, emb=rng.standard_normal(4)) for i in range(3)
            ]
            tracks = make_tracks([make_track(i + 1, det(0, 50 + 30 * i, 49)) for i in range(3)])
            bd1 = cost_matrix(tracks, table(dets), AssocConfig())
            scaled = [
                Detection(d.frame, d.bbox, d.confidence, d.embedding * k) for d in dets
            ]
            bd2 = cost_matrix(tracks, table(scaled), AssocConfig())
            assert bd2.mu_det == pytest.approx(bd1.mu_det, abs=1e-12)
            assert bd2.w_aaw == pytest.approx(bd1.w_aaw, abs=1e-12)
            finite = np.isfinite(bd1.total)
            assert np.array_equal(finite, np.isfinite(bd2.total))
            assert bd2.total[finite] == pytest.approx(bd1.total[finite], abs=1e-12)


def _pairs(rows, cols):
    """linear_assignment's index arrays as a list of (row, col) pairs,
    after checking their dtype and that the rows ascend."""
    assert rows.dtype == cols.dtype == np.intp and rows.shape == cols.shape
    assert (np.diff(rows) > 0).all()
    return list(zip(rows.tolist(), cols.tolist()))


class TestLinearAssignment:
    def test_two_by_two_hand_case(self):
        assert _pairs(*assign(np.array([[1.0, 2.0], [2.0, 4.0]]))) == [(0, 1), (1, 0)]

    def test_all_infinite(self):
        rows, cols = assign(np.full((2, 3), np.inf))
        assert _pairs(rows, cols) == [] and rows.shape == (0,)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_empty(self, shape):
        rows, cols = assign(np.zeros(shape))
        assert _pairs(rows, cols) == [] and rows.shape == (0,)

    def test_diagonal_zeros(self):
        cost = np.ones((3, 3))
        np.fill_diagonal(cost, 0.0)
        assert _pairs(*assign(cost)) == [(0, 0), (1, 1), (2, 2)]

    def test_partial_gating(self):
        cost = np.array([[0.1, np.inf], [np.inf, np.inf]])
        assert _pairs(*assign(cost)) == [(0, 0)]

    def test_rectangular(self):
        assert _pairs(*assign(np.array([[5.0, 1.0, 3.0]]))) == [(0, 1)]
        assert _pairs(*assign(np.array([[5.0], [1.0], [3.0]]))) == [(1, 0)]

    def test_rows_ascend_on_tall_and_wide_gated_costs(self, rng):
        for _ in range(200):
            m, n = rng.integers(1, 9, 2)
            cost = np.where(rng.random((m, n)) < 0.4, np.inf, rng.uniform(0, 1, (m, n)))
            pairs = _pairs(*assign(cost))
            assert all(np.isfinite(cost[r, c]) for r, c in pairs)
            assert len({c for _, c in pairs}) == len(pairs)

    def test_matches_brute_force_minimum(self, rng):
        for n in range(2, 6):
            for _ in range(50):
                cost = rng.uniform(0, 1, (n, n))
                total = sum(cost[r, c] for r, c in _pairs(*assign(cost)))
                best = min(
                    sum(cost[i, p[i]] for i in range(n))
                    for p in itertools.permutations(range(n))
                )
                assert total == pytest.approx(best, abs=1e-12)


def _matchings(cost):
    """Every set of finite cells that shares no row and no column, as
    (count, total cost, pairs)."""
    cells = list(zip(*np.nonzero(np.isfinite(cost))))
    for k in range(len(cells) + 1):
        for chosen in itertools.combinations(cells, k):
            rows, cols = zip(*chosen) if chosen else ((), ())
            if len(set(rows)) == len(set(cols)) == k:
                yield k, sum(cost[r, c] for r, c in chosen), sorted(chosen)


class TestForcedAssignment:
    """When no row and no column holds two finite cells, the finite cells
    are the answer and the solver is not called; otherwise it is."""

    @pytest.fixture
    def solver_calls(self, monkeypatch):
        calls = []

        def counted(cost):
            calls.append(cost.shape)
            return linear_sum_assignment(cost)

        monkeypatch.setattr(macsort.tracker, "linear_sum_assignment", counted)
        return calls

    def test_forced_matching_equals_solver(self, rng, solver_calls):
        for _ in range(300):
            m, n = rng.integers(0, 8, 2)
            cost = np.full((m, n), np.inf)
            k = int(rng.integers(0, min(m, n) + 1))
            rows, cols = rng.permutation(m)[:k], rng.permutation(n)[:k]
            scale = 10.0 ** rng.integers(-3, 4)
            cost[rows, cols] = rng.uniform(-1, 1, k) * scale  # any sign
            got = _pairs(*assign(cost))
            assert got == _pairs(*metrics_ref.solver_assignment(cost))
            assert got == sorted(zip(rows.tolist(), cols.tolist()))
        assert solver_calls == []

    @pytest.mark.parametrize("cost", [np.zeros((0, 4)), np.zeros((4, 0)),
                                      np.full((3, 4), np.inf), np.array([[-5.0]])])
    def test_edge_shapes_skip_the_solver(self, cost, solver_calls):
        assert _pairs(*assign(cost)) == _pairs(*metrics_ref.solver_assignment(cost))
        assert solver_calls == []

    def test_two_finite_cells_in_a_line_go_to_the_solver(self, rng, solver_calls):
        for _ in range(100):
            m, n = rng.integers(1, 5, 2)
            cost = np.where(rng.random((m, n)) < 0.5, rng.uniform(-1, 1, (m, n)), np.inf)
            finite = np.isfinite(cost)
            if (finite.sum(axis=0) <= 1).all() and (finite.sum(axis=1) <= 1).all():
                continue
            before = len(solver_calls)
            rows, cols = assign(cost)
            assert len(solver_calls) == before + 1
            # the most finite cells, and among those the least total cost
            count, total, _ = min(_matchings(cost), key=lambda t: (-t[0], t[1]))
            assert len(rows) == count
            assert cost[rows, cols].sum() == pytest.approx(total, abs=1e-12)
        assert len(solver_calls) >= 50

    def test_pairs_out_of_row_major_order_go_to_the_solver(self, rng, solver_calls):
        """Pairs in another order than row-major reach the solver and give
        the dense solve. A forced check on neighbouring rows being unequal
        would return row 0 twice for rows [0, 1, 0]."""
        rows, cols, cost = np.array([0, 1, 0]), np.array([0, 1, 2]), np.array([0.5, 0.2, 0.1])
        dense = np.full((2, 3), np.inf)
        dense[rows, cols] = cost
        got = _pairs(*linear_assignment(rows, cols, cost, (2, 3)))
        assert got == _pairs(*metrics_ref.solver_assignment(dense)) == [(0, 2), (1, 1)]
        assert len(solver_calls) == 1
        for _ in range(200):
            m, n = rng.integers(1, 7, 2)
            rows, cols = np.nonzero(rng.random((m, n)) < 0.5)
            cost = rng.uniform(-1, 1, len(rows))
            dense = np.full((m, n), np.inf)
            dense[rows, cols] = cost
            order = rng.permutation(len(rows))
            before = len(solver_calls)
            got = _pairs(*linear_assignment(rows[order], cols[order], cost[order], (m, n)))
            assert got == _pairs(*metrics_ref.solver_assignment(dense))
            if (order != np.arange(len(rows))).any():
                assert len(solver_calls) == before + 1
        assert len(solver_calls) > 150


def _solver_cases():
    """Tall, wide and empty shapes, constant costs and integer-valued costs
    full of ties."""
    rng = np.random.default_rng(2024)
    cases = {
        "tall": rng.uniform(0, 1, (7, 3)),
        "wide": rng.uniform(0, 1, (3, 7)),
        "empty": np.zeros((0, 0)),
        "empty_rows": np.zeros((0, 4)),
        "empty_cols": np.zeros((4, 0)),
        "constant": np.full((5, 5), 2.5),
        "constant_wide": np.full((3, 6), -1.0),
        "constant_tall": np.full((6, 2), 0.0),
        "ties": rng.integers(0, 3, (6, 6)).astype(np.float64),
        "ties_tall": rng.integers(0, 3, (8, 5)).astype(np.float64),
        "ties_wide": rng.integers(0, 3, (5, 8)).astype(np.float64),
        "ties_int64": rng.integers(0, 2, (6, 6)),
        # every permutation of an outer sum costs the same
        "all_permutations_tie": np.add.outer(np.arange(5.0), np.arange(5.0)),
    }
    return [pytest.param(cost, id=name) for name, cost in cases.items()]


class TestSolver:
    """The tracker's solver is scipy's compiled one, loaded without running
    scipy.optimize's package init."""

    @pytest.mark.parametrize("cost", _solver_cases())
    def test_equals_public_scipy(self, cost):
        got = macsort.tracker.linear_sum_assignment(cost)
        want = linear_sum_assignment(cost)
        assert len(got) == len(want) == 2
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)

    def test_cli_imports_no_scipy_package(self):
        """A fresh interpreter that imports the CLI and solves a contested
        frame (two candidates in one row, so the solver runs) holds none of
        scipy.optimize, scipy.sparse or scipy.linalg."""
        code = "\n".join([
            "import sys",
            "import numpy as np",
            "import macsort.cli",
            "from macsort.tracker import linear_assignment",
            "rows, cols = linear_assignment(np.array([0, 0]), np.array([0, 1]),",
            "                               np.array([0.5, 0.2]), (1, 2))",
            "assert rows.tolist() == [0] and cols.tolist() == [1]",
            "print(*sorted({'scipy.optimize', 'scipy.sparse', 'scipy.linalg'} & set(sys.modules)))",
        ])
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []

    @pytest.mark.parametrize("scipy_dir", ["missing", "empty"])
    def test_missing_module_names_it_and_the_scipy_version(self, scipy_dir, tmp_path,
                                                            monkeypatch):
        spec = None
        if scipy_dir == "empty":
            spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
            spec.submodule_search_locations.append(str(tmp_path))
        monkeypatch.setattr(macsort.tracker, "find_spec", lambda name: spec)
        with pytest.raises(ImportError) as err:
            macsort.tracker._load_lsap()
        assert err.value.name == macsort.tracker.LSAP_MODULE == "scipy.optimize._lsap"
        assert str(err.value) == (
            "scipy.optimize._lsap, scipy's compiled assignment solver, was not found "
            f"(scipy {importlib.metadata.version('scipy')} is installed)")


class TestTrackerStep:
    def test_cold_start_creates_tracks(self):
        tracker = MacSort()
        out = tracker.step(table([det(1, 10, 10), det(1, 60, 10)]), 1)
        assert len(tracker.tracks) == 2
        assert (tracker.tracks.hits == 1).all()
        # young-sequence emission: matched tracks report from frame 1
        assert out.id.tolist() == [1, 2] and len(out) == 2
        # result rows as results.txt holds them: confidence 1, x/y/z -1
        assert out.frame.tolist() == [1, 1] and out.conf.tolist() == [1.0, 1.0]
        assert (out.xyz == -1.0).all()
        assert out.uvwh() == pytest.approx(np.array([[10, 10, 12, 12], [60, 10, 12, 12]]))

    def test_single_object_single_id(self):
        tracker = MacSort()
        seen = set()
        for t in range(1, 11):
            out = tracker.step(table([det(t, 10 + 2 * t, 20)]), t)
            seen.update(out.id.tolist())
        assert seen == {1}

    def test_probation_after_startup(self):
        # a track born once the sequence is mature must survive min_hits
        # frames before being reported
        tracker = MacSort(AssocConfig(min_hits=3))
        for t in range(1, 8):
            tracker.step(table([det(t, 10 + 2 * t, 20)]), t)
        out7 = tracker.step(table([det(8, 26, 20), det(8, 200, 100)]), 8)
        assert out7.id.tolist() == [1]
        out8 = tracker.step(table([det(9, 28, 20), det(9, 202, 100)]), 9)
        assert out8.id.tolist() == [1]
        out9 = tracker.step(table([det(10, 30, 20), det(10, 204, 100)]), 10)
        assert sorted(out9.id.tolist()) == [1, 2]

    def test_crossing_objects_keep_ids(self):
        tracker = MacSort()
        last = {}
        for t in range(1, 17):
            xa = 20 + 4.0 * (t - 1)
            xb = 80 - 4.0 * (t - 1)
            dets = [det(t, xa, 50, emb=E1), det(t, xb, 50.5, emb=E1)]
            out = tracker.step(table(dets), t)
            last.update(zip(out.id.tolist(), out.uvwh()[:, 0].tolist()))
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
        assert out.id.tolist() == [1]
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
                rows = tracker.step(table(dets), t)
                out.append((rows.id.tolist(), rows.ltwh.tolist()))
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
            cost_matrix(make_tracks([track]), table([bad]), AssocConfig())

    @pytest.mark.parametrize("use_appearance", [True, False])
    @pytest.mark.parametrize("u", [50, 300], ids=["matched", "born"])
    def test_step_rejects_a_frame_of_another_dimension(self, use_appearance, u):
        from macsort.errors import DimensionMismatch
        tracker = MacSort(AssocConfig(use_appearance=use_appearance))
        tracker.step(table([det(1, 50, 50, emb=E1)]), 1)
        with pytest.raises(DimensionMismatch):
            tracker.step(table([det(2, u, 50, emb=np.array([1.0, 0.0]))]), 2)


class TestTrackSequence:
    def test_equals_stepping_every_frame(self):
        # frame 3 has no rows: it is stepped with none, so the track
        # coasts through it and frame 4's match is a gap of 2
        per_frame = {
            1: [det(1, 50, 50)],
            2: [det(2, 52, 50)],
            4: [det(4, 56, 50)],
            5: [det(5, 58, 50), det(5, 300, 300)],
        }
        cfg = AssocConfig(min_hits=1)
        tracker = MacSort(cfg)
        expected = MotTable.concat(
            tracker.step(table(per_frame.get(frame, [])), frame) for frame in range(1, 6)
        )
        assert mot_rows(track_sequence(*columns(per_frame), cfg)) == mot_rows(expected)
        assert expected.frame.tolist() == [1, 2, 4, 5, 5]

    def test_empty_input(self):
        rows = track_sequence(np.zeros(0, dtype=np.int64), PromptDetections.empty())
        assert mot_rows(rows) == [] and rows.ltwh.shape == (0, 4) and rows.xyz.shape == (0, 3)


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
    iou = iou_dense(np.stack([xs[:, 0], xs[:, 1], w, h], axis=1), uvwh)
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
        mu_det = mu_det_by_definition(det_embs_unit, cfg.theta_deg)
        w_aaw, w_amc = adaptive_weights(mu_det, cfg.theta_deg)
    total = w_amc * (1.0 - iou) + velocity + w_aaw * appearance
    total[iou < cfg.iou_gate] = np.inf
    return total, (1.0 - iou, velocity, appearance)


def _oracle_frame(rng, m, n, grid, dim=4, spread=1):
    """m predicted tracks and n detections, as a Tracks table, its
    _RefTrack list and the Detection list. On the grid, centers are whole
    (below 10 * spread) and sizes powers of two, so box edges often touch
    exactly and boxes repeat; off it, boxes are continuous (centers below
    60 * spread). A third of the tracks have no previous center, and some
    embeddings are zero or repeated."""
    def boxes(k):
        if grid:
            return np.column_stack([rng.integers(0, 10 * spread, (k, 2)),
                                    rng.choice([1.0, 2.0, 4.0, 8.0], (k, 2))]).astype(float)
        return np.column_stack([rng.uniform(0, 60 * spread, (k, 2)), rng.uniform(2, 15, (k, 2))])

    def embeddings(k):
        embs = rng.standard_normal((k, dim))
        embs[rng.random(k) < 0.15] = 0.0
        repeat = rng.random(k) < 0.15
        embs[repeat] = embs[0]
        return embs

    trk_boxes, last, det_boxes = boxes(m), boxes(m), boxes(n)
    xs = np.column_stack([uvwh_to_xysr(trk_boxes), rng.normal(0, 1, (m, 3))])
    tracks = Tracks.born(1, xs, np.zeros((m, 4, 3)), last, unit_rows(embeddings(m)))
    tracks.prev_center = boxes(m)[:, :2]
    tracks.prev_center[rng.random(m) < 0.33] = np.nan
    ref_tracks = [
        _RefTrack(int(tid), ref.KalmanState(x, None), None, BBox(*box), app,
                  None if np.isnan(prev[0]) else tuple(prev))
        for tid, x, box, app, prev in zip(tracks.ids, tracks.x, tracks.last_box,
                                          tracks.appearance, tracks.prev_center)
    ]
    dets = [Detection(1, BBox(*box), 0.9, emb) for box, emb in zip(det_boxes, embeddings(n))]
    return tracks, ref_tracks, dets


# how far an appearance term or a total may be from the dense oracle's: the
# largest differences seen are 2.2e-16 and 1.1e-15, a few ulp
TERM_TOL = 1e-14


@pytest.mark.parametrize(
    "cfg",
    [
        AssocConfig(),
        AssocConfig(iou_gate=0.0),
        AssocConfig(iou_gate=1.0),
        AssocConfig(iou_gate=0.5),
        AssocConfig(use_direction=False),
        AssocConfig(use_appearance=False),
        AssocConfig(use_appearance=False, use_direction=False),
        AssocConfig(fixed_w_aaw=0.5),
        AssocConfig(fixed_w_aaw=2.0, lam=3.0),
    ],
    ids=lambda c: f"gate{c.iou_gate}-app{int(c.use_appearance)}-dir{int(c.use_direction)}"
    f"-w{c.fixed_w_aaw}-lam{c.lam}",
)
def test_gated_cost_equals_dense_oracle(cfg):
    """build_cost_matrix scores only the pairs whose boxes overlap; its
    total equals the dense oracle's, inf outside the gate, and so does the
    assignment. Its pairs are the total's finite cells in row-major order,
    and its IoU and direction terms the oracle's term matrices at those
    cells, bit for bit. The appearance term is a dot product per pair and
    mu_det the length of the mean unit row, where the oracle takes a dense
    matrix product and the mean cosine to the normalised mean: they round
    differently, so the appearance term and the total agree within
    TERM_TOL, and an assignment that differs must cost the same."""
    rng = np.random.default_rng(20261019)
    # (80, 70) is above the gate's sweep crossover: spread 1 clumps its
    # boxes, which leaves the dense compares, and spread 8 sweeps
    shapes = [(1, 1), (1, 9), (9, 1), (3, 4), (12, 12), (30, 20), (80, 70), (80, 70)]
    seen = {"touching": 0, "inside": 0, "disjoint_finite": 0}
    for case in range(128):
        m, n = shapes[case % len(shapes)]
        spread = 8 if case % len(shapes) == len(shapes) - 1 else 1
        tracks, ref_tracks, dets = _oracle_frame(rng, m, n, grid=case % 2 == 0, spread=spread)
        embs = unit_rows(np.stack([d.embedding for d in dets]))
        got = build_cost_matrix(tracks, table(dets), cfg, embs)
        want, want_terms = _ref_cost(ref_tracks, dets, cfg, embs)
        rows, cols = np.nonzero(np.isfinite(want))
        assert np.array_equal(got.rows, rows) and np.array_equal(got.cols, cols)
        np.testing.assert_allclose(got.total, want, rtol=0, atol=TERM_TOL)
        for term, want_term in zip((got.iou_term, got.velocity_term), want_terms):
            assert term.tobytes() == want_term[rows, cols].tobytes()
        np.testing.assert_allclose(got.appearance_term, want_terms[2][rows, cols], rtol=0,
                                   atol=TERM_TOL)
        got_pairs = linear_assignment(got.rows, got.cols, got.cost, got.shape)
        want_pairs = assign(want)
        if _pairs(*got_pairs) != _pairs(*want_pairs):
            assert len(got_pairs[0]) == len(want_pairs[0])
            assert want[got_pairs].sum() == pytest.approx(want[want_pairs].sum(), abs=TERM_TOL * m)
        trk_uvwh, det_uvwh = xysr_to_uvwh(tracks.x), table(dets).boxes
        iou = iou_matrix(trk_uvwh, det_uvwh)
        # boxes that touch: overlap exactly 0 along one axis, positive along the other
        (la, ta, ra, ba) = [e[:, None] for e in box_edges(trk_uvwh)]
        (lb, tb, rb, bb) = box_edges(det_uvwh)
        iw, ih = np.minimum(ra, rb) - np.maximum(la, lb), np.minimum(ba, bb) - np.maximum(ta, tb)
        seen["touching"] += int((((iw == 0.0) & (ih > 0.0)) | ((ih == 0.0) & (iw > 0.0))).sum())
        seen["inside"] += int(np.isfinite(got.total).sum())
        seen["disjoint_finite"] += int((np.isfinite(got.total) & (iou == 0.0)).sum())
    assert seen["touching"] and seen["inside"]
    assert bool(seen["disjoint_finite"]) == (cfg.iou_gate == 0.0)


def _reference_sequence(per_frame, cfg, counts):
    """(frame, id, box) rows of the Track-list tracker, which filters with
    the per-object motion API of motion_ref; ``counts`` tallies births,
    gapped matches and deaths."""
    tracks, next_id, rows = [], 1, []
    for seen, frame in enumerate(range(1, max(per_frame, default=0) + 1), start=1):
        detections = per_frame.get(frame, [])
        if tracks:
            xs, Ps = ref.kf_predict_batch(
                np.stack([t.state.x for t in tracks]), np.stack([t.state.P for t in tracks])
            )
            for i, trk in enumerate(tracks):
                trk.state = ref.KalmanState(xs[i], Ps[i])
                trk.time_since_update += 1
        embs = unit_rows(np.stack([d.embedding for d in detections]) if detections else np.zeros((0, 1)))
        matches, unmatched = [], list(range(len(detections)))
        if tracks and detections:
            rows_, cols_ = assign(_ref_cost(tracks, detections, cfg, embs)[0])
            matches = list(zip(rows_.tolist(), cols_.tolist()))
            unmatched = sorted(set(unmatched) - set(cols_.tolist()))
        fresh = [(m, n) for m, n in matches if tracks[m].time_since_update == 1]
        if fresh:
            xs, Ps = ref.kf_update_batch(
                np.stack([tracks[m].state.x for m, _ in fresh]),
                np.stack([tracks[m].state.P for m, _ in fresh]),
                np.array([ref.bbox_to_xysr(detections[n].bbox) for _, n in fresh]),
            )
            for i, (m, _) in enumerate(fresh):
                tracks[m].state = ref.KalmanState(xs[i], Ps[i])
        for m, n in matches:
            trk = tracks[m]
            if trk.time_since_update > 1:
                counts["gapped"] += 1
                trk.state = ref.ocr_reupdate(
                    trk.checkpoint, trk.last_box, detections[n], trk.time_since_update
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
            state = ref.kf_init(d)
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
        got = track_sequence(*columns(per_frame), cfg)
        assert got.frame.tolist() == [f for f, _, _ in expected]
        assert got.id.tolist() == [tid for _, tid, _ in expected]
        # the block filter sums in another order than the 7x7 oracle
        want = np.array([(b.u, b.v, b.w, b.h) for _, _, b in expected]).reshape(-1, 4)
        np.testing.assert_allclose(got.uvwh(), want, rtol=1e-12, atol=0)
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
    """track_sequence skips frames without rows only while the tracker is
    idle, where a step would change nothing."""
    rng = np.random.default_rng(99)
    step, stepped = MacSort.step, []
    monkeypatch.setattr(MacSort, "step", lambda self, dets, frame: (
        stepped.append(frame), step(self, dets, frame))[1])
    skipped = 0
    empty = PromptDetections.empty()
    for _ in range(20):
        per_frame = _spread(rng, _random_stream(rng))
        frame_sets, tracker = tables(per_frame), MacSort(cfg)
        last = max((frame for frame, dets in per_frame.items() if dets), default=0)
        expected = MotTable.concat(step(tracker, frame_sets.get(frame, empty), frame)
                                   for frame in range(1, last + 1))
        stepped.clear()
        assert mot_rows(track_sequence(*columns(per_frame), cfg)) == mot_rows(expected)
        skipped += last - len(stepped)
    assert skipped > 0


def test_track_builds_no_bbox(monkeypatch, tmp_path):
    """Births, gapped matches, deaths and the result rows run on arrays:
    neither track_sequence nor ``macsort track`` builds a BBox."""
    cfg, per_frame = AssocConfig(max_age=3), _random_stream(np.random.default_rng(7), 60)
    counts = {"births": 0, "gapped": 0, "deaths": 0}
    _reference_sequence(per_frame, cfg, counts)
    assert all(counts.values()), counts
    dets = [d for frame in sorted(per_frame) for d in per_frame[frame]]
    detections = MotTable.from_uvwh([d.frame for d in dets], -1, [d.bbox for d in dets],
                                     [d.confidence for d in dets])
    write_detections(tmp_path / "general.txt", tmp_path / "general.emb", detections,
                     np.stack([d.embedding for d in dets]))
    frame, detections = columns(per_frame)
    init, built = BBox.__post_init__, []
    monkeypatch.setattr(BBox, "__post_init__", lambda box: (built.append(box), init(box))[1])
    rows = track_sequence(frame, detections, cfg)
    assert main(["track", str(tmp_path), "--max-age", "3"]) == 0
    assert len(rows) > 0 and len(read_mot_lines(tmp_path / "results.txt")) > 0
    assert built == []
