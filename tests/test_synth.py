import math
import re
import string
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import spearmanr

from macsort.errors import SpecError
from macsort.geometry import BBox
from macsort.synth import (
    MOTION_MODELS,
    ScenarioSpec,
    SplitMix64,
    _box_muller,
    _u64_at,
    _uniform_at,
    _unit_vectors,
    _unit_vectors_at,
    generate,
    parse_spec,
    read_spec,
    write_spec,
)
from macsort.tracker import compute_mu_det
from motion_ref import Detection


class TestSplitMix64:
    def test_known_stream_is_stable(self):
        rng = SplitMix64(1234)
        first = [rng.next_u64() for _ in range(3)]
        rng2 = SplitMix64(1234)
        assert [rng2.next_u64() for _ in range(3)] == first

    def test_uniform_range(self):
        rng = SplitMix64(7)
        vals = [rng.uniform() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in vals)
        assert 0.4 < np.mean(vals) < 0.6

    def test_normal_moments(self):
        rng = SplitMix64(7)
        vals = np.array([rng.normal() for _ in range(4000)])
        assert abs(vals.mean()) < 0.1
        assert abs(vals.std() - 1.0) < 0.1

    def test_unit_vectors(self):
        rng = SplitMix64(7)
        for _ in range(20):
            v = rng.unit_vector(16)
            assert np.linalg.norm(v) == pytest.approx(1.0)


class TestGenerate:
    def test_noiseless_identity(self):
        spec = ScenarioSpec(n_objects=3, n_frames=10)
        scenario = generate(spec)
        for frame, dets in scenario.frame_sets().items():
            _, gt_boxes = scenario.gt.rows_at(frame)
            assert np.array_equal(dets.boxes, gt_boxes)

    def test_full_homogeneity_gives_mu_one(self):
        spec = ScenarioSpec(appearance_homogeneity=1.0, n_objects=5, n_frames=3)
        scenario = generate(spec)
        assert compute_mu_det(scenario.frame_sets()[1].features, 45.0) == pytest.approx(1.0)

    def test_same_seed_identical(self):
        spec = ScenarioSpec(seed=99, detection_noise_px=1.0, miss_rate=0.1, clutter_rate=0.1)
        a, b = generate(spec), generate(spec)
        for col in ("det_frame", "det_boxes", "det_conf", "embeddings"):
            assert np.array_equal(getattr(a, col), getattr(b, col))

    def test_different_seed_differs(self):
        base = dict(detection_noise_px=1.0)
        a = generate(ScenarioSpec(seed=1, **base))
        b = generate(ScenarioSpec(seed=2, **base))
        n = min(len(a.det_boxes), len(b.det_boxes))
        assert (a.det_boxes[:n] != b.det_boxes[:n]).any()

    def test_occlusion_window_drops_detections(self):
        spec = ScenarioSpec(n_objects=2, n_frames=10, occlusion_windows=[(1, 4, 6)])
        scenario = generate(spec)
        sets = scenario.frame_sets()
        for frame in (4, 5, 6):
            assert len(sets[frame]) == 1
            assert len(scenario.gt.at(frame)) == 2  # gt continues through
        assert len(sets[3]) == 2
        assert len(sets[7]) == 2

    def test_miss_rate_thins_detections(self):
        spec = ScenarioSpec(n_objects=4, n_frames=50, miss_rate=0.4)
        scenario = generate(spec)
        total = len(scenario.det_frame)
        assert 60 <= total <= 160  # ~120 expected of 200

    def test_clutter_adds_boxes(self):
        spec = ScenarioSpec(n_objects=4, n_frames=50, clutter_rate=0.5)
        scenario = generate(spec)
        assert len(scenario.det_frame) > 200

    def test_crossing_passes_common_point(self):
        spec = ScenarioSpec(motion="crossing", n_objects=4, n_frames=60)
        scenario = generate(spec)
        center = (spec.field_w / 2, spec.field_h / 2)
        for obj in range(1, 5):
            dists = [
                np.hypot(box.u - center[0], box.v - center[1])
                for f in range(1, 61)
                for oid, box in scenario.gt.at(f)
                if oid == obj
            ]
            assert min(dists) < 1e-9  # each object hits the center exactly

    def test_embedding_swap_variant(self):
        base = ScenarioSpec(
            motion="crossing", n_objects=2, n_frames=20, appearance_homogeneity=0.0
        )
        swapped = ScenarioSpec(
            motion="crossing", n_objects=2, n_frames=20,
            appearance_homogeneity=0.0, embedding_swap_frame=10,
        )
        a, b = generate(base), generate(swapped)
        # geometry identical, embeddings exchanged from the swap frame on
        sa, sb = a.frame_sets(), b.frame_sets()
        for f in range(1, 20):
            assert np.array_equal(sa[f].boxes, sb[f].boxes)
        before = sa[9].features
        after_base, after_swap = sa[10].features, sb[10].features
        assert np.array_equal(after_base[0], after_swap[1])
        assert np.array_equal(after_base[1], after_swap[0])
        assert np.array_equal(before[0], after_base[0])

    def test_homogeneity_monotone_in_mu_det(self):
        levels = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
        hs, mus = [], []
        for seed in range(20):
            for h in levels:
                spec = ScenarioSpec(
                    seed=seed, n_objects=6, n_frames=1,
                    appearance_homogeneity=h, embedding_dim=16,
                )
                scenario = generate(spec)
                hs.append(h)
                mus.append(compute_mu_det(scenario.frame_sets()[1].features, 45.0))
        rho = spearmanr(hs, mus).statistic
        assert rho > 0.95


class TestSpecValidation:
    def test_window_out_of_range(self):
        with pytest.raises(SpecError):
            generate(ScenarioSpec(n_objects=2, occlusion_windows=[(3, 1, 5)]))

    def test_window_reversed(self):
        with pytest.raises(SpecError):
            generate(ScenarioSpec(occlusion_windows=[(1, 9, 4)]))

    def test_window_past_end(self):
        with pytest.raises(SpecError):
            generate(ScenarioSpec(n_frames=10, occlusion_windows=[(1, 5, 20)]))

    def test_bad_motion(self):
        with pytest.raises(SpecError):
            generate(ScenarioSpec(motion="brownian"))

    def test_bad_rate(self):
        with pytest.raises(SpecError):
            generate(ScenarioSpec(miss_rate=1.5))


class TestSpecFile:
    def test_round_trip(self, tmp_path):
        spec = ScenarioSpec(
            seed=7, n_objects=3, n_frames=25, motion="crossing",
            appearance_homogeneity=0.5, detection_noise_px=0.75,
            miss_rate=0.05, clutter_rate=0.1,
            occlusion_windows=[(1, 5, 9), (2, 11, 12)],
            embedding_dim=8, embedding_swap_frame=13,
        )
        path = tmp_path / "case.spec"
        write_spec(spec, path)
        assert read_spec(path) == spec

    def test_defaults_from_empty(self):
        assert parse_spec("") == ScenarioSpec()

    def test_unknown_key(self):
        with pytest.raises(SpecError):
            parse_spec("warp_speed=9\n")

    def test_bad_number(self):
        with pytest.raises(SpecError):
            parse_spec("n_objects=few\n")

    def test_comments_and_blanks(self):
        spec = parse_spec("# comment\n\nseed=5\nmotion=circular\n")
        assert spec.seed == 5 and spec.motion == "circular"

    def test_duplicate_key(self):
        with pytest.raises(SpecError):
            parse_spec("seed=1\nseed=2\n")

    def test_empty_swap_frame_is_none(self):
        assert parse_spec("embedding_swap_frame=\n").embedding_swap_frame is None

    def test_empty_int_rejected(self):
        with pytest.raises(SpecError, match="n_objects"):
            parse_spec("n_objects=\n")

    def test_errors_name_file_and_line(self, tmp_path):
        path = tmp_path / "case.spec"
        path.write_text("seed=1\n\nwarp=2\n")
        with pytest.raises(SpecError, match=f"^{re.escape(str(path))}:3: unknown key 'warp'$"):
            read_spec(path)

    @pytest.mark.parametrize("windows", ["1:2", "1:2:3:4", "1:a:3", "1:2:3;x"])
    def test_bad_window_names_key(self, windows):
        with pytest.raises(SpecError, match="^occlusion_windows: bad occlusion window"):
            parse_spec(f"occlusion_windows={windows}\n")

    def test_tiny_box_size_rejected(self):
        # widths are written at two decimals; 0.004 would print as 0.00
        with pytest.raises(SpecError):
            parse_spec("box_size_px=0.004\n")
        assert parse_spec("box_size_px=0.006\n").box_size_px == 0.006

    @pytest.mark.parametrize("motion", MOTION_MODELS)
    def test_overflowing_positions_rejected(self, motion):
        with pytest.raises(SpecError, match="overflow"):
            generate(ScenarioSpec(motion=motion, speed_px=1e308, n_frames=400))


_SPEC_KEYS = [f.name for f in fields(ScenarioSpec)]
_SPEC_JUNK = ["nan", "inf", "-1", "0", "1", "0.5", "2", "1e309", "abc", "", "linear",
              "circular", "1:2:3", "1:1:1;2:3:4", "1:2", "0:1:1", "1:x:2", ";", "true"]


def _spec_lines():
    value = st.one_of(st.sampled_from(_SPEC_JUNK), st.text(string.printable.strip(), max_size=6))
    key = st.one_of(st.sampled_from(_SPEC_KEYS), st.sampled_from(["warp", "Seed", "", " seed"]))
    pair = st.builds(lambda k, v: f"{k}={v}", key, value)
    return st.lists(st.one_of(pair, st.sampled_from(["# note", "junk", "=1", ""])), max_size=8)


class TestSpecFuzz:
    @settings(max_examples=300, deadline=None)
    @given(_spec_lines())
    @example(["occlusion_windows=1:x:2"])
    @example(["n_objects=2", "n_objects=3"])
    def test_spec_or_spec_error(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "case.spec"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            try:
                spec = read_spec(path)
            except SpecError:
                return
        assert isinstance(spec, ScenarioSpec)
        for f in fields(spec):
            value = getattr(spec, f.name)
            if isinstance(value, float):
                assert math.isfinite(value), f.name


# -- the per-draw generator that drawing by stream position replaced, kept
# as a test oracle: one SplitMix64 call per draw, one object per row --


def _ref_trajectory(spec, obj, frame):
    cx, cy = spec.field_w / 2.0, spec.field_h / 2.0
    if spec.motion == "linear":
        y = spec.field_h * (obj + 1) / (spec.n_objects + 1)
        x = spec.field_w * 0.15 + spec.speed_px * (frame - 1)
        return x, y
    if spec.motion == "crossing":
        phi = math.pi * obj / spec.n_objects
        t_cross = spec.n_frames // 2 + (obj - spec.n_objects // 2) * spec.crossing_stagger
        d = spec.speed_px * (frame - t_cross)
        return cx + d * math.cos(phi), cy + d * math.sin(phi)
    radius = min(spec.field_w, spec.field_h) / 4.0 + obj * spec.box_size_px
    omega = spec.speed_px / radius
    phase = 2.0 * math.pi * obj / spec.n_objects
    angle = omega * (frame - 1) + phase
    return cx + radius * math.cos(angle), cy + radius * math.sin(angle)


def _ref_generate(spec):
    """(gt rows (frame, id, BBox), detections per frame) drawn one call at a time."""
    spec.validate()
    rng = SplitMix64(spec.seed)
    shared = rng.unit_vector(spec.embedding_dim)
    bases = np.stack([rng.unit_vector(spec.embedding_dim) for _ in range(spec.n_objects)])
    h = spec.appearance_homogeneity
    mixed = h * shared[None, :] + (1.0 - h) * bases
    norms = np.linalg.norm(mixed, axis=1, keepdims=True)
    degenerate = norms[:, 0] < 1e-12
    mixed[degenerate] = shared
    norms[degenerate] = 1.0
    embeddings = mixed / norms
    occluded = {(o, f) for o, start, end in spec.occlusion_windows for f in range(start, end + 1)}
    gt, detections, size = [], {}, spec.box_size_px
    for frame in range(1, spec.n_frames + 1):
        dets = []
        for obj in range(spec.n_objects):
            x, y = _ref_trajectory(spec, obj, frame)
            gt.append((frame, obj + 1, BBox(x, y, size, size)))
            noise_u, noise_v = rng.normal(), rng.normal()
            miss_u, conf_u = rng.uniform(), rng.uniform()
            if (obj + 1, frame) in occluded or (spec.miss_rate > 0.0 and miss_u < spec.miss_rate):
                continue
            emb_obj = obj
            if spec.embedding_swap_frame is not None and frame >= spec.embedding_swap_frame:
                emb_obj = spec.n_objects - 1 - obj
            box = BBox(x + spec.detection_noise_px * noise_u,
                       y + spec.detection_noise_px * noise_v, size, size)
            dets.append(Detection(frame, box, 0.55 + 0.4 * conf_u, embeddings[emb_obj].copy()))
        for _ in range(spec.n_objects):
            clutter_u = rng.uniform()
            if spec.clutter_rate > 0.0 and clutter_u < spec.clutter_rate:
                cx = size / 2.0 + rng.uniform() * (spec.field_w - size)
                cy = size / 2.0 + rng.uniform() * (spec.field_h - size)
                conf = 0.25 + 0.35 * rng.uniform()
                dets.append(Detection(frame, BBox(cx, cy, size, size), conf,
                                      rng.unit_vector(spec.embedding_dim)))
        detections[frame] = dets
    return gt, detections


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


SEEDS = [0, 2**63, 2**64 + 7]


class TestStreamByIndex:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_draws_equal_the_scalar_stream(self, seed):
        n = 3000
        rng = SplitMix64(seed)
        u64 = [rng.next_u64() for _ in range(n)]
        rng = SplitMix64(seed)
        uniforms = [rng.uniform() for _ in range(n)]
        rng = SplitMix64(seed)
        normals = [rng.normal() for _ in range(n // 2)]
        idx = np.sort(np.random.default_rng(seed % 97).choice(n // 2, 200, replace=False))
        pos = idx.astype(np.uint64)
        assert _u64_at(seed, pos).tolist() == [u64[i] for i in idx]
        assert [_u64_at(seed, int(i)) for i in idx[:20]] == [u64[i] for i in idx[:20]]
        assert _bits(_uniform_at(seed, pos)) == _bits([uniforms[i] for i in idx])
        got = _box_muller(_uniform_at(seed, 2 * pos), _uniform_at(seed, 2 * pos + 1))
        assert _bits(got) == _bits([normals[i] for i in idx])

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("dim", [1, 3, 16, 128])
    def test_unit_vectors_equal_the_scalar_stream(self, seed, dim):
        starts = [0, 7, 2 * dim + 1, 5000]
        got = _unit_vectors_at(seed, starts, dim)
        for row, start in zip(got, starts):
            rng = SplitMix64(seed)
            for _ in range(start):
                rng.next_u64()
            assert _bits(row) == _bits(rng.unit_vector(dim))

    def test_zero_uniform_is_clamped(self):
        # invert splitmix64's output function to find the seed whose first
        # draw is 0: Box-Muller then takes log(2**-53), not log(0)
        def unxorshift(z, k):
            return z ^ (z >> k) ^ (z >> 2 * k) ^ (z >> 3 * k)

        z = 0
        for mult, k in ((0x94D049BB133111EB, 31), (0xBF58476D1CE4E5B9, 27)):
            z = unxorshift(z, k) * pow(mult, -1, 2**64) % 2**64
        seed = (unxorshift(z, 30) - 0x9E3779B97F4A7C15) % 2**64
        assert _u64_at(seed, 0) == 0
        expected = SplitMix64(seed).normal()
        got = _box_muller(_uniform_at(seed, np.zeros(1, np.uint64)), _uniform_at(seed, np.ones(1, np.uint64)))
        assert _bits(got) == _bits([expected]) and math.isfinite(expected)

    def test_zero_rows_become_e0(self):
        got = _unit_vectors(np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0], [1e-13, 0.0, 0.0]]))
        assert got.tolist() == [[1.0, 0.0, 0.0], [0.6, 0.8, 0.0], [1.0, 0.0, 0.0]]


@st.composite
def scenario_specs(draw):
    n_objects, n_frames = draw(st.integers(1, 5)), draw(st.integers(1, 12))
    windows = draw(st.lists(st.tuples(st.integers(1, n_objects), st.integers(1, n_frames),
                                      st.integers(0, 4)), max_size=2))
    return ScenarioSpec(
        seed=draw(st.sampled_from(SEEDS) | st.integers(0, 2**64 + 10)),
        n_objects=n_objects, n_frames=n_frames, motion=draw(st.sampled_from(MOTION_MODELS)),
        appearance_homogeneity=draw(st.sampled_from([0.0, 0.5, 1.0])),
        detection_noise_px=draw(st.sampled_from([0.0, 1.0, 2.5])),
        miss_rate=draw(st.sampled_from([0.0, 0.3, 1.0])),
        clutter_rate=draw(st.sampled_from([0.0, 0.4, 1.0])),
        occlusion_windows=[(o, s, min(s + k, n_frames)) for o, s, k in windows],
        embedding_dim=draw(st.sampled_from([1, 2, 5, 16])),
        speed_px=draw(st.sampled_from([0.0, 2.0, 3.5])),
        box_size_px=draw(st.sampled_from([24.0, 7.5])),
        crossing_stagger=draw(st.integers(0, 4)),
        embedding_swap_frame=draw(st.none() | st.integers(-1, n_frames + 1)),
    )


class TestColumnsEqualPerDrawOracle:
    @settings(max_examples=150, deadline=None)
    @given(spec=scenario_specs())
    @example(spec=ScenarioSpec(seed=0, motion="linear", clutter_rate=1.0, embedding_dim=1,
                               appearance_homogeneity=0.0, n_frames=6))
    @example(spec=ScenarioSpec(seed=2**63, motion="crossing", miss_rate=0.3, n_frames=10,
                               occlusion_windows=[(1, 2, 5), (3, 4, 4)], embedding_swap_frame=4,
                               appearance_homogeneity=1.0, detection_noise_px=1.0))
    @example(spec=ScenarioSpec(seed=2**64 + 7, motion="circular", clutter_rate=0.0,
                               detection_noise_px=1.0, n_frames=8, embedding_dim=3))
    @example(spec=ScenarioSpec(seed=5, motion="circular", clutter_rate=0.3, miss_rate=1.0,
                               n_frames=5, appearance_homogeneity=0.5))
    def test_bit_equal_columns(self, spec):
        gt, detections = _ref_generate(spec)
        got = generate(spec)
        assert got.gt_frame.tolist() == [f for f, _, _ in gt]
        assert got.gt_id.tolist() == [i for _, i, _ in gt]
        assert _bits(got.gt_boxes) == _bits([[b.u, b.v, b.w, b.h] for _, _, b in gt])
        dets = [d for f in sorted(detections) for d in detections[f]]
        assert got.det_frame.tolist() == [d.frame for d in dets]
        assert _bits(got.det_boxes) == _bits(
            [[d.bbox.u, d.bbox.v, d.bbox.w, d.bbox.h] for d in dets])
        assert _bits(got.det_conf) == _bits([d.confidence for d in dets])
        assert got.embeddings.shape == (len(dets), spec.embedding_dim)
        assert _bits(got.embeddings) == _bits([d.embedding for d in dets] or np.zeros((0, 1)))
        # the object views
        ref_gt = {}
        for frame, obj_id, box in gt:
            ref_gt.setdefault(frame, []).append((obj_id, box))
        assert {f: got.gt.at(f) for f in got.gt.frame_rows} == ref_gt
        tables = got.frame_sets()
        assert sorted(tables) == list(range(1, spec.n_frames + 1))
        for frame, ref in detections.items():
            table = tables[frame]
            assert _bits(table.boxes) == _bits([[d.bbox.u, d.bbox.v, d.bbox.w, d.bbox.h]
                                                for d in ref] or np.zeros((0, 4)))
            assert _bits(table.scores) == _bits([d.confidence for d in ref])
            assert _bits(table.features) == _bits(
                [d.embedding for d in ref] or np.zeros((0, spec.embedding_dim)))
