"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with `pytest tests/test_acceptance.py -v -s`). Tolerances
are pinned in the assertions; a failing criterion shows up as a normal
pytest failure for that test.
"""

import itertools
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from macsort.captions import GmotAnnotation, parse_caption
from macsort.cli import main
from macsort.geometry import BBox, Detection
from macsort.metrics import TrackSequence, evaluate
from macsort.prompt_filter import (
    MemoryBank,
    PromptDetections,
    TpodConfig,
    tpod_frame,
)
from macsort.synth import ScenarioSpec, generate, write_spec
from macsort.tracker import (
    AssocConfig,
    MacSort,
    Track,
    adaptive_weights,
    build_cost_matrix,
    compute_mu_det,
    linear_assignment,
)
from macsort.motion import kf_init, kf_predict


def _passed(n, text):
    print(f"\n[acceptance] criterion {n}: PASS - {text}")


def _random_tracks_and_dets(rng, m, n, dim=8, positive_embs=False):
    tracks = []
    for i in range(m):
        d = Detection(
            0,
            BBox(*rng.uniform(20, 200, 2), *rng.uniform(8, 20, 2)),
            0.9,
            rng.standard_normal(dim),
        )
        state = kf_predict(kf_init(d))
        emb = np.asarray(d.embedding)
        tracks.append(
            Track(
                id=i + 1,
                state=state,
                checkpoint=state.copy(),
                last_box=d.bbox,
                appearance=emb / np.linalg.norm(emb),
            )
        )
    dets = []
    for _ in range(n):
        emb = rng.standard_normal(dim)
        if positive_embs:
            emb = np.abs(emb) + 0.05
        dets.append(
            Detection(
                1,
                BBox(*rng.uniform(20, 200, 2), *rng.uniform(8, 20, 2)),
                0.9,
                emb,
            )
        )
    return tracks, dets


def test_criterion_1_assignment_oracle():
    """linear_assignment equals the exhaustive-permutation minimum on 1000
    random matrices per size 2x2..6x6, exactly, within 10 s total."""
    rng = np.random.default_rng(202401)
    start = time.perf_counter()
    for n in range(2, 7):
        perms = np.array(list(itertools.permutations(range(n))))
        cols = np.arange(n)
        for _ in range(1000):
            cost = rng.uniform(0.0, 1.0, (n, n))
            matches, _, _ = linear_assignment(cost)
            total = sum(cost[r, c] for r, c in matches)
            brute = cost[cols, perms].sum(axis=1).min()
            assert total == brute
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed(1, f"5000 exact oracle matches in {elapsed:.2f}s")


def test_criterion_2_adaptive_weight_identities():
    """w_aaw + w_amc == 2 exactly and w_aaw(cos theta) == 1 within 1e-12
    over 10,000 random (mu_det, theta) pairs."""
    rng = np.random.default_rng(202402)
    for _ in range(10_000):
        mu = float(rng.uniform(-1.0, 1.0))
        theta = float(rng.uniform(0.5, 90.0))
        w_aaw, w_amc = adaptive_weights(mu, theta)
        assert w_aaw + w_amc == 2.0
        at_crossover, _ = adaptive_weights(math.cos(math.radians(theta)), theta)
        assert abs(at_crossover - 1.0) <= 1e-12
    for mu, theta in [(-1.0, 90.0), (1.0, 0.5), (0.0, 45.0)]:
        w_aaw, w_amc = adaptive_weights(mu, theta)
        assert w_aaw + w_amc == 2.0
    _passed(2, "weight identities exact over 10k pairs")


def test_criterion_3_cost_matrix_reduction():
    """At mu_det = cos(theta) the cost matrix equals the non-adaptive
    (unit weights) matrix entrywise within 1e-12, over 100 random sets."""
    rng = np.random.default_rng(202403)
    checked = 0
    while checked < 100:
        m, n = int(rng.integers(1, 6)), int(rng.integers(2, 7))
        tracks, dets = _random_tracks_and_dets(rng, m, n, positive_embs=True)
        embs = np.stack([d.embedding for d in dets])
        mu = compute_mu_det(embs, 45.0)
        if not (0.0 < mu < 0.999):
            continue
        theta = math.degrees(math.acos(mu))
        adaptive = build_cost_matrix(tracks, dets, AssocConfig(theta_deg=theta))
        fixed = build_cost_matrix(
            tracks, dets, AssocConfig(theta_deg=theta, fixed_w_aaw=1.0)
        )
        assert np.array_equal(np.isfinite(adaptive.total), np.isfinite(fixed.total))
        finite = np.isfinite(adaptive.total)
        assert np.all(np.abs(adaptive.total[finite] - fixed.total[finite]) <= 1e-12)
        checked += 1
    _passed(3, "adaptive cost collapses to unit weights at the crossover")


def test_criterion_4_embedding_scale_invariance():
    """Scaling all detection embeddings by k > 0 leaves the cost matrix
    (within 1e-12) and the assignment (bit-equal) unchanged, 100 cases."""
    rng = np.random.default_rng(202404)
    for case in range(100):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 7))
        tracks, dets = _random_tracks_and_dets(rng, m, n)
        k = float(rng.choice([1e-3, 0.37, 7.0, 4096.0, rng.uniform(0.01, 100)]))
        scaled = [
            Detection(d.frame, d.bbox, d.confidence, d.embedding * k) for d in dets
        ]
        a = build_cost_matrix(tracks, dets, AssocConfig())
        b = build_cost_matrix(tracks, scaled, AssocConfig())
        assert abs(a.mu_det - b.mu_det) <= 1e-12
        assert abs(a.w_aaw - b.w_aaw) <= 1e-12
        finite = np.isfinite(a.total)
        assert np.array_equal(finite, np.isfinite(b.total))
        assert np.all(np.abs(a.total[finite] - b.total[finite]) <= 1e-12)
        assert linear_assignment(a.total) == linear_assignment(b.total)
    _passed(4, "cost and assignment invariant to embedding scale")


def test_criterion_5_lsm_partition_and_bounds():
    """Filtering partitions every frame's general set; memory bands never
    exceed kappa1=9 / kappa2=3; the hand-built rescue scenario rescues."""
    rng = np.random.default_rng(202405)
    cfg = TpodConfig()
    for run in range(50):
        memory = MemoryBank(kappa1=9, kappa2=3)
        for frame in range(100):
            n = int(rng.integers(0, 7))
            general = PromptDetections(
                [BBox(u, v, 10, 10) for u, v in rng.uniform(0, 150, (n, 2))],
                rng.standard_normal((n, 4)),
                rng.uniform(0.2, 1.0, n),
            ) if n else PromptDetections.empty(4)
            k_i, k_e = rng.integers(0, 3, 2)
            include = PromptDetections(
                [BBox(u, v, 10, 10) for u, v in rng.uniform(0, 150, (int(k_i), 2))],
                rng.standard_normal((int(k_i), 4)),
                rng.uniform(0.2, 1.0, int(k_i)),
            ) if k_i else PromptDetections.empty(4)
            exclude = PromptDetections(
                [BBox(u, v, 10, 10) for u, v in rng.uniform(0, 150, (int(k_e), 2))],
                rng.standard_normal((int(k_e), 4)),
                rng.uniform(0.2, 1.0, int(k_e)),
            ) if k_e else PromptDetections.empty(4)
            res = tpod_frame(general, include, exclude, memory, frame, cfg)
            s = res.stats
            assert len(res.final_tps) + s.n_dropped + s.n_rejected == s.n_general
            assert s.n_ie_tps + s.n_rescued == len(res.final_tps)
            assert len(memory.long) <= 9
            assert len(memory.short) <= 3

    # rescue scenario: feature-matching unclassified box is recovered
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0, 0.0])
    memory = MemoryBank()
    for frame in (1, 2):
        seen = PromptDetections(
            [BBox(0, 0, 10, 10), BBox(40, 0, 10, 10)],
            np.stack([e1, e1]),
            np.array([0.9, 0.8]),
        )
        tpod_frame(seen, seen, PromptDetections.empty(4), memory, frame, cfg)
    general = PromptDetections(
        [BBox(0, 0, 10, 10), BBox(300, 0, 10, 10)],
        np.stack([e1, e2]),
        np.array([0.9, 0.9]),
    )
    res = tpod_frame(
        general, PromptDetections.empty(4), PromptDetections.empty(4), memory, 3, cfg
    )
    assert [b.u for b in res.final_tps.boxes] == [0]
    assert res.stats.n_rescued == 1 and res.stats.n_rejected == 1
    _passed(5, "partition, memory bounds, and rescue all hold")


def test_criterion_6_metrics_oracle():
    """The three hand-computed micro-sequences reproduce exactly and
    hota = sqrt(deta * assa) within 1e-9 on every report."""
    reports = []

    gt = TrackSequence()
    for t in range(1, 11):
        gt.add(t, 7, BBox(2.0 * t, 0, 10, 10))
    perfect = evaluate(gt, gt)
    reports.append(perfect)
    assert perfect.mota == 1.0 and perfect.idf1 == 1.0 and perfect.hota == 1.0
    assert perfect.id_switches == 0

    gt2 = TrackSequence()
    pred2 = TrackSequence()
    for t in (1, 2):
        for obj, u in ((1, 0.0), (2, 50.0)):
            gt2.add(t, obj, BBox(u + 2 * t, 0, 10, 10))
            if not (t == 2 and obj == 2):
                pred2.add(t, obj, BBox(u + 2 * t, 0, 10, 10))
    one_fn = evaluate(gt2, pred2)
    reports.append(one_fn)
    assert one_fn.fn == 1 and one_fn.fp == 0
    assert one_fn.mota == pytest.approx(0.75, abs=1e-12)

    pred3 = TrackSequence()
    for t in range(1, 11):
        pred3.add(t, 1 if t <= 5 else 2, BBox(2.0 * t, 0, 10, 10))
    flip = evaluate(gt, pred3)
    reports.append(flip)
    assert flip.id_switches == 1
    assert flip.idf1 == pytest.approx(0.5, abs=1e-12)
    assert flip.assa == pytest.approx(0.5, abs=1e-12)

    for report in reports:
        assert abs(report.hota - math.sqrt(report.deta * report.assa)) <= 1e-9
    _passed(6, "hand-computed MOTA/IDF1/IDSW values reproduced exactly")


def _run_tracker(scenario, cfg):
    tracker = MacSort(cfg)
    pred = TrackSequence()
    for frame in sorted(scenario.detections):
        for tid, box in tracker.step(scenario.detections[frame], frame):
            pred.add(frame, tid, box)
    return tracker, pred


def test_criterion_7_crossing_stress():
    """Identical-appearance crossing: adaptive weights give 0 switches and
    IDF1 = 1.0; the appearance-dominant frozen ablation on the adversarial
    embedding-swap variant produces at least one switch."""
    base = ScenarioSpec(
        seed=7, n_objects=4, n_frames=60, motion="crossing",
        appearance_homogeneity=1.0, detection_noise_px=0.5, embedding_dim=16,
    )
    scenario = generate(base)
    _, pred = _run_tracker(scenario, AssocConfig())
    report = evaluate(scenario.gt, pred)
    assert report.id_switches == 0
    assert report.idf1 == 1.0

    adversarial = ScenarioSpec(
        seed=7, n_objects=4, n_frames=60, motion="crossing",
        appearance_homogeneity=0.0, detection_noise_px=0.5, embedding_dim=16,
        embedding_swap_frame=28,
    )
    swapped = generate(adversarial)
    _, pred_frozen = _run_tracker(swapped, AssocConfig(fixed_w_aaw=2.0))
    report_frozen = evaluate(swapped.gt, pred_frozen)
    assert report_frozen.id_switches >= 1
    _passed(
        7,
        f"adaptive: 0 switches, IDF1 1.0; frozen-appearance ablation: "
        f"{report_frozen.id_switches} switches",
    )


def test_criterion_8_occlusion_recovery():
    """After a 5-frame occlusion at 2 px/frame the re-found track keeps its
    id and recovers the velocity within 10%."""
    spec = ScenarioSpec(
        seed=3, n_objects=1, n_frames=40, motion="linear",
        occlusion_windows=[(1, 20, 24)], embedding_dim=8,
    )
    scenario = generate(spec)
    tracker = MacSort(AssocConfig())
    pred = TrackSequence()
    velocity_after = None
    for frame in sorted(scenario.detections):
        out = tracker.step(scenario.detections[frame], frame)
        for tid, box in out:
            pred.add(frame, tid, box)
        if frame == 25:
            assert [tid for tid, _ in out] == [1]  # same identity, reported
            velocity_after = float(tracker.tracks[0].state.x[4])
    assert velocity_after is not None
    assert abs(velocity_after - 2.0) / 2.0 < 0.10
    report = evaluate(scenario.gt, pred)
    assert report.id_switches == 0
    _passed(8, f"id kept through the gap, velocity {velocity_after:.4f}")


def test_criterion_9_pipeline_determinism(tmp_path, monkeypatch, capsys):
    """synth -> filter -> track -> eval produces byte-identical files
    across two runs and across MACSORT_THREADS=1 and 8."""
    specs = {
        "lanes": ScenarioSpec(
            seed=5, n_objects=3, n_frames=30, motion="linear",
            detection_noise_px=0.3, miss_rate=0.05, clutter_rate=0.1,
            embedding_dim=8,
        ),
        "crossing": ScenarioSpec(
            seed=7, n_objects=4, n_frames=40, motion="crossing",
            appearance_homogeneity=1.0, detection_noise_px=0.5,
            embedding_dim=8,
        ),
    }
    spec_files = {}
    for name, spec in specs.items():
        path = tmp_path / f"{name}.spec"
        write_spec(spec, path)
        spec_files[name] = path

    outputs = ("filtered.txt", "filtered.emb", "results.txt", "metrics.json")

    def run(root, threads):
        monkeypatch.setenv("MACSORT_THREADS", threads)
        seq_dirs = []
        for name, spec_file in spec_files.items():
            seq = root / name
            assert main(["synth", str(spec_file), str(seq)]) == 0
            seq_dirs.append(str(seq))
        assert main(["filter", *seq_dirs]) == 0
        assert main(["track", *seq_dirs]) == 0
        for seq in seq_dirs:
            seq = root / os.path.basename(seq)
            assert main([
                "eval", str(seq / "gt.txt"), str(seq / "results.txt"),
                "--json-out", str(seq / "metrics.json"),
            ]) == 0
        return {
            (name, out): (root / name / out).read_bytes()
            for name in specs
            for out in outputs
        }

    runs = [
        run(tmp_path / "a", "1"),
        run(tmp_path / "b", "1"),
        run(tmp_path / "c", "8"),
    ]
    capsys.readouterr()
    assert runs[0] == runs[1]
    assert runs[0] == runs[2]
    _passed(9, "byte-identical pipeline outputs across runs and thread counts")


THROUGHPUT_SCRIPT = """
import time
import numpy as np
from macsort.geometry import BBox, Detection
from macsort.tracker import MacSort, AssocConfig

rng = np.random.default_rng(0)
n_obj, n_frames, dim = 100, 1000, 128
embs = rng.standard_normal((n_obj, dim))
starts = rng.uniform(100, 4000, (n_obj, 2))
vels = rng.uniform(-3, 3, (n_obj, 2))
frames = []
for t in range(1, n_frames + 1):
    pos = starts + vels * (t - 1)
    frames.append(
        [Detection(t, BBox(pos[i, 0], pos[i, 1], 20, 20), 0.9, embs[i])
         for i in range(n_obj)]
    )
tracker = MacSort(AssocConfig())
t0 = time.perf_counter()
for t, dets in enumerate(frames, start=1):
    tracker.step(dets, t)
print(time.perf_counter() - t0)
"""


def test_criterion_10_throughput():
    """1000 frames x 100 detections x 128-dim embeddings tracked in < 5 s
    single-threaded (fresh process, BLAS pinned to one thread)."""
    env = dict(
        os.environ,
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    proc = subprocess.run(
        [sys.executable, "-c", THROUGHPUT_SCRIPT],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    elapsed = float(proc.stdout.strip().splitlines()[-1])
    assert elapsed < 5.0
    _passed(10, f"100k detections tracked in {elapsed:.2f}s")


def test_criterion_11_caption_grammar():
    """Both caption templates invert exactly on 1000 generated captions,
    and the canonical car example parses to its three prompts."""
    rng = np.random.default_rng(202411)
    words = ["red", "white", "striped", "young", "fast", "spotted", "tall", "glowing"]
    classes = ["duck", "balloon", "zebra", "card", "stock", "lemur", "boat"]
    for _ in range(1000):
        cls = classes[rng.integers(len(classes))]
        include = " ".join(
            words[i] for i in rng.choice(len(words), rng.integers(0, 4), replace=False)
        )
        exclude = " ".join(
            words[i] for i in rng.choice(len(words), rng.integers(1, 4), replace=False)
        )
        surface = cls + "s" if rng.integers(2) else cls
        caption = "Track " + " ".join(filter(None, [include, surface]))
        with_exclude = bool(rng.integers(2))
        if with_exclude:
            caption += f" while excluding {exclude} {surface}"
        ann = GmotAnnotation(class_name=cls, caption=caption)
        query = parse_caption(caption, ann)
        assert query.general == surface
        assert query.include == include
        assert query.exclude == (exclude if with_exclude else "")

    car = GmotAnnotation(
        class_name="car",
        caption="Track white headlight cars while excluding red taillight cars",
    )
    query = parse_caption(car.caption, car)
    assert (query.general, query.include, query.exclude) == (
        "cars", "white headlight", "red taillight",
    )
    _passed(11, "1000 template inversions exact; car example parses")
