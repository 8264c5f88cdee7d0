"""The benchmark's workloads and the inputs it generates for them.

Inputs come from ``macsort synth`` run through the CLI entry point, seeded
from the benchmark's ``--seed``; the program under test only ever sees the
generated files. ``prompts_multi`` additionally gets include/exclude prompt
dumps that the benchmark derives from ground truth.
"""

from __future__ import annotations

import contextlib
import io
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import macsort.cli
from macsort.geometry import iou_matrix
from macsort.mot_io import read_embeddings, read_mot_lines, write_detections
from macsort.synth import ScenarioSpec, write_spec

LABEL_IOU = 0.5  # a general row is an object when it overlaps GT this much
PROMPT_SHARE = 0.6  # share of object rows copied to include, clutter to exclude
OCCLUSION_FRAMES = 26  # gap of 27 frames on recovery, inside max_age=30


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prompts: bool  # derive include/exclude dumps from ground truth
    specs: Callable[[int], list[tuple[str, dict]]]  # seed -> (name, synth spec) per sequence


def _lanes_long(seed: int) -> list[tuple[str, dict]]:
    # seed 0 is ROADMAP's end-to-end workload exactly (synth seed 3)
    return [("lanes", dict(
        seed=3 + seed, n_objects=60, n_frames=600, motion="linear",
        appearance_homogeneity=0.3, detection_noise_px=1.0, miss_rate=0.05,
        clutter_rate=0.1, embedding_dim=128, field_w=4000, field_h=3000,
        speed_px=1.5,
    ))]


def _crowd_dense(seed: int) -> list[tuple[str, dict]]:
    return [(f"crowd{k}", dict(
        seed=11 + 2 * seed + k, n_objects=200, n_frames=75,
        motion="circular", appearance_homogeneity=0.95, detection_noise_px=1.0,
        miss_rate=0.02, clutter_rate=0.05, embedding_dim=64, field_w=4000,
        field_h=3000,
    )) for k in range(2)]


PROMPT_OBJECTS = 24
PROMPT_FRAMES = 200


def occlusion_windows(n_objects: int, n_frames: int) -> list[tuple[int, int, int]]:
    """One window per object, starts spread evenly over the sequence."""
    span = n_frames - OCCLUSION_FRAMES - 20
    return [
        (obj, start, start + OCCLUSION_FRAMES - 1)
        for obj in range(1, n_objects + 1)
        for start in [10 + span * (obj - 1) // n_objects]
    ]


def _prompts_multi(seed: int) -> list[tuple[str, dict]]:
    return [(f"multi{k}", dict(
        seed=100 + 4 * seed + k, n_objects=PROMPT_OBJECTS, n_frames=PROMPT_FRAMES,
        motion="crossing", appearance_homogeneity=0.5, detection_noise_px=1.0,
        miss_rate=0.1, clutter_rate=0.3, embedding_dim=128,
        occlusion_windows=occlusion_windows(PROMPT_OBJECTS, PROMPT_FRAMES),
    )) for k in range(4)]


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "lanes_long",
            "long sequences of small frames: per-frame dump scan, Python overhead and the eval loop dominate",
            prompts=False, specs=_lanes_long,
        ),
        Workload(
            "crowd_dense",
            "hundreds of near-identical objects per frame: dense cost build and assignment dominate",
            prompts=False, specs=_crowd_dense,
        ),
        Workload(
            "prompts_multi",
            "include/exclude dumps, 26-frame occlusions and 4 sequences: IE filter, long re-update gaps and the pool run",
            prompts=True, specs=_prompts_multi,
        ),
    ]
}


def gt_boxes(gt_path: Path) -> dict[int, list]:
    by_frame: dict[int, list] = {}
    for rec in read_mot_lines(gt_path):
        by_frame.setdefault(rec.frame, []).append(rec.bbox())
    return by_frame


def object_labels(records, gt: dict[int, list]) -> np.ndarray:
    """True where a detection overlaps a GT box of its frame by IoU >= 0.5."""
    labels = np.zeros(len(records), dtype=bool)
    rows: dict[int, list[int]] = {}
    for i, rec in enumerate(records):
        rows.setdefault(rec.frame, []).append(i)
    for frame, idx in rows.items():
        if frame in gt:
            ious = iou_matrix([records[i].bbox() for i in idx], gt[frame])
            labels[idx] = ious.max(axis=1) >= LABEL_IOU
    return labels


def _write_prompt_dumps(seq_dir: Path, seed: int) -> None:
    records = read_mot_lines(seq_dir / "general.txt")
    labels = object_labels(records, gt_boxes(seq_dir / "gt.txt"))
    embs = read_embeddings(seq_dir / "general.emb")
    picked = np.random.default_rng(seed).random(len(records)) < PROMPT_SHARE
    for stem, mask in (("include", picked & labels), ("exclude", picked & ~labels)):
        idx = np.flatnonzero(mask)
        write_detections(
            seq_dir / f"{stem}.txt", seq_dir / f"{stem}.emb",
            [records[i] for i in idx], embs[idx],
        )


def generate(specs, root: Path, prompts: bool) -> list[Path]:
    """Write each ``(name, spec)`` sequence under ``root``; return their dirs."""
    root.mkdir(parents=True, exist_ok=True)
    dirs = []
    for name, spec in specs:
        seq_dir = root / name
        spec_path = root / f"{name}.spec"
        write_spec(ScenarioSpec(**spec), spec_path)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = macsort.cli.main(["synth", str(spec_path), str(seq_dir)])
        if rc != 0:
            raise RuntimeError(f"synth exited {rc} for {spec_path}")
        if prompts:
            _write_prompt_dumps(seq_dir, spec["seed"])
        dirs.append(seq_dir)
    return dirs
