"""Deterministic synthetic tracking scenarios.

Generates ground-truth trajectories plus noisy detections with appearance
embeddings whose homogeneity is controllable, the desk-scale test bed for
the filter/tracker/metrics stack. Randomness comes from a self-contained
splitmix64 generator so identical specs reproduce identical outputs on any
platform.

Motion models:
  linear    parallel lanes, constant velocity
  crossing  straight lines through a common point, crossing times staggered
            per object (the classic stress case: identical-looking objects
            that can only be told apart by their motion)
  circular  concentric orbits around the field center

An optional adversarial twist swaps the objects' embedding identities from
a given frame on (object i emits the base embedding of object n-1-i),
which baits appearance-dominant association into identity switches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import SpecError
from .geometry import BBox, Detection
from .metrics import TrackSequence

_MASK64 = (1 << 64) - 1
MOTION_MODELS = ("linear", "crossing", "circular")


class SplitMix64:
    """splitmix64 PRNG; one 64-bit state, portable across languages."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def normal(self) -> float:
        # Box-Muller, one value per two uniforms (kept simple over fast)
        u1 = max(self.uniform(), 2.0**-53)
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def unit_vector(self, dim: int) -> np.ndarray:
        vec = np.array([self.normal() for _ in range(dim)])
        norm = np.linalg.norm(vec)
        if norm < 1e-12:
            vec = np.zeros(dim)
            vec[0] = 1.0
            return vec
        return vec / norm


@dataclass
class ScenarioSpec:
    """Everything needed to reproduce one synthetic sequence."""

    seed: int = 42
    n_objects: int = 4
    n_frames: int = 60
    motion: str = "linear"
    appearance_homogeneity: float = 1.0
    detection_noise_px: float = 0.0
    miss_rate: float = 0.0
    clutter_rate: float = 0.0
    occlusion_windows: list[tuple[int, int, int]] = field(default_factory=list)
    embedding_dim: int = 16
    speed_px: float = 2.0
    box_size_px: float = 24.0
    field_w: float = 640.0
    field_h: float = 480.0
    crossing_stagger: int = 3
    embedding_swap_frame: int | None = None

    def validate(self) -> None:
        if self.n_objects < 1 or self.n_frames < 1 or self.embedding_dim < 1:
            raise SpecError("n_objects, n_frames, embedding_dim must be >= 1")
        if self.motion not in MOTION_MODELS:
            raise SpecError(f"unknown motion model {self.motion!r}")
        for name in ("appearance_homogeneity", "miss_rate", "clutter_rate"):
            val = getattr(self, name)
            if not (0.0 <= val <= 1.0):
                raise SpecError(f"{name} must be in [0,1], got {val}")
        if self.detection_noise_px < 0 or self.speed_px < 0 or self.box_size_px <= 0:
            raise SpecError("noise/speed must be >= 0 and box size > 0")
        for obj, start, end in self.occlusion_windows:
            if not (1 <= obj <= self.n_objects):
                raise SpecError(f"occlusion window object {obj} out of range")
            if not (1 <= start <= end <= self.n_frames):
                raise SpecError(
                    f"occlusion window frames {start}..{end} inconsistent"
                )


@dataclass
class Scenario:
    spec: ScenarioSpec
    gt: TrackSequence
    detections: dict[int, list[Detection]]


def _trajectory(spec: ScenarioSpec, obj: int, frame: int) -> tuple[float, float]:
    """Ground-truth center of 0-based object ``obj`` at 1-based ``frame``."""
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


def _object_embeddings(spec: ScenarioSpec, rng: SplitMix64) -> np.ndarray:
    shared = rng.unit_vector(spec.embedding_dim)
    bases = np.stack([rng.unit_vector(spec.embedding_dim) for _ in range(spec.n_objects)])
    h = spec.appearance_homogeneity
    mixed = h * shared[None, :] + (1.0 - h) * bases
    norms = np.linalg.norm(mixed, axis=1, keepdims=True)
    degenerate = norms[:, 0] < 1e-12
    mixed[degenerate] = shared
    norms[degenerate] = 1.0
    return mixed / norms


def generate(spec: ScenarioSpec) -> Scenario:
    """Produce ground truth plus detections/embeddings for a spec.

    With zero noise, miss and clutter rates the detections equal the ground
    truth exactly. Occlusion windows drop detections only; the ground-truth
    trajectory continues through them.
    """
    spec.validate()
    rng = SplitMix64(spec.seed)
    embeddings = _object_embeddings(spec, rng)
    occluded = {
        (obj, f)
        for obj, start, end in spec.occlusion_windows
        for f in range(start, end + 1)
    }

    gt = TrackSequence(n_frames=spec.n_frames)
    detections: dict[int, list[Detection]] = {}
    size = spec.box_size_px
    for frame in range(1, spec.n_frames + 1):
        dets: list[Detection] = []
        for obj in range(spec.n_objects):
            x, y = _trajectory(spec, obj, frame)
            gt.add(frame, obj + 1, BBox(x, y, size, size))
            # draw all per-object randoms unconditionally so scenario
            # variants (occlusion, swap, homogeneity) share geometry
            noise_u = rng.normal()
            noise_v = rng.normal()
            miss_u = rng.uniform()
            conf_u = rng.uniform()
            if (obj + 1, frame) in occluded:
                continue
            if spec.miss_rate > 0.0 and miss_u < spec.miss_rate:
                continue
            emb_obj = obj
            if (
                spec.embedding_swap_frame is not None
                and frame >= spec.embedding_swap_frame
            ):
                emb_obj = spec.n_objects - 1 - obj
            dets.append(
                Detection(
                    frame=frame,
                    bbox=BBox(
                        x + spec.detection_noise_px * noise_u,
                        y + spec.detection_noise_px * noise_v,
                        size,
                        size,
                    ),
                    confidence=0.55 + 0.4 * conf_u,
                    embedding=embeddings[emb_obj].copy(),
                )
            )
        for _ in range(spec.n_objects):
            clutter_u = rng.uniform()
            if spec.clutter_rate > 0.0 and clutter_u < spec.clutter_rate:
                cx = size / 2.0 + rng.uniform() * (spec.field_w - size)
                cy = size / 2.0 + rng.uniform() * (spec.field_h - size)
                dets.append(
                    Detection(
                        frame=frame,
                        bbox=BBox(cx, cy, size, size),
                        confidence=0.25 + 0.35 * rng.uniform(),
                        embedding=rng.unit_vector(spec.embedding_dim),
                    )
                )
        detections[frame] = dets
    return Scenario(spec=spec, gt=gt, detections=detections)


# -- spec (de)serialization: plain key=value text ----------------------------

_SPEC_FIELDS = {f.name: f for f in fields(ScenarioSpec)}


def _format_value(name: str, value) -> str:
    if name == "occlusion_windows":
        return ";".join(f"{o}:{s}:{e}" for o, s, e in value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def write_spec(spec: ScenarioSpec, path: str | Path) -> None:
    lines = [
        f"{f.name}={_format_value(f.name, getattr(spec, f.name))}"
        for f in fields(ScenarioSpec)
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_windows(text: str) -> list[tuple[int, int, int]]:
    windows = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 3:
            raise SpecError(f"bad occlusion window {chunk!r}, want obj:start:end")
        try:
            windows.append(tuple(int(p) for p in parts))
        except ValueError as exc:
            raise SpecError(f"bad occlusion window {chunk!r}: {exc}") from exc
    return windows


def parse_spec(text: str) -> ScenarioSpec:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SpecError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _SPEC_FIELDS:
            raise SpecError(f"line {lineno}: unknown spec key {key!r}")
        if key in values:
            raise SpecError(f"line {lineno}: duplicate key {key!r}")
        values[key] = raw

    kwargs = {}
    for key, raw in values.items():
        if key == "occlusion_windows":
            kwargs[key] = _parse_windows(raw)
        elif key == "motion":
            kwargs[key] = raw
        elif key == "embedding_swap_frame":
            kwargs[key] = int(raw) if raw else None
        elif key in ("seed", "n_objects", "n_frames", "embedding_dim", "crossing_stagger"):
            try:
                kwargs[key] = int(raw)
            except ValueError as exc:
                raise SpecError(f"{key}: expected integer, got {raw!r}") from exc
        else:
            try:
                kwargs[key] = float(raw)
            except ValueError as exc:
                raise SpecError(f"{key}: expected number, got {raw!r}") from exc
    spec = ScenarioSpec(**kwargs)
    spec.validate()
    return spec


def read_spec(path: str | Path) -> ScenarioSpec:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SpecError(f"{path}: {exc}") from exc
    return parse_spec(text)
