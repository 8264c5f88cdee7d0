"""Deterministic synthetic tracking scenarios.

Generates ground-truth trajectories plus noisy detections with appearance
embeddings whose homogeneity is controllable, the desk-scale test bed for
the filter/tracker/metrics stack. Randomness comes from a self-contained
splitmix64 generator so identical specs reproduce identical outputs on any
platform. Splitmix64 is counter-based (draw i is mix(seed + (i + 1) *
gamma)), so ``generate`` computes its draws by stream position, whole
blocks at a time, in the layout its docstring gives.

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
from functools import cached_property
from pathlib import Path

import numpy as np

from .config import parse_key_values, read_utf8
from .errors import SpecError
from .geometry import first_unheld_box
from .metrics import TrackSequence
from .mot_io import DETECTION_ID, MotTable
from .prompt_filter import PromptDetections

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
MOTION_MODELS = ("linear", "crossing", "circular")


def _mix(z):
    """splitmix64's output function, on an int or a uint64 array."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """splitmix64 PRNG; one 64-bit state, portable across languages. The
    scalar reference of the draws that ``generate`` computes by position."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        return _mix(self.state)

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


def _u64_at(seed: int, index):
    """SplitMix64(seed)'s draw at 0-based stream position ``index``, an int
    or a uint64 array of positions."""
    return _mix(((seed & _MASK64) + (index + 1) * _GAMMA) & _MASK64)


def _uniform_at(seed: int, index):
    return (_u64_at(seed, index) >> 11) * 2.0**-53


def _per_value(fn, a) -> np.ndarray:
    """The math function ``fn`` on each value of array ``a``: numpy's own
    log and cos may differ from it in the last bit."""
    return np.fromiter(map(fn, a.ravel().tolist()), np.float64, a.size).reshape(a.shape)


def _box_muller(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """SplitMix64.normal of arrays of uniform pairs, bit for bit."""
    log = _per_value(math.log, np.maximum(u1, 2.0**-53))
    return np.sqrt(-2.0 * log) * _per_value(math.cos, (2.0 * math.pi) * u2)


def _unit_vectors(normals: np.ndarray) -> np.ndarray:
    """Rows normalised as SplitMix64.unit_vector does it. The norm runs per
    row, as a BLAS dot; norm(axis=1) may sum in another order."""
    norms = np.array([np.linalg.norm(row) for row in normals]).reshape(-1, 1)
    tiny = norms < 1e-12
    return np.where(tiny, np.eye(1, normals.shape[1]), normals / np.where(tiny, 1.0, norms))


def _uniforms_at(seed: int, starts: list[int], count: int) -> np.ndarray:
    """(len(starts), count) uniforms; row r is drawn from stream position
    starts[r] on."""
    pos = np.add.outer(np.array(starts, dtype=np.uint64), np.arange(count, dtype=np.uint64))
    return _uniform_at(seed, pos)


def _unit_vectors_at(seed: int, starts: list[int], dim: int) -> np.ndarray:
    """SplitMix64.unit_vector(dim) drawn from each stream position of ``starts``."""
    u = _uniforms_at(seed, starts, 2 * dim)
    return _unit_vectors(_box_muller(u[:, 0::2], u[:, 1::2]))


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
        for f in fields(self):
            val = getattr(self, f.name)
            if isinstance(val, float) and not math.isfinite(val):
                raise SpecError(f"{f.name} must be finite, got {val}")
        if self.n_objects < 1 or self.n_frames < 1 or self.embedding_dim < 1:
            raise SpecError("n_objects, n_frames, embedding_dim must be >= 1")
        if self.motion not in MOTION_MODELS:
            raise SpecError(f"unknown motion model {self.motion!r}")
        for name in ("appearance_homogeneity", "miss_rate", "clutter_rate"):
            val = getattr(self, name)
            if not (0.0 <= val <= 1.0):
                raise SpecError(f"{name} must be in [0,1], got {val}")
        # the MOT files hold boxes at two decimals: a size that prints as 0.00 is no box
        if self.detection_noise_px < 0 or self.speed_px < 0 or round(self.box_size_px, 2) <= 0:
            raise SpecError("noise/speed must be >= 0 and box size >= 0.005")
        for obj, start, end in self.occlusion_windows:
            if not (1 <= obj <= self.n_objects):
                raise SpecError(f"occlusion window object {obj} out of range")
            if not (1 <= start <= end <= self.n_frames):
                raise SpecError(
                    f"occlusion window frames {start}..{end} inconsistent"
                )


@dataclass(eq=False)
class Scenario:
    """One generated sequence as columns, rows in frame order and boxes as
    (u, v, w, h). Ground-truth row i is object ``gt_id[i]`` at frame
    ``gt_frame[i]``; detection row i has embedding ``embeddings[i]``.
    ``gt`` and ``detections`` view the rows as objects."""

    spec: ScenarioSpec
    gt_frame: np.ndarray  # (m,) int
    gt_id: np.ndarray  # (m,) int
    gt_boxes: np.ndarray  # (m, 4)
    det_frame: np.ndarray  # (r,) int
    det_boxes: np.ndarray  # (r, 4)
    det_conf: np.ndarray  # (r,)
    embeddings: np.ndarray  # (r, embedding_dim)

    def gt_table(self) -> MotTable:
        return MotTable.from_uvwh(self.gt_frame, self.gt_id, self.gt_boxes, 1.0)

    def detection_table(self) -> MotTable:
        return MotTable.from_uvwh(self.det_frame, DETECTION_ID, self.det_boxes, self.det_conf)

    def frame_sets(self) -> dict[int, PromptDetections]:
        """Each frame's detections as one table, frames 1..n_frames; the
        tables view the columns."""
        ends = np.searchsorted(self.det_frame, np.arange(self.spec.n_frames + 1), "right")
        return {
            frame: PromptDetections(self.det_boxes[a:b], self.embeddings[a:b], self.det_conf[a:b])
            for frame, (a, b) in enumerate(zip(ends.tolist(), ends[1:].tolist()), start=1)
        }

    @cached_property
    def gt(self) -> TrackSequence:
        return TrackSequence(self.gt_frame, self.gt_id, self.gt_boxes, self.spec.n_frames)


def _trajectories(spec: ScenarioSpec) -> tuple[np.ndarray, np.ndarray]:
    """Ground-truth centers (x, y), each (n_frames, n_objects): 1-based
    frames down, 0-based objects across."""
    n, obj = spec.n_objects, np.arange(spec.n_objects)
    t = np.arange(1, spec.n_frames + 1)[:, None]
    cx, cy = spec.field_w / 2.0, spec.field_h / 2.0
    if spec.motion == "linear":
        x = spec.field_w * 0.15 + spec.speed_px * (t - 1)
        y = spec.field_h * (obj + 1) / (n + 1)
        return np.broadcast_to(x, (len(t), n)), np.broadcast_to(y, (len(t), n))
    if spec.motion == "crossing":
        phi = math.pi * obj / n
        t_cross = spec.n_frames // 2 + (obj - n // 2) * spec.crossing_stagger
        d = spec.speed_px * (t - t_cross)
        return cx + d * _per_value(math.cos, phi), cy + d * _per_value(math.sin, phi)
    radius = min(spec.field_w, spec.field_h) / 4.0 + obj * spec.box_size_px
    angle = spec.speed_px / radius * (t - 1) + 2.0 * math.pi * obj / n
    if not np.isfinite(angle).all():  # math.cos fails on inf
        raise SpecError("box positions overflow float64: speed_px, box_size_px or the field "
                        "size is too large")
    return cx + radius * _per_value(math.cos, angle), cy + radius * _per_value(math.sin, angle)


def _object_embeddings(spec: ScenarioSpec, units: np.ndarray) -> np.ndarray:
    shared, bases = units[0], units[1:]
    h = spec.appearance_homogeneity
    mixed = h * shared[None, :] + (1.0 - h) * bases
    norms = np.linalg.norm(mixed, axis=1, keepdims=True)
    degenerate = norms[:, 0] < 1e-12
    mixed[degenerate] = shared
    norms[degenerate] = 1.0
    return mixed / norms


@np.errstate(over="ignore", invalid="ignore")  # an overflow raises SpecError instead
def generate(spec: ScenarioSpec) -> Scenario:
    """Produce ground truth plus detections/embeddings for a spec.

    With zero noise, miss and clutter rates the detections equal the ground
    truth exactly. Occlusion windows drop detections only; the ground-truth
    trajectory continues through them.

    Draw layout of the SplitMix64(seed) stream, the reproducibility
    contract: first (n_objects + 1) * embedding_dim normals (the shared
    unit vector, then one per object); then per frame 6 * n_objects draws,
    per object two normals (noise_u, noise_v) and two uniforms (miss_u,
    conf_u), drawn for every object so that scenario variants share
    geometry; then n_objects clutter slots of one uniform each, each slot
    that makes a clutter box followed by its cx, cy and confidence uniforms
    and its embedding_dim unit-vector normals. A normal takes two draws.
    """
    spec.validate()
    n, dim, n_frames, seed = spec.n_objects, spec.embedding_dim, spec.n_frames, spec.seed
    units = _unit_vectors_at(seed, range(0, (n + 1) * 2 * dim, 2 * dim), dim)
    embeddings = _object_embeddings(spec, units)

    # only the clutter slots walk the stream one draw at a time: whether a
    # slot makes a box decides where every later draw sits
    starts, clutter_at, clutter_frame = [], [], []
    pos = (n + 1) * 2 * dim
    for frame in range(1, n_frames + 1):
        starts.append(pos)
        pos += 6 * n
        for _ in range(n):
            pos += 1
            if spec.clutter_rate > 0.0 and _uniform_at(seed, pos - 1) < spec.clutter_rate:
                clutter_at.append(pos)
                clutter_frame.append(frame)
                pos += 3 + 2 * dim

    draws = _uniforms_at(seed, starts, 6 * n).reshape(n_frames, n, 6)
    noise_u = _box_muller(draws[..., 0], draws[..., 1])
    noise_v = _box_muller(draws[..., 2], draws[..., 3])
    keep = np.ones((n_frames, n), dtype=bool)
    for obj, start, end in spec.occlusion_windows:
        keep[start - 1:end, obj - 1] = False
    if spec.miss_rate > 0.0:
        keep &= draws[..., 4] >= spec.miss_rate
    emb_obj = np.tile(np.arange(n), (n_frames, 1))
    if spec.embedding_swap_frame is not None:
        swapped = np.arange(1, n_frames + 1) >= spec.embedding_swap_frame
        emb_obj[swapped] = n - 1 - emb_obj[swapped]

    x, y = _trajectories(spec)
    size, noise = spec.box_size_px, spec.detection_noise_px
    rows, cols = np.nonzero(keep)  # frame-major, objects ascending
    clutter = _uniforms_at(seed, clutter_at, 3)
    frames = np.concatenate([rows + 1, np.array(clutter_frame, dtype=int)])
    order = np.argsort(frames, kind="stable")  # a frame's objects, then its clutter
    u = np.concatenate([x[rows, cols] + noise * noise_u[rows, cols],
                        size / 2.0 + clutter[:, 0] * (spec.field_w - size)])
    v = np.concatenate([y[rows, cols] + noise * noise_v[rows, cols],
                        size / 2.0 + clutter[:, 1] * (spec.field_h - size)])
    conf = np.concatenate([0.55 + 0.4 * draws[rows, cols, 5], 0.25 + 0.35 * clutter[:, 2]])
    sources = np.concatenate([embeddings, _unit_vectors_at(seed, [c + 3 for c in clutter_at], dim)])
    source_row = np.concatenate([emb_obj[rows, cols], n + np.arange(len(clutter_at))])
    scenario = Scenario(
        spec=spec,
        gt_frame=np.repeat(np.arange(1, n_frames + 1), n),
        gt_id=np.tile(np.arange(1, n + 1), n_frames),
        gt_boxes=np.column_stack([x.ravel(), y.ravel(), np.full((x.size, 2), size)]),
        det_frame=frames[order],
        det_boxes=np.column_stack([u, v, np.full((len(u), 2), size)])[order],
        det_conf=conf[order],
        embeddings=sources[source_row[order]],
    )
    for name, frame, boxes in (("gt.txt", scenario.gt_frame, scenario.gt_boxes),
                               ("general.txt", scenario.det_frame, scenario.det_boxes)):
        bad = first_unheld_box(boxes)
        if bad is not None:
            raise SpecError(f"{name} row {bad + 1} (frame {frame[bad]}): the box overflows "
                            "float64 or has no extent at its position: speed_px, "
                            "detection_noise_px, box_size_px or the field size is too large")
    return scenario


# -- spec (de)serialization: plain key=value text, read by config's reader --


def _format_value(name: str, value) -> str:
    if name == "occlusion_windows":
        return ";".join(f"{o}:{s}:{e}" for o, s, e in value)
    return "" if value is None else str(value)


def write_spec(spec: ScenarioSpec, path: str | Path) -> None:
    lines = [
        f"{f.name}={_format_value(f.name, getattr(spec, f.name))}"
        for f in fields(ScenarioSpec)
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_windows(text: str) -> list[tuple[int, int, int]]:
    """``occlusion_windows``' value: obj:start:end windows joined by ``;``."""
    windows = []
    for chunk in filter(None, map(str.strip, text.split(";"))):
        try:
            obj, start, end = map(int, chunk.split(":"))
        except ValueError:
            raise ValueError(f"bad occlusion window {chunk!r}, want obj:start:end") from None
        windows.append((obj, start, end))
    return windows


def parse_spec(text: str, where: str = "") -> ScenarioSpec:
    """A spec from key=value text; ``where`` names its file in errors."""
    values = parse_key_values(text, ScenarioSpec, SpecError, where,
                              parsers={"occlusion_windows": _parse_windows})
    spec = ScenarioSpec(**values)
    spec.validate()
    return spec


def read_spec(path: str | Path) -> ScenarioSpec:
    return parse_spec(read_utf8(path, SpecError), str(path))
