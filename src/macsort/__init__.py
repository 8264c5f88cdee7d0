"""Prompt-filtered generic multi-object tracking toolkit.

Pipeline stages, each usable on its own:

- geometry: the BBox value type, (u, v, w, h) box arrays, the one box <->
  filter-state (u, v, s, r) conversion and similarity primitives
- captions: annotation JSON and caption-template parsing
- prompt_filter: include/exclude classification, on a sequence's
  frame-sorted box columns, + long-short memory rescue; a frame's kept
  rows come back as row indices
- motion: constant-velocity Kalman filtering and occlusion recovery on
  (x, P) state arrays, each covariance held as its four (pos, vel) blocks
- tracker: adaptive motion-appearance association (MAC-SORT) over
  PromptDetections tables; ``track_sequence`` reads a sequence's frame
  column and one table, results come out as mot_io.MotTable rows, and no
  BBox is built
- metrics: MOTA / identity F1 / higher-order accuracy evaluation
- mot_io: MOT-Challenge CSV and embedding sidecar files, the one reader
  of a detection file and its sidecar (``read_detections``) for prompt
  dumps and ``track``, and ``walk_frames``, the one frame walk of filter,
  track and eval: it hands over each frame's rows as one slice per
  frame-sorted column, and skips a frame without rows only while the
  stage's own ``idle`` test says stepping it would change nothing
- synth: deterministic synthetic scenario generator
- cli: filter / track / eval / synth / parse-captions subcommands
"""

from .geometry import BBox, iou_matrix, uvwh_to_xysr, xysr_to_uvwh
from .captions import CaptionQuery, GmotAnnotation, load_annotation, parse_annotation, parse_caption
from .prompt_filter import (
    MemoryBank,
    PromptDetections,
    TpodConfig,
    ie_classify,
    ie_overlaps,
    lsm_classify,
    lsm_similarity_profile,
    tpod_frame,
)
from .motion import kf_init, kf_predict_batch, kf_update_batch, ocr_reupdate
from .tracker import (
    AssocConfig,
    CostBreakdown,
    MacSort,
    Tracks,
    adaptive_weights,
    build_cost_matrix,
    linear_assignment,
    track_sequence,
)
from .metrics import MetricsReport, TrackSequence, evaluate, match_frame
from .synth import Scenario, ScenarioSpec, generate, parse_spec, read_spec, write_spec
from .config import RunConfig, build_config

__version__ = "0.1.0"
