"""Prompt-filtered generic multi-object tracking toolkit.

Pipeline stages, each usable on its own:

- geometry: box/embedding value types and similarity primitives
- captions: annotation JSON and caption-template parsing
- prompt_filter: include/exclude classification + long-short memory rescue
- motion: constant-velocity Kalman filtering and occlusion recovery
- tracker: adaptive motion-appearance association (MAC-SORT)
- metrics: MOTA / identity F1 / higher-order accuracy evaluation
- mot_io: MOT-Challenge CSV and embedding sidecar files
- synth: deterministic synthetic scenario generator
- cli: filter / track / eval / synth / parse-captions subcommands
"""

from .geometry import BBox, Detection, bbox_to_xysr, cosine_similarity, iou, xysr_to_bbox
from .captions import CaptionQuery, GmotAnnotation, load_annotation, parse_annotation, parse_caption
from .prompt_filter import (
    MemoryBank,
    PromptDetections,
    TpodConfig,
    ie_classify,
    lsm_classify,
    lsm_similarity_profile,
    tpod_frame,
)
from .motion import (
    KalmanState,
    MotionConfig,
    kf_init,
    kf_predict,
    kf_update,
    ocr_reupdate,
)
from .tracker import (
    AssocConfig,
    CostBreakdown,
    MacSort,
    Track,
    adaptive_weights,
    build_cost_matrix,
    compute_mu_det,
    linear_assignment,
    track_sequence,
)
from .metrics import MetricsReport, TrackSequence, evaluate, match_frame
from .synth import Scenario, ScenarioSpec, SplitMix64, generate, parse_spec, read_spec, write_spec
from .config import RunConfig, build_config

__version__ = "0.1.0"
