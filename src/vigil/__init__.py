"""vigil: tracking, summarization and rule-based alerting for detection streams.

The package is organized around a handful of small, independently usable
pieces:

- :mod:`vigil.geometry` — boxes, frames, detections and frame batches of
  them, IoU, polygon tests
- :mod:`vigil.sources` — detection-dump I/O and the synthetic scene simulator
- :mod:`vigil.tracker` — IoU/Kalman multi-object tracker
- :mod:`vigil.summarize` — submodular frame selection by lazy greedy
- :mod:`vigil.augment` — affine/color augmentation and dataset balancing
- :mod:`vigil.softmax` — linear softmax head: training, inference, reports
- :mod:`vigil.stats` — heat maps, flow maps, dwell times, unique counts
- :mod:`vigil.rules` — zone/line alert rules with debouncing
- :mod:`vigil.evaluation` — detection mAP/precision/recall
- :mod:`vigil.pipeline` — config-driven end-to-end runs (also via the CLI)
"""

from ._version import __version__
from .errors import ConfigError, DataError, DumpFormatError, VigilError
from .geometry import BoundingBox, Detection, FrameDetections, FrameMeta, iou, iou_matrix
from .rng import Rng, derive_seed
from .sources import SyntheticSceneConfig, read_dump, simulate, write_dump
from .tracker import SortTracker, TrackerConfig, TrackStatus
from .summarize import (
    FacilityLocation,
    GroundSet,
    SaturatedCoverage,
    build_model,
    lazy_greedy_trace,
    signature_from_image,
)
from .augment import AugmentationBounds, DatasetManifest, balance, sample_transform
from .softmax import SoftmaxModel, TrainConfig, predict, train
from .stats import GridSpec, SceneStats
from .rules import Rule, RuleEngine, TripLine, Zone, load_rules
from .evaluation import EvalConfig, evaluate_detections
from .pipeline import (FrameLoop, PipelineConfig, load_pipeline_config,
                       pipeline_config_from_dict, run)

__all__ = [
    "__version__",
    "VigilError", "ConfigError", "DataError", "DumpFormatError",
    "BoundingBox", "FrameMeta", "Detection", "FrameDetections", "iou", "iou_matrix",
    "Rng", "derive_seed",
    "SyntheticSceneConfig", "simulate", "read_dump", "write_dump",
    "SortTracker", "TrackerConfig", "TrackStatus",
    "GroundSet", "FacilityLocation", "SaturatedCoverage", "build_model",
    "lazy_greedy_trace", "signature_from_image",
    "AugmentationBounds", "DatasetManifest", "balance", "sample_transform",
    "SoftmaxModel", "TrainConfig", "train", "predict",
    "GridSpec", "SceneStats",
    "Zone", "TripLine", "Rule", "RuleEngine", "load_rules",
    "EvalConfig", "evaluate_detections",
    "FrameLoop", "PipelineConfig", "pipeline_config_from_dict", "load_pipeline_config", "run",
]
