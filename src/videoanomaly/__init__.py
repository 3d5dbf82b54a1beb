"""Training-free online video anomaly detection by unmasking.

Per sliding window, a regularized logistic classifier is trained to
separate the window's two halves; the most discriminative features are
iteratively eliminated and the mean training accuracy over the loops is
the anomaly score (easily separable halves = something changed). Includes
motion features (3D gradient cubes), appearance features (binned conv
activation maps), late fusion, temporal smoothing, and frame-level /
pixel-level ROC AUC evaluation.

The root exports what README's "Python API" section documents; helpers
and internals are imported from their modules.
"""

from .errors import (
    AlignmentError,
    CapabilityError,
    DataError,
    FormatError,
    OrderingError,
    StreamTooShortError,
    TruncationError,
    VideoAnomalyError,
)
from .evaluation import RocReport, cube_score_map, frame_auc, pixel_auc
from .features import BinLayout, bin_activations, cube_grid, gradient_feature
from .ingest import (
    ActivationFrame,
    Frame,
    GroundTruth,
    load_activations,
    load_frames,
    load_ground_truth,
)
from .pipeline import (
    DetectionResult,
    DetectorConfig,
    Emission,
    ScoreSeries,
    StreamingDetector,
    run_detector,
)
from .unmasking import UnmaskingProfile, WindowBatch, score, unmask

__version__ = "0.1.0"

__all__ = [
    "ActivationFrame",
    "AlignmentError",
    "BinLayout",
    "CapabilityError",
    "DataError",
    "DetectionResult",
    "DetectorConfig",
    "Emission",
    "FormatError",
    "Frame",
    "GroundTruth",
    "OrderingError",
    "RocReport",
    "ScoreSeries",
    "StreamTooShortError",
    "StreamingDetector",
    "TruncationError",
    "UnmaskingProfile",
    "VideoAnomalyError",
    "WindowBatch",
    "bin_activations",
    "cube_grid",
    "cube_score_map",
    "frame_auc",
    "gradient_feature",
    "load_activations",
    "load_frames",
    "load_ground_truth",
    "pixel_auc",
    "run_detector",
    "score",
    "unmask",
]
