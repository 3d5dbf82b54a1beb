"""Training-free online video anomaly detection by unmasking.

Per sliding window, a regularized logistic classifier is trained to
separate the window's two halves; the most discriminative features are
iteratively eliminated and the mean training accuracy over the loops is
the anomaly score (easily separable halves = something changed). Includes
motion features (3D gradient cubes), appearance features (binned conv
activation maps), late fusion, temporal smoothing, and frame-level /
pixel-level ROC AUC evaluation.
"""

from .errors import (
    AlignmentError,
    CapabilityError,
    DataError,
    DegenerateBatchError,
    FormatError,
    OrderingError,
    StreamTooShortError,
    TruncationError,
    VideoAnomalyError,
)
from .evaluation import (
    RocReport,
    cube_score_map,
    frame_auc,
    grid_to_pixels,
    load_maps_npz,
    pixel_auc,
    smooth_map,
    write_maps_npz,
)
from .features import (
    BinLayout,
    bin_activations,
    cube_grid,
    gradient_feature,
)
from .ingest import (
    ActivationFrame,
    Frame,
    GroundTruth,
    load_activations,
    load_frames,
    load_ground_truth,
    load_labels,
    load_masks,
    read_pnm,
    resize_bilinear,
    write_activations,
    write_frames_y8,
    write_pgm,
)
from .pipeline import (
    DetectionResult,
    DetectorConfig,
    Emission,
    FeatureStore,
    ScoreSeries,
    StreamingDetector,
    aggregate,
    plan_windows,
    read_scores_csv,
    run_detector,
    smooth,
    window_batch,
    write_scores_csv,
)
from .unmasking import (
    ClassifierState,
    UnmaskingProfile,
    WindowBatch,
    eliminate_features,
    score,
    train_logistic,
    unmask,
)

__version__ = "0.1.0"

__all__ = [
    "ActivationFrame",
    "AlignmentError",
    "BinLayout",
    "CapabilityError",
    "ClassifierState",
    "DataError",
    "DegenerateBatchError",
    "DetectionResult",
    "DetectorConfig",
    "Emission",
    "FeatureStore",
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
    "aggregate",
    "bin_activations",
    "cube_grid",
    "cube_score_map",
    "eliminate_features",
    "frame_auc",
    "gradient_feature",
    "grid_to_pixels",
    "load_activations",
    "load_frames",
    "load_ground_truth",
    "load_labels",
    "load_maps_npz",
    "load_masks",
    "pixel_auc",
    "plan_windows",
    "read_pnm",
    "read_scores_csv",
    "resize_bilinear",
    "run_detector",
    "score",
    "smooth",
    "smooth_map",
    "train_logistic",
    "unmask",
    "window_batch",
    "write_activations",
    "write_frames_y8",
    "write_maps_npz",
    "write_pgm",
    "write_scores_csv",
]
