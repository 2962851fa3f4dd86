"""aisoc: a desk-scale AI-SOC detection toolkit.

Two calibrated detectors (TF-IDF + logistic regression on log text, a
random forest on malware static features) are fused by a dual-threshold
rule into three triage levels: NORMAL, SUSPICIOUS, HIGH_CONFIDENCE_ATTACK.
The package covers the machinery around them: synthetic telemetry,
adversarial augmentation, splits, threshold tuning, evaluation,
artifact persistence, and an HTTP scoring service.
"""

from . import calibrate, corpus, evaluate, features, fusion, learn, metrics, pipeline, service
from .errors import (
    AisocError,
    ArtifactError,
    CalibrationError,
    ConfigError,
    DimensionError,
    LoadError,
    MetricError,
    SplitError,
    TrainingError,
    TuningError,
)
from .fusion import CalibratedScorePair, FusionConfig, TriageLabel, fuse_scores, tune_thresholds

__version__ = "0.1.0"

__all__ = [
    "AisocError",
    "ArtifactError",
    "CalibratedScorePair",
    "CalibrationError",
    "ConfigError",
    "DimensionError",
    "FusionConfig",
    "LoadError",
    "MetricError",
    "SplitError",
    "TrainingError",
    "TriageLabel",
    "TuningError",
    "calibrate",
    "corpus",
    "evaluate",
    "features",
    "fuse_scores",
    "fusion",
    "learn",
    "metrics",
    "pipeline",
    "service",
    "tune_thresholds",
    "__version__",
]
