"""Exception types shared across the toolkit, and how their messages quote input."""

from typing import Callable

# At 20, the 400 reply to a 60 000-character ``Content-Length`` is under 300 bytes.
_EXCERPT_CHARS = 20


def excerpt(text: str, show: Callable[[str], str] = str) -> str:
    """``show(text)``, or for a longer text ``show`` of its first ``_EXCERPT_CHARS``
    characters, then ``…`` and its length: a message echoes a bounded part of
    a client value."""
    if len(text) <= _EXCERPT_CHARS:
        return show(text)
    return f"{show(text[:_EXCERPT_CHARS])}… ({len(text)} chars)"


class AisocError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(AisocError):
    """Invalid scenario, augmentation, or CLI configuration."""


class LoadError(AisocError):
    """A data file could not be read or is structurally invalid."""


class SplitError(AisocError):
    """A dataset split could not be produced as specified."""


class TrainingError(AisocError):
    """A transformer or model could not be fitted (e.g. single-class input)."""


class DimensionError(AisocError):
    """Feature dimension of an input does not match a fitted component."""


class CalibrationError(AisocError):
    """Score calibration could not be fitted on the given data."""


class TuningError(AisocError):
    """Threshold tuning preconditions were violated."""


class MetricError(AisocError):
    """A metric is undefined for the given inputs."""


class ArtifactError(AisocError):
    """A model artifact could not be saved, loaded, or served."""
