"""Artifact persistence, request scoring, HTTP serving, and batch scoring."""

from ..readonly import canonical_json_bytes
from .artifact import FORMAT_VERSION, ModelArtifact, load_artifact, save_artifact
from .batch import score_batch, score_lines
from .http_api import ScoringService, serve
from .scorer import RequestError, Scorer

__all__ = [
    "FORMAT_VERSION",
    "ModelArtifact",
    "RequestError",
    "Scorer",
    "ScoringService",
    "canonical_json_bytes",
    "load_artifact",
    "save_artifact",
    "score_batch",
    "score_lines",
    "serve",
]
