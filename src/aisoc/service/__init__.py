"""Artifact persistence, request scoring, HTTP serving, and batch scoring.

``ScoringService`` and ``serve`` live in ``http_api``, which loads the
stdlib HTTP server; it is imported on first access to either name (PEP
562), so a process that never serves does not load it.
"""

from ..readonly import canonical_json_bytes
from .artifact import FORMAT_VERSION, ModelArtifact, load_artifact, save_artifact
from .batch import score_batch, score_lines
from .scorer import RequestError, Scorer

_HTTP_NAMES = ("ScoringService", "serve")

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


def __getattr__(name: str):
    if name in _HTTP_NAMES:
        from . import http_api

        return getattr(http_api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
