"""Request scoring, as methods of the artifact that holds the models.

``Scorer`` holds no fields: ``ModelArtifact`` inherits it, so an artifact
scores with its own components, and ``ModelArtifact.to_scorer()`` only
checks that it holds all of them. One kernel serves every caller.
``Scorer.score_log`` and ``score_malware`` take one item and return a
float, or a block (a list of messages, an (n, d) matrix of feature rows)
and return an array; either way the feature transform, the detector and
the calibrator each run once per call, and the detector's raw score is
``raw_log_score`` or ``raw_malware_score``, the inputs calibration fits on.
``score_request`` (HTTP) scores one request and ``score_many`` (batch,
evaluation) a block of them, through the same ``validate`` and the same
response builder, so both paths give the same bits.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .. import calibrate
from ..errors import DimensionError
from ..features import transform_dense, transform_text
from ..fusion import TriageLabel, fuse_scores
from ..learn.forest import score_forest
from ..learn.logistic import score_logistic

_REQUEST_FIELDS = {"log_message", "malware_features", "entity_id"}


class RequestError(ValueError):
    """A scoring request is malformed (HTTP layer maps this to 400)."""


def check_feature_row(features) -> None:
    """Raise ``RequestError`` unless ``features`` is a list or tuple of finite numbers.

    Booleans are not numbers here.
    """
    if (not isinstance(features, (list, tuple))
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       for v in features)):
        raise RequestError("malware_features must be an array of numbers")
    try:
        finite = all(map(math.isfinite, features))
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise RequestError("malware_features must be finite")


class ScoreRequest(NamedTuple):
    """A validated request; ``None`` marks an absent field."""

    log_message: str | None
    malware_features: list | None
    entity_id: str | None

    @property
    def modality(self) -> str:
        if self.log_message is None:
            return "malware_only"
        return "logs_only" if self.malware_features is None else "fused"


class Scorer:
    """Scoring methods of ``ModelArtifact``, over its components and ``version``."""

    def raw_log_score(self, message):
        """The logistic model's uncalibrated probability (an array for a list)."""
        return score_logistic(self.logistic, transform_text(message, self.vocabulary))

    def raw_malware_score(self, features):
        """The forest's uncalibrated probability (an array for a matrix)."""
        return score_forest(self.forest, transform_dense(features, self.standardizer))

    def score_log(self, message):
        """Calibrated probability that a log line is malicious (an array for a list)."""
        return calibrate.apply(self.calibrator_logs, self.raw_log_score(message))

    def score_malware(self, features):
        """Calibrated probability that a static-feature row is malicious (an array for a matrix)."""
        return calibrate.apply(self.calibrator_malware, self.raw_malware_score(features))

    def triage(self, s_m: float, s_l: float) -> TriageLabel:
        return fuse_scores(s_m, s_l, self.fusion.t_m, self.fusion.t_l)

    def validate(self, request) -> ScoreRequest:
        """Check one decoded {log_message?, malware_features?, entity_id?} request.

        The first problem found raises ``RequestError``; at least one
        modality must be present.
        """
        if not isinstance(request, dict):
            raise RequestError("request must be a JSON object")
        unknown = set(request) - _REQUEST_FIELDS
        if unknown:
            raise RequestError(f"unknown request fields: {sorted(unknown)}")
        message = request.get("log_message")
        features = request.get("malware_features")
        if message is None and features is None:
            raise RequestError("request needs log_message and/or malware_features")
        if message is not None and not isinstance(message, str):
            raise RequestError("log_message must be a string")
        if features is not None:
            check_feature_row(features)
            try:
                self.standardizer.check_width(len(features))
            except DimensionError as exc:
                raise RequestError(str(exc)) from None
        entity_id = request.get("entity_id")
        if "entity_id" in request and not isinstance(entity_id, str):
            raise RequestError("entity_id must be a string")
        if entity_id is not None:
            try:  # the reply echoes it, and a lone surrogate has no UTF-8 form
                entity_id.encode("utf-8")
            except UnicodeEncodeError:
                raise RequestError("entity_id must be valid Unicode") from None
        return ScoreRequest(message, features, entity_id)

    def _response(self, request: ScoreRequest, s_m: float | None, s_l: float | None) -> dict:
        """The reply to one scored request.

        A missing modality contributes score 0.0 to the fusion rule (the
        conservative no-evidence floor) and the reply names the degraded
        modality.
        """
        response: dict = {}
        if request.entity_id is not None:
            response["entity_id"] = request.entity_id
        if s_m is not None:
            response["s_m"] = s_m
        if s_l is not None:
            response["s_l"] = s_l
        response["label"] = self.triage(0.0 if s_m is None else s_m,
                                        0.0 if s_l is None else s_l).name
        response["modality"] = request.modality
        response["artifact_version"] = self.version
        return response

    def score_request(self, request) -> dict:
        """Validate and score one request: the n = 1 case of ``score_many``.

        Each modality goes to the kernel as a single item, so one request
        pays for no block bookkeeping.
        """
        req = self.validate(request)
        s_m = None if req.malware_features is None else self.score_malware(req.malware_features)
        s_l = None if req.log_message is None else self.score_log(req.log_message)
        return self._response(req, s_m, s_l)

    def score_many(self, requests: Sequence[ScoreRequest]) -> list[dict]:
        """Replies to validated requests, in order; one kernel call per modality."""
        messages = [r.log_message for r in requests if r.log_message is not None]
        rows = [r.malware_features for r in requests if r.malware_features is not None]
        s_l = iter(self.score_log(messages).tolist() if messages else ())
        s_m = iter(self.score_malware(rows).tolist() if rows else ())
        return [self._response(r, None if r.malware_features is None else next(s_m),
                               None if r.log_message is None else next(s_l))
                for r in requests]
