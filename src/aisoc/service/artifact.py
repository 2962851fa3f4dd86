"""Single-file versioned artifact container with canonical serialization.

The container is one JSON document holding every fitted component plus a
SHA-256 checksum computed over the canonical (sorted-keys, compact) payload
bytes. Canonical serialization makes save -> load -> save byte-identical,
so fixed-seed pipelines reproduce artifacts exactly. An artifact missing
components is saved with status PARTIAL and is refused by the scorer and
the HTTP service.

An artifact is an immutable value: a stage that fits a component returns
a new artifact (``dataclasses.replace``), so each value hashes its payload
at most once, and the components' arrays are read-only, since values share
them. An artifact is also its own scorer: ``ModelArtifact`` inherits the
scoring methods of ``Scorer``, and ``to_scorer()`` is the SERVING check,
which returns the artifact itself or refuses a PARTIAL one.

Format 2 stores each tree as the forest's flat node lists. Format 1 stored
each tree as nested node objects; such a file still loads, converted to
the same lists, and is written back as format 2.
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

import numpy as np

from ..calibrate import CalibrationMethod, Calibrator
from ..errors import ArtifactError
from ..features import Standardizer, Vocabulary
from ..fusion import FusionConfig
from ..learn.forest import ForestModel, node_lists_of_nested
from ..learn.logistic import LogisticModel
from .scorer import Scorer

FORMAT_VERSION = "2"
SERVING = "SERVING"
PARTIAL = "PARTIAL"

_COMPONENTS = ("vocabulary", "logistic", "calibrator_logs", "standardizer",
               "forest", "calibrator_malware", "fusion")
PAIR_COMPONENTS = _COMPONENTS[:-1]  # what scores a pair; ``fusion`` only triages it
# the keys ``ModelArtifact.to_payload`` writes
_PAYLOAD_KEYS = frozenset(("format_version", "created_at", "status", "vocabulary", "logistic",
                           "calibrators", "standardizer", "forest", "fusion", "fingerprints"))


def canonical_json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True, allow_nan=False).encode("ascii")


def checksum_of(payload: dict) -> str:
    return "sha256:" + hashlib.sha256(canonical_json_bytes(payload)).hexdigest()


@dataclass(frozen=True)
class ModelArtifact(Scorer):
    """Fitted components, each ``None`` until its stage has run.

    ``created_at`` (epoch ms) defaults to the wall clock; reproducible
    pipelines pass their own so two runs write byte-identical files.
    ``dataclasses.replace`` shares the components, so their arrays are
    made read-only here.
    """

    format_version = FORMAT_VERSION  # the only format written
    created_at: int = field(default_factory=lambda: time.time_ns() // 1_000_000)
    vocabulary: Vocabulary | None = None
    logistic: LogisticModel | None = None
    calibrator_logs: Calibrator | None = None
    standardizer: Standardizer | None = None
    forest: ForestModel | None = None
    calibrator_malware: Calibrator | None = None
    fusion: FusionConfig | None = None
    fingerprints: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "fingerprints", MappingProxyType(dict(self.fingerprints)))
        for name in _COMPONENTS:
            component = getattr(self, name)
            for value in () if component is None else vars(component).values():
                if isinstance(value, np.ndarray):
                    value.flags.writeable = False

    def missing_components(self) -> list[str]:
        return [name for name in _COMPONENTS if getattr(self, name) is None]

    @property
    def status(self) -> str:
        return SERVING if not self.missing_components() else PARTIAL

    def to_payload(self) -> dict:
        def _opt(component):
            return None if component is None else component.to_dict()

        return {
            "format_version": self.format_version,
            "created_at": self.created_at,
            "status": self.status,
            "vocabulary": _opt(self.vocabulary),
            "logistic": _opt(self.logistic),
            "calibrators": {"logs": _opt(self.calibrator_logs),
                            "malware": _opt(self.calibrator_malware)},
            "standardizer": _opt(self.standardizer),
            "forest": _opt(self.forest),
            "fusion": _opt(self.fusion),
            "fingerprints": dict(self.fingerprints),
        }

    @cached_property
    def checksum(self) -> str:
        return checksum_of(self.to_payload())

    @cached_property
    def version(self) -> str:
        """Short content-derived identifier reported by the service."""
        return self.checksum.split(":", 1)[1][:12]

    @classmethod
    def from_payload(cls, payload: dict) -> "ModelArtifact":
        def _opt(value, parser):
            return None if value is None else parser(value)

        calibrators = payload.get("calibrators", {})
        return cls(
            created_at=payload["created_at"],
            vocabulary=_opt(payload.get("vocabulary"), Vocabulary.from_dict),
            logistic=_opt(payload.get("logistic"), LogisticModel.from_dict),
            calibrator_logs=_opt(calibrators.get("logs"), Calibrator.from_dict),
            standardizer=_opt(payload.get("standardizer"), Standardizer.from_dict),
            forest=_opt(payload.get("forest"), ForestModel.from_dict),
            calibrator_malware=_opt(calibrators.get("malware"), Calibrator.from_dict),
            fusion=_opt(payload.get("fusion"), FusionConfig.from_dict),
            fingerprints=payload.get("fingerprints", {}),
        )

    def to_scorer(self, components: tuple[str, ...] = _COMPONENTS) -> "ModelArtifact":
        """This artifact, which scores with its own components, if it holds
        ``components``; by default all of them: the SERVING check."""
        missing = [name for name in self.missing_components() if name in components]
        if missing:
            raise ArtifactError(
                f"artifact is PARTIAL and cannot score; missing components: {', '.join(missing)}")
        return self


def save_artifact(artifact: ModelArtifact, path: str | Path) -> str:
    """Write the canonical container file; returns the content checksum.

    An artifact that ``load_artifact`` would refuse is not written. The
    file is replaced whole, so a failed write leaves the previous one.
    """
    problems = _inconsistencies(artifact)
    if problems:
        raise ArtifactError(f"{path}: not saved, inconsistent artifact: {'; '.join(problems)}")
    try:
        payload = canonical_json_bytes(artifact.to_payload())
    except ValueError as exc:  # a non-finite number: the canonical form has none
        raise ArtifactError(f"{path}: not saved, payload holds a non-finite number: {exc}") from exc
    checksum = "sha256:" + hashlib.sha256(payload).hexdigest()
    # the canonical envelope, spliced: sorted keys put "checksum" first
    _replace_file(Path(path), b'{"checksum":"%s","payload":%s}\n' % (checksum.encode(), payload))
    return checksum


def _replace_file(path: Path, data: bytes) -> None:
    """Write ``data`` to a new file beside ``path``, then rename it over ``path``."""
    part = path.with_name(f".{path.name}.{secrets.token_hex(4)}.part")
    try:
        with open(part, "xb") as out:
            out.write(data)
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def load_artifact(path: str | Path) -> ModelArtifact:
    """Load and verify a container file (checksum, format, keys, completeness, consistency)."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ArtifactError(f"cannot read artifact {path}: {exc}") from exc
    try:
        envelope = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # bad JSON or bytes, or nesting too deep
        raise ArtifactError(
            f"{path}: not a valid artifact container (truncated or corrupt, "
            f"checksum cannot be verified): {exc}") from exc
    if (not isinstance(envelope, dict) or set(envelope) != {"checksum", "payload"}
            or not isinstance(envelope["payload"], dict)):
        raise ArtifactError(f"{path}: not an artifact container (bad envelope keys)")
    payload = envelope["payload"]
    try:
        checksum = checksum_of(payload)
    except ValueError as exc:  # NaN or Infinity: the canonical form has no such number
        raise ArtifactError(f"{path}: payload holds a non-finite number: {exc}") from exc
    except RecursionError as exc:  # parsed, but one level too deep to encode again
        raise ArtifactError(f"{path}: payload nests too deep: {exc}") from exc
    if checksum != envelope["checksum"]:
        raise ArtifactError(f"{path}: checksum mismatch; file is corrupt")
    version = payload.get("format_version")
    if version not in (FORMAT_VERSION, "1"):
        raise ArtifactError(
            f"{path}: unknown format_version {version!r}, expected {FORMAT_VERSION!r} or '1'")
    # A payload that does not round-trip would hash differently once re-encoded.
    keys = set(payload)
    if keys - _PAYLOAD_KEYS:
        raise ArtifactError(f"{path}: unknown payload key(s) {sorted(keys - _PAYLOAD_KEYS)}")
    if _PAYLOAD_KEYS - keys:
        raise ArtifactError(f"{path}: payload lacks key(s) {sorted(_PAYLOAD_KEYS - keys)}")
    created_at, status = payload["created_at"], payload["status"]
    if not isinstance(created_at, int) or isinstance(created_at, bool):
        raise ArtifactError(f"{path}: created_at must be an integer (epoch ms), got {created_at!r}")
    if status not in (SERVING, PARTIAL):
        raise ArtifactError(f"{path}: status must be {SERVING} or {PARTIAL}, got {status!r}")
    try:
        if version == "1" and payload.get("forest") is not None:
            forest = payload["forest"]
            payload = {**payload,
                       "forest": {**forest, "trees": node_lists_of_nested(forest["trees"])}}
        artifact = ModelArtifact.from_payload(payload)
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ArtifactError(f"{path}: malformed component payload: {exc}") from exc
    if status != artifact.status:
        missing = ", ".join(artifact.missing_components()) or "none"
        raise ArtifactError(f"{path}: status {status} disagrees with the components; "
                            f"missing components: {missing}")
    problems = _inconsistencies(artifact)
    if problems:
        raise ArtifactError(f"{path}: inconsistent artifact: {'; '.join(problems)}")
    return artifact


def _forest_problems(forest: ForestModel) -> list[str]:
    """What keeps the node arrays from being ``n_trees`` trees that can score.

    Every child id must exceed its parent's and every node but a root must
    have exactly one parent; then following parents from any node ends at
    its tree's root, so each tree is a tree.
    """
    sizes = forest.tree_sizes
    if len(sizes) != forest.n_trees or not len(sizes):
        return [f"forest declares {forest.n_trees} trees and holds {len(sizes)}"]
    if np.any(sizes < 1):
        return ["forest holds a tree without nodes"]
    problems = []
    feature, left, right = forest.feature, forest.left, forest.right
    split = feature != -1
    bad = np.unique(feature[split & ((feature < 0) | (feature >= forest.n_features))])
    if len(bad):
        problems.append(f"forest splits on feature(s) {bad[:5].tolist()} outside "
                        f"[0, {forest.n_features})")
    start = np.repeat(np.cumsum(sizes) - sizes, sizes)  # each node's tree, as its first id
    node = np.arange(len(feature)) - start              # each node's id within its tree
    end = np.repeat(sizes, sizes)
    children_ok = np.where(split, (node < left) & (left < end) & (node < right) & (right < end),
                           (left == -1) & (right == -1))
    if not children_ok.all():
        problems.append("forest has a child id not above its parent's, outside its tree, "
                        "or on a leaf")
    else:
        parents = np.bincount(np.concatenate((left[split], right[split]))
                              + np.tile(start[split], 2), minlength=len(feature))
        if np.any(parents != (node > 0)):
            problems.append("forest has a node without exactly one parent")
    if np.any(forest.negatives < 0) or np.any(forest.positives < 0):
        problems.append("forest holds a negative class count")
    return problems


def _inconsistencies(artifact: ModelArtifact) -> list[str]:
    """What keeps the present components from scoring together, if anything.

    Each component parses on its own; this checks that their shapes agree
    and that their parameters are finite (a number stored as a string such
    as ``"nan"`` passes the checksum and the parse).
    """
    problems = []
    numbers: dict[str, np.ndarray] = {}
    vocab, logistic = artifact.vocabulary, artifact.logistic
    if vocab is not None:
        numbers["idf"] = vocab.idf
        if vocab.idf.shape != (vocab.size,):
            problems.append(f"{vocab.idf.size} idf weights for {vocab.size} vocabulary terms")
        if logistic is not None and logistic.weights.shape != (vocab.size,):
            problems.append(f"{logistic.weights.size} logistic weights for "
                            f"{vocab.size} vocabulary terms")
    if logistic is not None:
        numbers["logistic"] = np.append(logistic.weights, logistic.bias)
    std, forest = artifact.standardizer, artifact.forest
    if std is not None:
        numbers["standardizer"] = np.append(std.mean, std.std)
        if std.mean.ndim != 1 or std.std.shape != std.mean.shape:
            problems.append(f"standardizer has {std.mean.size} means and {std.std.size} scales")
        elif forest is not None and std.dimension != forest.n_features:
            problems.append(f"standardizer has {std.dimension} features, "
                            f"the forest {forest.n_features}")
    if forest is not None:
        numbers["forest"] = forest.threshold
        problems += _forest_problems(forest)
    for name in ("calibrator_logs", "calibrator_malware"):
        cal = getattr(artifact, name)
        if cal is None or cal.method is CalibrationMethod.IDENTITY:
            continue
        if cal.method is CalibrationMethod.PLATT:
            numbers[name] = np.array([cal.a, cal.b])
            continue
        xs, ys = cal.knot_scores, cal.knot_values
        numbers[name] = np.append(xs, ys)
        if xs.ndim != 1 or xs.shape != ys.shape or len(xs) == 0:
            problems.append(f"{name} has {xs.size} knot scores and {ys.size} knot values")
        elif np.any(np.diff(xs) < 0):
            problems.append(f"{name} knot scores are not sorted")
        elif not np.all((ys >= 0.0) & (ys <= 1.0)):
            problems.append(f"{name} knot values are not all in [0, 1]")
    problems += [f"{name} holds a non-finite number" for name, values in numbers.items()
                 if not np.all(np.isfinite(values))]
    return problems
