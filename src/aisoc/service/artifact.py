"""Single-file versioned artifact container with canonical serialization.

The container is one JSON document holding every fitted component plus a
SHA-256 checksum computed over the canonical (sorted-keys, compact) payload
bytes. Canonical serialization makes save -> load -> save byte-identical,
so fixed-seed pipelines reproduce artifacts exactly. An artifact missing
components is saved with status PARTIAL and is refused by the scorer and
the HTTP service.

Each component's canonical bytes are encoded at most once per component
value and kept on it (``_component_bytes``); a forest is encoded one tree
at a time, so its node lists never all exist as Python lists. The payload's
bytes are spliced from those parts in sorted-key order (``_splice``), the
same bytes ``canonical_json_bytes(artifact.to_payload())`` gives, and one
table (``ModelArtifact._parts``) states the payload's keys for
``to_payload``, the spliced bytes and ``_mismatch``. So a stage that saves
components it did not change encodes none of them again.

One rule loads a format-2 file: it must be the canonical encoding of the
artifact it loads as. That artifact's payload is encoded once, which fills
its components' bytes, and its checksum must equal the file's, so
``version`` is the hash of the file's payload. The stored payload is hashed
only when they differ, to tell a corrupt file from one that does not
round-trip, whose top-level keys are then compared with the parts the
checksum hashed. A wrong value that round-trips passes the rule (a
``created_at`` string, a ``max_depth`` of 0), so besides the framing and
the checksum this module checks the format version, an integer
``created_at``, that every number is finite and that the components agree
(``_inconsistencies``). A stored forest's own rules
are stated in ``learn.forest`` (``ForestModel.problems``).

An artifact is an immutable value: a stage that fits a component returns
a new artifact (``dataclasses.replace``), so each value hashes its payload
at most once; a load or a save takes that hash from the encode it does
anyway. The components are frozen dataclasses whose arrays are read-only,
since values share them. An artifact is also its own scorer:
``ModelArtifact`` inherits the scoring methods of ``Scorer``, and
``to_scorer()`` is the SERVING check, which returns the artifact itself or
refuses a PARTIAL one.

Format 2 stores each tree as the forest's flat node lists. Format 1 stored
each tree as nested node objects; such a file still loads, converted to
the same lists, and is written back as format 2. Its checksum must match
its payload as stored, and its version is that of the format-2 re-encode.
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
from typing import Mapping

import numpy as np

from ..calibrate import CalibrationMethod, Calibrator
from ..errors import ArtifactError
from ..features import Standardizer, Vocabulary
from ..fusion import FusionConfig
from ..learn.forest import ForestModel, node_lists_of_nested
from ..learn.logistic import LogisticModel
from ..readonly import canonical_json_bytes, read_only
from .scorer import Scorer

FORMAT_VERSION = "2"
SERVING = "SERVING"
PARTIAL = "PARTIAL"

_COMPONENTS = ("vocabulary", "logistic", "calibrator_logs", "standardizer",
               "forest", "calibrator_malware", "fusion")
PAIR_COMPONENTS = _COMPONENTS[:-1]  # what scores a pair; ``fusion`` only triages it


def _checksum(chunks: list[bytes]) -> str:
    """The checksum of the bytes ``chunks`` join to, without joining them."""
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return "sha256:" + digest.hexdigest()


def checksum_of(payload: dict) -> str:
    return _checksum([canonical_json_bytes(payload)])


def _splice(parts: Mapping[str, bytes]) -> list[bytes]:
    """``canonical_json_bytes`` of ``{key: value}`` in pieces, from each value's
    canonical bytes; keys are plain names, so they need no escapes."""
    chunks = [b"{"]
    for n, key in enumerate(sorted(parts)):
        chunks += [b'%s"%s":' % (b"," if n else b"", key.encode("ascii")), parts[key]]
    return chunks + [b"}"]


def _component_bytes(component) -> bytes:
    """``canonical_json_bytes(component.to_dict())``, encoded once per component
    value and kept on it: components are frozen and their arrays read-only. A
    forest is encoded one tree at a time, its other fields one by one."""
    encoded = vars(component).get("_canonical_bytes")
    if encoded is None:
        if isinstance(component, ForestModel):
            parts = {key: canonical_json_bytes(value)
                     for key, value in component.header_dict().items()}
            parts["trees"] = b"[%s]" % b",".join(map(canonical_json_bytes, component.tree_dicts()))
            encoded = b"".join(_splice(parts))
        else:
            encoded = canonical_json_bytes(component.to_dict())
        vars(component)["_canonical_bytes"] = encoded
    return encoded


def _part_json(part):
    """A payload part (see ``ModelArtifact._parts``) as JSON data."""
    if isinstance(part, dict):
        return {key: _part_json(value) for key, value in part.items()}
    if hasattr(part, "to_dict"):
        return part.to_dict()
    return dict(part) if isinstance(part, Mapping) else part


def _part_bytes(part) -> bytes:
    """``canonical_json_bytes(_part_json(part))``, a component's from its kept bytes."""
    if isinstance(part, dict):
        return b"".join(_splice({key: _part_bytes(value) for key, value in part.items()}))
    if hasattr(part, "to_dict"):
        return _component_bytes(part)
    return canonical_json_bytes(_part_json(part))


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
        object.__setattr__(self, "fingerprints", read_only(self.fingerprints))
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

    def _parts(self) -> dict:
        """The payload's keys, each with its part: a component (``None`` if
        absent), a dict of components (``calibrators``) or a JSON value (the
        ``fingerprints`` as their read-only mapping)."""
        return {
            "format_version": self.format_version,
            "created_at": self.created_at,
            "status": self.status,
            "vocabulary": self.vocabulary,
            "logistic": self.logistic,
            "calibrators": {"logs": self.calibrator_logs, "malware": self.calibrator_malware},
            "standardizer": self.standardizer,
            "forest": self.forest,
            "fusion": self.fusion,
            "fingerprints": self.fingerprints,
        }

    def to_payload(self) -> dict:
        return _part_json(self._parts())

    def _encoded_parts(self) -> dict[str, bytes]:
        """Each payload key's canonical bytes."""
        return {key: _part_bytes(part) for key, part in self._parts().items()}

    def payload_chunks(self) -> list[bytes]:
        """``canonical_json_bytes(self.to_payload())``, in pieces to write or hash."""
        return _splice(self._encoded_parts())

    @cached_property
    def checksum(self) -> str:
        return _checksum(self.payload_chunks())

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
        payload = artifact.payload_chunks()
    except ValueError as exc:  # a non-finite number: the canonical form has none
        raise ArtifactError(f"{path}: not saved, payload holds a non-finite number: {exc}") from exc
    checksum = _checksum(payload)
    vars(artifact)["checksum"] = checksum  # seeds the cached property: one hash per save
    # the canonical envelope, spliced: sorted keys put "checksum" first
    _replace_file(Path(path), [b'{"checksum":"%s","payload":' % checksum.encode(), *payload,
                               b"}\n"])
    return checksum


def _replace_file(path: Path, chunks: list[bytes]) -> None:
    """Write ``chunks`` to a new file beside ``path``, then rename it over ``path``."""
    part = path.with_name(f".{path.name}.{secrets.token_hex(4)}.part")
    try:
        with open(part, "xb") as out:
            for chunk in chunks:
                out.write(chunk)
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def load_artifact(path: str | Path) -> ModelArtifact:
    """Load and verify a container file: format 2 must be the canonical encoding of
    the artifact it loads as (encoded once, for ``checksum``); format 1 is hashed as stored."""
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
    version = payload.get("format_version")
    if version not in (FORMAT_VERSION, "1"):
        raise ArtifactError(
            f"{path}: unknown format_version {version!r}, expected {FORMAT_VERSION!r} or '1'")
    created_at = payload.get("created_at")  # a string would round-trip
    if not isinstance(created_at, int) or isinstance(created_at, bool):
        raise ArtifactError(f"{path}: created_at must be an integer (epoch ms), got {created_at!r}")
    try:
        if version == "1" and payload.get("forest") is not None:
            forest = payload["forest"]
            payload = {**payload,
                       "forest": {**forest, "trees": node_lists_of_nested(forest["trees"])}}
        artifact = ModelArtifact.from_payload(payload)
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ArtifactError(f"{path}: malformed component payload: {exc}") from exc
    problems = _inconsistencies(artifact)
    if problems:
        raise ArtifactError(f"{path}: inconsistent artifact: {'; '.join(problems)}")
    stored = envelope["checksum"]
    del envelope, payload  # so the parsed JSON is freed before the encode: a lower peak
    try:
        checksum = artifact.checksum
    except (ValueError, RecursionError) as exc:  # NaN or Infinity, or nesting too deep
        raise ArtifactError(f"{path}: payload has no canonical encoding: {exc}") from exc
    if checksum != stored and (problem := _mismatch(json.loads(raw), artifact)):
        raise ArtifactError(f"{path}: {problem}")
    return artifact


def _mismatch(envelope: dict, artifact: ModelArtifact) -> str | None:
    """Why a file that loads as ``artifact`` under another checksum (every format-1 file)
    is refused: it is corrupt, else, in format 2, the keys ``artifact`` encodes otherwise."""
    payload = envelope["payload"]
    try:
        if checksum_of(payload) != envelope["checksum"]:
            return "checksum mismatch; file is corrupt"
    except (ValueError, RecursionError):  # no canonical encoding, so no checksum matches
        return "checksum mismatch; file is corrupt"
    if payload["format_version"] == "1":
        return None
    stored = {key: canonical_json_bytes(value) for key, value in payload.items()}
    written = artifact._encoded_parts()  # the parts the checksum hashed
    keys = sorted(k for k in stored.keys() | written.keys() if stored.get(k) != written.get(k))
    missing = ", ".join(artifact.missing_components()) or "none"
    return (f"payload is not the canonical encoding of the artifact it loads as: "
            f"key(s) {keys} differ; missing components: {missing}")


def _inconsistencies(artifact: ModelArtifact) -> list[str]:
    """What keeps the present components from scoring together, if anything.

    Each component parses on its own; this checks that their shapes agree,
    that their parameters are finite (a number stored as a string such as
    ``"nan"`` passes the checksum and the parse), that the IDF weights
    are positive and the standardizer's scales not negative, as training
    writes them, and that the forest passes its own check.
    """
    problems = []
    numbers: dict[str, np.ndarray] = {}
    vocab, logistic = artifact.vocabulary, artifact.logistic
    if vocab is not None:
        numbers["idf"] = vocab.idf
        if vocab.idf.shape != (vocab.size,):
            problems.append(f"{vocab.idf.size} idf weights for {vocab.size} vocabulary terms")
        if np.any(vocab.idf <= 0.0):
            problems.append("vocabulary idf holds a weight <= 0")
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
        elif (forest is not None and not forest.field_problems()
              and std.dimension != forest.n_features):
            problems.append(f"standardizer has {std.dimension} features, "
                            f"the forest {forest.n_features}")
        if np.any(std.std < 0.0):
            problems.append("standardizer std holds a negative scale")
    if forest is not None:
        numbers["forest"] = forest.threshold
        problems += forest.problems()
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
