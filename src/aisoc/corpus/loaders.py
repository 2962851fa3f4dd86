"""Schema-validated loading and writing of log NDJSON and malware CSV files.

``read_ndjson`` and ``write_ndjson`` serve every NDJSON file: logs, manifests
and batch requests. Per-line data problems (bad lines or fields, non-finite
features) are counted and skipped; structural problems (unreadable file, CSV
text that is not UTF-8 or CSV, missing label column, ragged CSV rows) abort
with a ``LoadError`` that names the offending line.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TextIO

from ..errors import LoadError
from ..readonly import encode_json_line
from .records import Channel, Label, LogRecord, MalwareSample, Origin, parse_label

# The malware CSV's non-feature columns, which the writer writes and the loader reads
LABEL_COLUMN = "label"
ID_COLUMN = "sample_id"

_LOG_FIELDS = {"timestamp", "host", "channel", "message", "label", "origin"}
_LOG_REQUIRED = {"timestamp", "host", "channel", "message"}


@dataclass
class LogLoadResult:
    records: list[LogRecord] = field(default_factory=list)
    rejected: int = 0
    reject_reasons: list[tuple[int, str]] = field(default_factory=list)


@dataclass
class MalwareLoadResult:
    samples: list[MalwareSample] = field(default_factory=list)
    rejected: int = 0
    reject_reasons: list[tuple[int, str]] = field(default_factory=list)


def _parse_log_line(obj: dict) -> LogRecord:
    if not isinstance(obj, dict):
        raise ValueError("line is not a JSON object")
    unknown = set(obj) - _LOG_FIELDS
    if unknown:
        raise ValueError(f"unknown fields {sorted(unknown)}")
    missing = _LOG_REQUIRED - set(obj)
    if missing:
        raise ValueError(f"missing fields {sorted(missing)}")
    if not isinstance(obj["host"], str) or not isinstance(obj["message"], str):
        raise ValueError("host and message must be strings")
    (obj["host"] + obj["message"]).encode("utf-8")  # a lone surrogate raises UnicodeEncodeError
    return LogRecord(timestamp=obj["timestamp"], host=obj["host"],
                     channel=Channel(obj["channel"]), message=obj["message"],
                     label=None if obj.get("label") is None else Label(obj["label"]),
                     origin=Origin(obj.get("origin", "LOADED")))


# One decoder for every line: ``raw_decode`` skips ``json.loads``' BOM test,
# whitespace scans and extra-data check, which only the fallback needs.
_RAW_DECODE = json.JSONDecoder().raw_decode


def decode_ndjson(lines: Iterable[bytes | str],
                  parse: Callable[[Any], Any]) -> Iterator[tuple[int, Any, str | None]]:
    """``(number, parse(value), None)`` per non-blank line, or ``(number, None, reason)``
    when the line is not UTF-8, not JSON or fails ``parse`` (``ValueError``), or
    nests too deep (``RecursionError``). Blank lines are skipped but numbered.

    A line's value is ``json.loads(line)``'s, and a bad line's reason is its
    error message: ``raw_decode`` reads the line, and only a value that ends
    exactly at the line's end is taken from it; every other line (a BOM,
    whitespace around the value, extra data, any error) is decoded again by
    ``json.loads``. How deep a line may nest depends on the caller's stack,
    as it does for ``json.loads``."""
    for lineno, line in enumerate(lines, start=1):
        try:
            text = line.decode("utf-8") if isinstance(line, bytes) else line
            if not text or text.isspace():
                continue
            try:
                value, end = _RAW_DECODE(text)
            except (ValueError, RecursionError):
                end = -1
            if end != len(text):
                value = json.loads(text)
            value = parse(value)
        except (ValueError, RecursionError) as exc:
            yield lineno, None, str(exc)
        else:
            yield lineno, value, None


def read_ndjson(path: str | Path, parse: Callable[[Any], Any],
                what: str = "") -> Iterator[tuple[int, Any, str | None]]:
    """``decode_ndjson`` over the file at ``path``, read lazily; a line ends in LF or CRLF."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise LoadError(f"cannot read {what}{path}: {exc}") from exc
    with fh:
        yield from decode_ndjson((line.removesuffix(b"\n").removesuffix(b"\r") for line in fh),
                                 parse)


def write_ndjson(objs: Iterable, target: str | Path | TextIO) -> None:
    """Each object as one ``encode_json_line`` line, to an open text stream or
    to the file at ``target`` (UTF-8, LF line ends)."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8", newline="\n") as fh:
            return write_ndjson(objs, fh)
    target.writelines(encode_json_line(obj) + "\n" for obj in objs)


def load_log_ndjson(path: str | Path) -> LogLoadResult:
    """Load log records from an NDJSON file; bad lines are counted and skipped."""
    result = LogLoadResult()
    for lineno, record, reason in read_ndjson(path, _parse_log_line):
        if reason is None:
            result.records.append(record)
        else:
            result.rejected += 1
            result.reject_reasons.append((lineno, reason))
    return result


def write_log_ndjson(records: list[LogRecord], path: str | Path) -> None:
    write_ndjson(({"timestamp": r.timestamp, "host": r.host, "channel": r.channel.value,
                   "message": r.message, **({} if r.label is None else {"label": r.label.value}),
                   "origin": r.origin.value} for r in records), path)


def load_malware_csv(path: str | Path, label_column: str = LABEL_COLUMN,
                     id_column: str | None = ID_COLUMN) -> MalwareLoadResult:
    """Load malware samples from an RFC-4180 CSV file with a header row; a file
    without an id column needs ``id_column=None`` (samples named ``row<line>``)."""
    try:
        data = Path(path).read_bytes()
        reader = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
        rows = list(reader)
    except OSError as exc:
        raise LoadError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise LoadError(f"{path}: line {lineno}: {exc}") from exc
    except csv.Error as exc:
        raise LoadError(f"{path}: line {reader.line_num}: {exc}") from exc
    if not rows:
        raise LoadError(f"{path}: empty file, expected a header row")
    header = rows[0]
    if label_column not in header:
        raise LoadError(f"{path}: label column {label_column!r} not found in header {header}")
    if id_column is not None and id_column not in header:
        raise LoadError(f"{path}: id column {id_column!r} not found in header {header}")
    label_idx = header.index(label_column)
    id_idx = header.index(id_column) if id_column is not None else None
    feature_idx = [i for i in range(len(header)) if i != label_idx and i != id_idx]

    result = MalwareLoadResult()
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise LoadError(
                f"{path}: line {lineno}: expected {len(header)} columns, got {len(row)}")
        try:
            features = tuple(float(row[i]) for i in feature_idx)
            label = parse_label(row[label_idx])
            sample_id = row[id_idx] if id_idx is not None else f"row{lineno}"
            result.samples.append(
                MalwareSample(sample_id=sample_id, features=features, label=label))
        except ValueError as exc:
            result.rejected += 1
            result.reject_reasons.append((lineno, str(exc)))
    return result


def write_malware_csv(samples: list[MalwareSample], path: str | Path) -> None:
    """``samples`` under the header ``sample_id,f0,...,f<d-1>,label``."""
    if samples:
        dim = samples[0].dimension
        if any(s.dimension != dim for s in samples):
            raise LoadError("samples have inconsistent feature dimensionality")
    else:
        dim = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([ID_COLUMN, *[f"f{i}" for i in range(dim)], LABEL_COLUMN])
        for s in samples:
            label = "" if s.label is None else s.label.value
            writer.writerow([s.sample_id, *[repr(v) for v in s.features], label])
