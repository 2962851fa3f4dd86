"""Offline NDJSON batch scoring: one output object per non-blank input line, in order.

Lines go through the shared NDJSON reader, with ``Scorer.validate`` as the
schema check, in blocks of ``BLOCK_LINES`` non-blank lines. A bad line becomes
an error object in its place, and the valid requests of a block are scored
together by ``Scorer.score_many``, the kernel behind HTTP ``score_request``,
so the block size bounds the scoring arrays whatever the length of the file.
"""

from __future__ import annotations

import json  # noqa: F401 -- perfbench/spans.py swaps this name for a tracing proxy
from itertools import islice
from pathlib import Path
from typing import Any, Iterable, Iterator, TextIO

from ..corpus.loaders import decode_ndjson, read_ndjson, write_ndjson
from .scorer import Scorer

_BATCH_FIELDS = ("entity_id", "s_m", "s_l", "label")
BLOCK_LINES = 128


def _score_blocks(scorer: Scorer, decoded: Iterator[tuple[int, Any, str | None]]) -> list[dict]:
    results: list[dict] = []
    while block := list(islice(decoded, BLOCK_LINES)):
        replies = iter(scorer.score_many([req for _, req, reason in block if reason is None]))
        for lineno, _, reason in block:
            if reason is None:
                response = next(replies)
                results.append({k: response[k] for k in _BATCH_FIELDS if k in response})
            else:
                results.append({"error": reason, "line": lineno})
    return results


def score_lines(scorer: Scorer, lines: Iterable[bytes | str]) -> list[dict]:
    """Score NDJSON request lines; malformed lines yield error objects in place."""
    return _score_blocks(scorer, decode_ndjson(lines, scorer.validate))


def score_batch(scorer: Scorer, input_path: str | Path,
                output_path: str | Path | TextIO | None = None) -> list[dict]:
    """Score an NDJSON request file, read lazily; optionally write the NDJSON results
    to a path or text stream, which an unreadable input leaves untouched."""
    results = _score_blocks(scorer, read_ndjson(input_path, scorer.validate, "batch input "))
    if output_path is not None:
        write_ndjson(results, output_path)
    return results
