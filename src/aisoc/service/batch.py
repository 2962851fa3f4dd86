"""Offline NDJSON batch scoring: one output object per input line, in order.

Lines are read in blocks of ``BLOCK_LINES``. Each block's lines are decoded
and validated one by one (a bad line becomes an error object in its place),
and the valid requests are scored together by ``Scorer.score_many``, the
kernel behind HTTP ``score_request``. The block size bounds the scoring
arrays whatever the length of the file.
"""

from __future__ import annotations

import json
from itertools import islice
from pathlib import Path
from typing import Iterable

from ..errors import LoadError
from .scorer import RequestError, Scorer

_BATCH_FIELDS = ("entity_id", "s_m", "s_l", "label")
BLOCK_LINES = 128


def _score_block(scorer: Scorer, block: list[tuple[int, str]]) -> list[dict]:
    results: list[dict] = []
    valid, slots = [], []
    for lineno, line in block:
        if not line.strip():
            continue
        try:
            valid.append(scorer.validate(json.loads(line)))
            slots.append(len(results))
            results.append({})
        # json.loads raises ValueError beyond JSONDecodeError for an integer
        # over the interpreter's digit limit, RecursionError when nested too deep
        except (ValueError, RecursionError, RequestError) as exc:
            results.append({"error": str(exc), "line": lineno})
    for slot, response in zip(slots, scorer.score_many(valid)):
        results[slot] = {k: response[k] for k in _BATCH_FIELDS if k in response}
    return results


def score_lines(scorer: Scorer, lines: Iterable[str]) -> list[dict]:
    """Score NDJSON request lines; malformed lines yield error objects in place."""
    numbered = enumerate(lines, start=1)
    results: list[dict] = []
    while block := list(islice(numbered, BLOCK_LINES)):
        results.extend(_score_block(scorer, block))
    return results


def score_batch(scorer: Scorer, input_path: str | Path,
                output_path: str | Path | None = None) -> list[dict]:
    """Score an NDJSON request file; optionally write the NDJSON results."""
    try:
        text = Path(input_path).read_text(encoding="utf-8")
    except OSError as exc:
        raise LoadError(f"cannot read batch input {input_path}: {exc}") from exc
    results = score_lines(scorer, text.split("\n"))
    if output_path is not None:
        with open(output_path, "w", encoding="utf-8", newline="\n") as fh:
            for obj in results:
                fh.write(json.dumps(obj, ensure_ascii=False) + "\n")
    return results
