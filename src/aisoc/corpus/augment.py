"""Adversarial-style log augmentation.

Three mutation operators are supported:

* ``KEYWORD_OBFUSCATION`` rewrites security-salient keywords using the
  shipped obfuscation table (separator insertion, quote splitting, leet
  substitutions).
* ``CHAR_NOISE`` applies random character inserts/deletes/substitutes,
  bounded so Levenshtein(variant, source) <= ceil(0.15 * len(source)).
* ``SYNONYM_REPLACEMENT`` swaps benign vocabulary using the shipped
  synonym table.

When several operators are requested they compose in the fixed order
obfuscation -> synonyms -> noise. Variants keep the source record's label
and are marked ``origin=AUGMENTED``; by default they are emitted alongside
the originals (immediately after their source), with a replace mode that
substitutes them instead. Both mutation tables live in versioned JSON data
files next to this module so every possible rewrite is auditable, and both
table operators run one rewrite: each whole-word, case-insensitive match of a
table key (longest key first) becomes a random choice of that key's entries.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import replace as dc_replace
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Mapping

from ..errors import ConfigError
from ..readonly import read_only
from .records import LogRecord, Origin

_DATA_DIR = Path(__file__).parent / "data"
_NOISE_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"
_MAX_EDIT_RATE = 0.15


class AugmentOp(str, Enum):
    KEYWORD_OBFUSCATION = "KEYWORD_OBFUSCATION"
    CHAR_NOISE = "CHAR_NOISE"
    SYNONYM_REPLACEMENT = "SYNONYM_REPLACEMENT"


# Each table-driven operator: its data file and the key of its table there.
_TABLES = {
    AugmentOp.KEYWORD_OBFUSCATION: ("obfuscation_map.json", "keywords"),
    AugmentOp.SYNONYM_REPLACEMENT: ("synonym_map.json", "synonyms"),
}


@lru_cache(maxsize=None)
def _table(op: AugmentOp) -> tuple[Mapping[str, tuple[str, ...]], re.Pattern]:
    """The rewrite table of ``op``, read-only since every later rewrite reads
    this one cached copy, and the pattern matching its keys as whole words."""
    name, key = _TABLES[op]
    table = read_only(json.loads((_DATA_DIR / name).read_text(encoding="utf-8"))[key])
    # Longest keyword first so e.g. "netcat" wins over "nc"/"cat".
    words = sorted(table, key=lambda w: (-len(w), w))
    alternatives = "|".join(re.escape(w) for w in words)
    return table, re.compile(rf"(?<![a-z0-9])({alternatives})(?![a-z0-9])", re.IGNORECASE)


def obfuscation_table() -> Mapping[str, tuple[str, ...]]:
    return _table(AugmentOp.KEYWORD_OBFUSCATION)[0]


def synonym_table() -> Mapping[str, tuple[str, ...]]:
    return _table(AugmentOp.SYNONYM_REPLACEMENT)[0]


def _rewrite(message: str, op: AugmentOp, rng: random.Random) -> str:
    """``message`` with each match of ``op``'s table replaced by a random choice of its rewrites."""
    table, pattern = _table(op)
    return pattern.sub(lambda match: rng.choice(table[match.group(0).lower()]), message)


def char_noise(message: str, rng: random.Random) -> str:
    """Apply at most ceil(0.15 * len) single-character edits."""
    if not message:
        return message
    chars = list(message)
    k = rng.randint(1, max(1, math.floor(_MAX_EDIT_RATE * len(message))))
    for _ in range(k):
        ops = ["insert", "substitute"] if len(chars) <= 1 else ["insert", "delete", "substitute"]
        op = rng.choice(ops)
        if op == "insert":
            pos = rng.randrange(len(chars) + 1)
            chars.insert(pos, rng.choice(_NOISE_ALPHABET))
        elif op == "delete":
            del chars[rng.randrange(len(chars))]
        else:
            chars[rng.randrange(len(chars))] = rng.choice(_NOISE_ALPHABET)
    return "".join(chars)


def mutate_message(message: str, ops: Iterable[AugmentOp], rng: random.Random) -> str:
    ops = set(ops)
    for op in _TABLES:  # obfuscation, then synonyms
        if op in ops:
            message = _rewrite(message, op, rng)
    if AugmentOp.CHAR_NOISE in ops:
        message = char_noise(message, rng)
    return message


def augment(records: list[LogRecord], ops: Iterable[AugmentOp], rate: float,
            seed: int, replace: bool = False) -> list[LogRecord]:
    """Mutate a ``rate`` fraction of records with the selected operators."""
    ops = {AugmentOp(op) for op in ops}
    if not ops:
        raise ConfigError("augment requires at least one operator")
    if not 0.0 <= rate <= 1.0:
        raise ConfigError(f"rate must be in [0, 1], got {rate}")
    rng = random.Random(seed)
    out: list[LogRecord] = []
    for rec in records:
        if rng.random() >= rate:
            out.append(rec)
            continue
        mutated = mutate_message(rec.message, ops, rng)
        if rec.label is not None and not mutated.strip():
            mutated = rec.message  # noise must not blank a labeled line
        variant = dc_replace(rec, message=mutated, origin=Origin.AUGMENTED)
        if not replace:
            out.append(rec)
        out.append(variant)
    return out
