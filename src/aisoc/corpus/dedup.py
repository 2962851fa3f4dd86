"""Near-duplicate removal for log corpora.

Two records are near-duplicates when the Jaccard similarity of their
lowercased alphanumeric token sets reaches the threshold and their labels
match; the earliest record of each group is kept. Records with different
labels are never merged.

``dedup_near_identical`` is an exact incremental prefix-filtered join
(Bayardo et al. 2007, *Scaling Up All Pairs Similarity Search*; Xiao et al.
2008, *PPJoin*). Records are visited in timestamp order. The tokens of
every record are sorted by one global order, rarest first (document
frequency over the input, ties by the token string). Each kept record adds
the first ``n - o(n) + 1`` of its ``n`` sorted tokens, its prefix, to an
inverted index of its label; a new record looks up only its own prefix,
and a candidate that passes the size filter gets the final
``jaccard(kept, new) >= threshold`` test, the comparison the all-pairs
loop made.

Why no true pair is missed. ``o(n)`` is the smallest integer ``o`` with
``o / n >= threshold``, found with the same correctly rounded division
``jaccard`` uses, never with a product ``threshold * n``, which rounds:
``0.28 * 25 == 7.000000000000001`` although ``7 / 25 == 0.28``, so a
ceiling would make the prefix one token too short and miss the pair.
Correctly rounded division is monotone, and ``inter <= min`` and
``union >= max``, so ``jaccard >= t`` implies ``min / max >= t`` (the size
filter) and ``inter / n >= t``, i.e. ``inter >= o(n)``, for both sizes.
Two sets that share at least ``o`` tokens under one order share a token
among their first ``n - o + 1``: the rarest shared token cannot lie in the
last ``o - 1`` of either set, which hold too few tokens for all of the
shared ones. Two cases have no shared token to look up and stay outside
the index: threshold 0, where every record after the first of its label is
a duplicate, and empty token sets, where two empty sets have similarity 1
and an empty set has 0 with any other.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import Counter, defaultdict

from ..errors import ConfigError
from .records import LogRecord

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def message_tokens(message: str) -> frozenset[str]:
    return frozenset(_TOKEN_RE.findall(message.lower()))


def jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    if not a and not b:
        return 1.0
    inter = len(a & b)
    if inter == 0:
        return 0.0
    return inter / (len(a) + len(b) - inter)


def _min_overlap(n: int, threshold: float) -> int:
    """The smallest ``o`` with ``o / n >= threshold``, for ``n >= 1``."""
    return bisect_left(range(n + 1), True, key=lambda o: o / n >= threshold)


def dedup_near_identical(records: list[LogRecord], threshold: float = 0.9) -> list[LogRecord]:
    """Drop near-duplicates, keeping the earliest record of each group."""
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"threshold must be in [0, 1], got {threshold}")
    ordered = sorted(records, key=lambda r: r.timestamp)
    if threshold == 0:
        first_of_label = {}
        for rec in ordered:
            first_of_label.setdefault(rec.label, rec)
        return list(first_of_label.values())

    token_sets = [message_tokens(rec.message) for rec in ordered]
    df = Counter(tok for tokens in token_sets for tok in tokens)
    rank = {tok: i for i, tok in enumerate(sorted(df, key=lambda tok: (df[tok], tok)))}
    prefix_len: dict[int, int] = {}
    index: dict = defaultdict(lambda: defaultdict(list))  # label -> token -> kept ids
    empty_labels = set()
    kept: list[LogRecord] = []
    kept_tokens: list[frozenset[str]] = []
    for rec, tokens in zip(ordered, token_sets):
        n = len(tokens)
        if n == 0:
            if rec.label in empty_labels:
                continue
            empty_labels.add(rec.label)
        else:
            if n not in prefix_len:
                prefix_len[n] = n - _min_overlap(n, threshold) + 1
            prefix = sorted(tokens, key=rank.__getitem__)[:prefix_len[n]]
            postings = index[rec.label]
            candidates = {j for tok in prefix for j in postings.get(tok, ())}
            if any(min(len(kept_tokens[j]), n) / max(len(kept_tokens[j]), n) >= threshold
                   and jaccard(kept_tokens[j], tokens) >= threshold for j in candidates):
                continue
            for tok in prefix:
                postings[tok].append(len(kept))
        kept.append(rec)
        kept_tokens.append(tokens)
    return kept
