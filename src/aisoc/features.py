"""Feature extraction: TF-IDF text vectors and standardized dense vectors.

Tokenization lowercases the message and splits on whitespace plus Unicode
punctuation/symbol characters, except that ``.``, ``/``, ``-`` and ``:`` are
kept inside tokens so IPs, paths, and command flags survive as single
security-salient terms (trailing occurrences are trimmed; leading ones stay
so flags like ``-i`` survive). Tokens shorter than 2 characters are dropped
and pure integers longer than 4 digits collapse to the placeholder
``<num>``. The split runs in C: ``str.translate`` maps every separator to a
space through a table filled one character at a time from that rule, and
``str.split()`` cuts at the spaces (every whitespace character is itself a
separator, so the two agree on what a token is).

IDF uses the smoothed variant ``ln((1 + N) / (1 + df)) + 1`` (always > 0),
TF is the raw in-message count, and every non-empty vector is L2-normalized.

``transform_text`` turns a list of messages into one ``DesignMatrix`` in one
pass: Python maps each message's tokens to term ids, one ``np.sort`` of the
keys ``row * V + id`` and the lengths of its runs of equal keys give every
row's sorted term counts, and the TF-IDF values are computed elementwise. A
row's L2 norm is the ``np.sum`` of its squared values taken along axis 1 of
a 2-D array of rows of equal length, which sums each row in the same order
as a 1-D ``np.sum`` of that row alone (``np.add.reduceat`` does not). No
step calls ``np.unique``: its plain call imports ``numpy.ma``, and no code
in ``aisoc`` calls it, so no process loads ``numpy.ma``. The other modules a
command need not load are deferred too: the HTTP stack to ``serve`` and
``statistics`` to the seed sweep (the table is in
``tests/test_lazy_imports.py``). One message is the block of one, returned
as its ``SparseVector``; it counts its ids with a ``Counter`` and needs no
grouping. A message transforms to the same bits alone and in any block.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DimensionError, TrainingError
from .readonly import read_only

NUM_TOKEN = "<num>"
DEFAULT_MIN_DF = 2
DEFAULT_MAX_FEATURES = 20_000

_KEEP_CHARS = frozenset("./-:")


def _is_separator(ch: str) -> bool:
    if ch.isspace():
        return True
    if ch in _KEEP_CHARS:
        return False
    return unicodedata.category(ch)[0] in ("P", "S")


_TABLE_LIMIT = 4096


class _SeparatorTable(dict):
    """``str.translate`` table: separator code point -> space, others -> themselves.

    Entries are filled on first sight from ``_is_separator``; past
    ``_TABLE_LIMIT`` entries a character is classified without being stored,
    so input with many distinct characters cannot grow the table unbounded.
    """

    def __init__(self) -> None:
        super().__init__()
        for code in range(128):  # ASCII keeps its entries whatever fills the rest
            self.__missing__(code)

    def __missing__(self, code: int) -> str:
        ch = chr(code)
        out = " " if _is_separator(ch) else ch
        if len(self) < _TABLE_LIMIT:
            self[code] = out
        return out


_SEPARATORS = _SeparatorTable()


def tokenize(message: str) -> list[str]:
    """Split a log message into normalized tokens."""
    out: list[str] = []
    for raw in message.lower().translate(_SEPARATORS).split():
        tok = raw.rstrip("./-:")
        if len(tok) < 2:
            continue
        if len(tok) > 4 and tok.isascii() and tok.isdigit():
            out.append(NUM_TOKEN)
        else:
            out.append(tok)
    return out


@dataclass
class SparseVector:
    """Sparse feature vector with strictly increasing indices."""

    indices: np.ndarray
    values: np.ndarray
    dim: int


@dataclass(frozen=True)
class DesignMatrix:
    """Sparse rows stored as parallel arrays of row ids, column ids and values.

    ``transform_text`` returns one for a list of messages; training and
    scoring take it as it is. Entries are in storage order: row by row, each
    row's entries in increasing column order. The training products are one
    ``np.bincount`` each, which adds every entry's term to its bucket in
    storage order starting from 0.0, the order of a CSR product (``X @ w``)
    and of its transpose's CSC product (``X.T @ r``), so both give the same
    bits as those. Scoring takes each row's margin on its own
    (``score_logistic``), since ``X @ w`` sums a row in another order than a
    vector alone.
    """

    rows: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    def matvec(self, w: np.ndarray) -> np.ndarray:
        """``X @ w``."""
        return np.bincount(self.rows, self.data * w[self.indices],
                           minlength=self.shape[0]).astype(float, copy=False)

    def rmatvec(self, r: np.ndarray) -> np.ndarray:
        """``X.T @ r``."""
        return np.bincount(self.indices, self.data * r[self.rows],
                           minlength=self.shape[1]).astype(float, copy=False)


@dataclass(frozen=True)
class Vocabulary:
    """Fitted TF-IDF vocabulary: dense term indices plus smoothed IDF weights."""

    index: Mapping[str, int]
    idf: np.ndarray
    document_count: int
    config: Mapping = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "index", read_only(self.index))
        object.__setattr__(self, "config", read_only(self.config))

    @property
    def size(self) -> int:
        return len(self.index)

    def to_dict(self) -> dict:
        terms = sorted(self.index, key=self.index.get)
        return {
            "terms": terms,
            "idf": [float(v) for v in self.idf],
            "document_count": self.document_count,
            "config": dict(self.config),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Vocabulary":
        return cls(index={t: i for i, t in enumerate(payload["terms"])},
                   idf=np.asarray(payload["idf"], dtype=float),
                   document_count=payload["document_count"],
                   config=payload["config"])


def _messages(corpus: Iterable) -> list[str]:
    return [item if isinstance(item, str) else item.message for item in corpus]


def fit_vocabulary(corpus: Iterable, min_df: int = DEFAULT_MIN_DF,
                   max_features: int | None = DEFAULT_MAX_FEATURES) -> Vocabulary:
    """Fit a vocabulary on the training corpus (records or raw messages)."""
    if min_df < 1:
        raise TrainingError(f"min_df must be >= 1, got {min_df}")
    if max_features is not None and max_features < 1:
        raise TrainingError(f"max_features must be None or >= 1, got {max_features}")
    messages = _messages(corpus)
    if not messages:
        raise TrainingError("cannot fit a vocabulary on an empty corpus")
    df: Counter[str] = Counter()
    for message in messages:
        df.update(set(tokenize(message)))
    terms = [t for t, n in df.items() if n >= min_df]
    if max_features is not None and len(terms) > max_features:
        terms = sorted(terms, key=lambda t: (-df[t], t))[:max_features]
    if not terms:
        raise TrainingError(
            f"vocabulary is empty after min_df={min_df} filtering of {len(messages)} messages")
    terms.sort()
    n_docs = len(messages)
    idf = np.array([np.log((1.0 + n_docs) / (1.0 + df[t])) + 1.0 for t in terms])
    config = {
        "tokenizer": "logtok-v1",
        "tf": "raw-count",
        "idf": "ln((1+N)/(1+df))+1",
        "min_df": min_df,
        "max_features": max_features,
    }
    return Vocabulary(index={t: i for i, t in enumerate(terms)}, idf=idf,
                      document_count=n_docs, config=config)


def transform_text(messages: str | Sequence[str],
                   vocab: Vocabulary) -> SparseVector | DesignMatrix:
    """L2-normalized TF-IDF rows: a ``SparseVector`` for one message (zero if
    all OOV), a ``DesignMatrix`` with one row per message for a list."""
    single = isinstance(messages, str)
    index, dim = vocab.index, vocab.size
    ids: list[int] = []
    lengths: list[int] = []
    for message in [messages] if single else messages:
        row = [index[t] for t in tokenize(message) if t in index]
        ids += row
        lengths.append(len(row))
    if single:  # a few ids: a Counter costs less than np.unique; one row needs no grouping
        counts = Counter(ids)
        ids = sorted(counts)
        indices = np.array(ids, dtype=np.int64)
        values = np.array([counts[i] for i in ids], dtype=float) * vocab.idf[indices]
        return SparseVector(indices=indices, values=values / np.sqrt(np.sum(values ** 2)),
                            dim=dim)
    keys = np.repeat(np.arange(len(lengths), dtype=np.int64) * dim, lengths)
    keys = np.sort(keys + np.array(ids, dtype=np.int64))
    first = np.flatnonzero(np.diff(keys, prepend=-1))  # where each run of equal keys starts
    tf = np.diff(first, append=len(keys))
    rows, indices = np.divmod(keys[first], dim)
    values = tf * vocab.idf[indices]
    squares = values ** 2
    n = len(lengths)
    terms = np.bincount(rows, minlength=n)
    starts = np.cumsum(terms) - terms
    norms = np.zeros(n)
    for length in (np.flatnonzero(np.bincount(terms)[1:]) + 1).tolist():  # each nonzero count
        group = np.flatnonzero(terms == length)
        norms[group] = np.sum(squares[starts[group, None] + np.arange(length)], axis=1)
    return DesignMatrix(rows=rows, indices=indices, data=values / np.sqrt(norms)[rows],
                        shape=(n, dim))


@dataclass(frozen=True)
class Standardizer:
    """Per-feature centering/scaling parameters (population statistics)."""

    mean: np.ndarray
    std: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.mean)

    @property
    def zero_variance(self) -> np.ndarray:
        return self.std == 0.0

    def check_width(self, width: int) -> None:
        if width != self.dimension:
            raise DimensionError(
                f"sample has {width} features, standardizer expects {self.dimension}")

    def to_dict(self) -> dict:
        return {"mean": [float(v) for v in self.mean], "std": [float(v) for v in self.std]}

    @classmethod
    def from_dict(cls, payload: dict) -> "Standardizer":
        return cls(mean=np.asarray(payload["mean"], dtype=float),
                   std=np.asarray(payload["std"], dtype=float))


def feature_matrix(samples: Sequence, params: Standardizer | None = None) -> np.ndarray:
    """Samples (rows or objects with ``features``) as an (n, d) float matrix.

    With ``params``, each row must have the standardizer's width.
    """
    rows = [s.features if hasattr(s, "features") else s for s in samples]
    if params is None:
        return np.asarray(rows, dtype=float)
    for row in rows:
        params.check_width(len(row))
    return np.array(rows, dtype=float).reshape(len(rows), params.dimension)


def fit_standardizer(samples: Sequence) -> Standardizer:
    if len(samples) == 0:
        raise TrainingError("cannot fit a standardizer on an empty sample set")
    X = feature_matrix(samples)
    with np.errstate(over="ignore", invalid="ignore"):
        mean, std = X.mean(axis=0), X.std(axis=0)
    finite = np.isfinite(mean) & np.isfinite(std)
    if not finite.all():
        raise TrainingError(f"feature columns {np.flatnonzero(~finite).tolist()} have a "
                            "non-finite mean or standard deviation (values too large)")
    return Standardizer(mean=mean, std=std)


def transform_dense(sample, params: Standardizer) -> np.ndarray:
    """Standardize one sample, or each row of an (n, d) matrix.

    Zero-variance features pass through as 0.
    """
    x = np.asarray(sample.features if hasattr(sample, "features") else sample, dtype=float)
    if x.ndim not in (1, 2):
        raise DimensionError(f"expected one sample or a matrix of samples, got shape {x.shape}")
    params.check_width(x.shape[-1])
    out = np.zeros_like(x)
    np.divide(x - params.mean, params.std, out=out, where=~params.zero_variance)
    return out
