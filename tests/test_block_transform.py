"""A block of messages transforms and scores to the same bits as its messages one at a time.

The references are the one-message transform and margin as they were written
before blocks existed: a ``Counter`` of term ids, a 1-D ``np.sum`` for the
norm, and one ``weights[indices] @ values`` per message.
"""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aisoc.features import SparseVector, fit_vocabulary, tokenize, transform_text
from aisoc.learn.logistic import LogisticModel, design_matrix, score_logistic, sigmoid

SRC = str(Path(__file__).resolve().parents[1] / "src")

# Terms in three scripts; term i occurs in 1 + i % 7 of the 7 training
# messages, so the idf weights differ. 330 terms allow rows of more than 128
# distinct terms, where numpy's pairwise sum takes its blocked branch.
TERMS = ([f"t{i}" for i in range(240)] + [f"ñandú{i}" for i in range(30)]
         + [f"日志{i}" for i in range(30)] + [f"пароль{i}" for i in range(30)])
OOV = ["zzz", "qq", "unseen", "ошибка", "straße"]
VOCAB = fit_vocabulary([" ".join(t for i, t in enumerate(TERMS) if i % 7 >= k)
                        for k in range(7)], min_df=1)
MODEL = LogisticModel(weights=np.random.default_rng(5).normal(size=len(TERMS)),
                      bias=-0.25, regularization=0.0)


def reference_transform(message: str) -> SparseVector:
    index = VOCAB.index
    counts = Counter(index[t] for t in tokenize(message) if t in index)
    indices = np.array(sorted(counts), dtype=np.int64)
    values = np.array([counts[i] for i in indices.tolist()], dtype=float) * VOCAB.idf[indices]
    if len(indices):
        values /= np.sqrt(np.sum(values ** 2))
    return SparseVector(indices=indices, values=values, dim=VOCAB.size)


def reference_score(vector: SparseVector) -> float:
    margin = float(MODEL.weights[vector.indices] @ vector.values) + MODEL.bias
    return float(sigmoid(np.array([margin]))[0])


def _long_message(distinct: int, rnd) -> str:
    words = rnd.sample(TERMS, distinct)
    words += rnd.choices(words, k=distinct // 3) + rnd.choices(OOV, k=3)
    rnd.shuffle(words)
    return " ".join(words)


MESSAGES = st.one_of(
    st.text(max_size=30),  # empty, punctuation only, any script
    st.lists(st.sampled_from(TERMS + OOV), max_size=40).map(" ".join),  # repeats and OOV
    st.builds(_long_message, st.integers(129, len(TERMS)), st.randoms(use_true_random=False)),
)
EVERY_LENGTH = [" ".join(TERMS[:n] + TERMS[:n // 2]) for n in range(len(TERMS) + 1)]


def _assert_same_bits(block, expected) -> None:
    for name in ("rows", "indices", "data"):
        got, want = getattr(block, name), getattr(expected, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert block.shape == expected.shape


class TestBlockTransform:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(MESSAGES, max_size=12))
    @example(["", "zzz qq ошибка", "t1 t1 t1 t2 ñandú0 ñandú0", ".,;!", EVERY_LENGTH[200]])
    def test_block_equals_its_messages_one_at_a_time(self, messages):
        block = transform_text(messages, VOCAB)
        alone = [transform_text(m, VOCAB) for m in messages]
        reference = [reference_transform(m) for m in messages]
        for one, ref in zip(alone, reference):
            assert one.indices.dtype == ref.indices.dtype and one.dim == ref.dim
            assert one.indices.tobytes() == ref.indices.tobytes()
            assert one.values.tobytes() == ref.values.tobytes()
        assert block.shape == (len(messages), VOCAB.size)
        if messages:
            _assert_same_bits(block, design_matrix(alone))
            _assert_same_bits(block, design_matrix(reference))
        scores = score_logistic(MODEL, block)
        assert scores.tobytes() == np.array([score_logistic(MODEL, v) for v in alone]).tobytes()
        assert scores.tobytes() == np.array([reference_score(v) for v in reference]).tobytes()

    def test_every_row_length_in_one_block(self):
        block = transform_text(EVERY_LENGTH, VOCAB)
        assert np.bincount(block.rows).tolist() == list(range(len(TERMS) + 1))
        assert len(set(VOCAB.idf.tolist())) == 7
        _assert_same_bits(block, design_matrix([reference_transform(m) for m in EVERY_LENGTH]))
        assert score_logistic(MODEL, block).tolist() == [
            reference_score(reference_transform(m)) for m in EVERY_LENGTH]


# Scores a block of messages and the same messages one at a time, and prints
# how many of the scores differ.
_GUARD = """
import numpy as np
from aisoc.features import fit_vocabulary, transform_text
from aisoc.learn.logistic import LogisticModel, score_logistic
rng = np.random.default_rng(11)
terms = [f"w{i}" for i in range(400)]
vocab = fit_vocabulary([" ".join(terms[k::3]) for k in range(3)] + [" ".join(terms)], min_df=1)
messages = [" ".join(rng.choice(terms, size=rng.integers(0, 90))) for _ in range(3000)]
model = LogisticModel(weights=rng.normal(size=vocab.size), bias=0.1, regularization=0.0)
block = score_logistic(model, transform_text(messages, vocab))
alone = np.array([score_logistic(model, transform_text(m, vocab)) for m in messages])
print(int(np.sum(block.view(np.int64) != alone.view(np.int64))), len(messages))
"""


def test_block_and_one_at_a_time_agree_under_other_cpu_kernels():
    """HTTP scores one message at a time and batch scores blocks; they must
    agree on every BLAS and numpy kernel, not only on the host's default ones.
    The variables are set for the child processes alone."""
    for kernels in ({"OPENBLAS_CORETYPE": "Prescott"},
                    {"OPENBLAS_CORETYPE": "Prescott",
                     "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}):
        result = subprocess.run([sys.executable, "-c", _GUARD], capture_output=True, text=True,
                                timeout=60, env={"PYTHONPATH": SRC, "PATH": os.defpath,
                                                 **kernels})
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["0", "3000"], (kernels, result.stdout)
