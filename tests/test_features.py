import math
import unicodedata

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aisoc.errors import DimensionError, TrainingError
from aisoc.features import (
    NUM_TOKEN,
    Standardizer,
    Vocabulary,
    feature_matrix,
    fit_standardizer,
    fit_vocabulary,
    tokenize,
    transform_dense,
    transform_text,
)


class TestTokenize:
    def test_keeps_ip_addresses_whole(self):
        assert tokenize("Failed password for root from 10.0.0.5") == \
            ["failed", "password", "for", "root", "from", "10.0.0.5"]

    def test_empty_message(self):
        assert tokenize("") == []

    def test_long_integers_collapse(self):
        assert tokenize("PID 1234567") == ["pid", NUM_TOKEN]

    def test_four_digit_numbers_survive(self):
        assert tokenize("port 4444 and 12345") == ["port", "4444", "and", NUM_TOKEN]

    def test_short_tokens_dropped(self):
        assert tokenize("a bc d ef") == ["bc", "ef"]

    def test_flags_and_paths_survive(self):
        assert tokenize("/usr/bin/nc -e /bin/sh") == ["/usr/bin/nc", "-e", "/bin/sh"]

    def test_punctuation_splits(self):
        assert tokenize("sudo: alice, COMMAND=(visudo)") == ["sudo", "alice", "command", "visudo"]

    def test_zero_width_space_stays_inside_token(self):
        assert tokenize("n​c -e") == ["n​c", "-e"]


class TestVocabulary:
    def test_smoothed_idf_for_ubiquitous_term(self):
        # df = N = 2 -> idf = ln(3/3) + 1 = 1.0
        vocab = fit_vocabulary(["alpha beta", "alpha gamma"], min_df=1)
        assert vocab.idf[vocab.index["alpha"]] == pytest.approx(1.0)

    def test_smoothed_idf_for_rare_term(self):
        # df = 1, N = 2 -> idf = ln(3/2) + 1
        vocab = fit_vocabulary(["alpha beta", "alpha gamma"], min_df=1)
        assert vocab.idf[vocab.index["beta"]] == pytest.approx(math.log(3 / 2) + 1, abs=1e-9)

    def test_min_df_filters_singletons(self):
        vocab = fit_vocabulary(["alpha beta", "alpha gamma"], min_df=2)
        assert "alpha" in vocab.index
        assert "beta" not in vocab.index and "gamma" not in vocab.index

    def test_max_features_keeps_highest_df_with_lexicographic_ties(self):
        corpus = ["aa bb cc", "aa bb dd", "aa ee ff"]
        vocab = fit_vocabulary(corpus, min_df=1, max_features=2)
        # df: aa=3, bb=2, others=1 -> keep aa, bb
        assert set(vocab.index) == {"aa", "bb"}
        tied = fit_vocabulary(["aa bb", "cc dd"], min_df=1, max_features=2)
        assert set(tied.index) == {"aa", "bb"}  # all df=1; lexicographically first

    def test_indices_dense_and_sorted(self):
        vocab = fit_vocabulary(["cc bb", "bb aa", "aa cc"], min_df=1)
        assert sorted(vocab.index.values()) == list(range(vocab.size))
        assert list(vocab.index) == sorted(vocab.index)

    def test_empty_effective_vocabulary_is_error(self):
        with pytest.raises(TrainingError):
            fit_vocabulary(["zz yy"], min_df=5)
        with pytest.raises(TrainingError):
            fit_vocabulary([])

    @pytest.mark.parametrize("kwargs, match", [
        ({"min_df": 0}, "min_df must be >= 1, got 0"),
        ({"min_df": -4}, "min_df must be >= 1, got -4"),
        ({"max_features": 0}, "max_features must be None or >= 1, got 0"),
        ({"max_features": -1}, "max_features must be None or >= 1, got -1"),
    ])
    def test_sizes_below_one_rejected(self, kwargs, match):
        with pytest.raises(TrainingError, match=match):
            fit_vocabulary(["alpha beta", "alpha gamma"], **{"min_df": 1, **kwargs})

    def test_fit_accepts_records(self):
        from aisoc.corpus import Channel, Label, LogRecord
        records = [LogRecord(timestamp=0, host="h", channel=Channel.AUTH,
                             message="alpha beta", label=Label.BENIGN)] * 2
        vocab = fit_vocabulary(records, min_df=1)
        assert "alpha" in vocab.index

    def test_serialization_roundtrip_preserves_transforms(self):
        vocab = fit_vocabulary(["alpha beta gamma", "alpha beta", "gamma delta"], min_df=1)
        clone = Vocabulary.from_dict(vocab.to_dict())
        for message in ("alpha gamma zzz", "delta delta beta", ""):
            a = transform_text(message, vocab)
            b = transform_text(message, clone)
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.values, b.values)


class TestTransformText:
    def test_single_term_is_unit_component(self):
        vocab = fit_vocabulary(["alpha beta", "alpha gamma"], min_df=1)
        vec = transform_text("alpha alpha zzz", vocab)
        assert vec.indices.tolist() == [vocab.index["alpha"]]
        assert vec.values.tolist() == [1.0]

    def test_two_equal_terms_split_mass(self):
        # both terms df=2 -> idf 1.0, equal counts -> 1/sqrt(2) each
        vocab = fit_vocabulary(["alpha beta", "alpha beta"], min_df=1)
        vec = transform_text("alpha beta", vocab)
        assert vec.values == pytest.approx([1 / math.sqrt(2)] * 2)

    def test_all_oov_is_zero_vector(self):
        vocab = fit_vocabulary(["alpha beta", "alpha beta"], min_df=1)
        vec = transform_text("zzz qqq", vocab)
        assert len(vec.indices) == 0
        assert vec.dim == vocab.size

    @settings(max_examples=60, deadline=None)
    @given(st.text(alphabet="abc 123.x/", max_size=60))
    def test_norm_is_zero_or_one(self, message):
        vocab = fit_vocabulary(["abc 123 x/a", "abc aa bb"], min_df=1)
        vec = transform_text(message, vocab)
        norm = np.linalg.norm(vec.values)
        assert norm == pytest.approx(0.0) or norm == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.permutations(["alpha", "beta", "alpha", "gamma", "beta"]))
    def test_bag_of_words_order_invariance(self, words):
        vocab = fit_vocabulary(["alpha beta gamma", "alpha beta gamma"], min_df=1)
        base = transform_text("alpha alpha beta beta gamma", vocab)
        vec = transform_text(" ".join(words), vocab)
        assert np.array_equal(vec.indices, base.indices)
        assert vec.values == pytest.approx(base.values)

    def test_sparse_indices_strictly_increasing_and_nonzero(self):
        vocab = fit_vocabulary(["alpha beta gamma delta", "alpha beta gamma delta"], min_df=1)
        vec = transform_text("delta alpha gamma", vocab)
        assert all(a < b for a, b in zip(vec.indices, vec.indices[1:]))
        assert all(v != 0 and math.isfinite(v) for v in vec.values)


class TestStandardizer:
    def test_two_point_column(self):
        params = fit_standardizer([(2.0,), (4.0,)])
        assert transform_dense((2.0,), params) == pytest.approx([-1.0])
        assert transform_dense((4.0,), params) == pytest.approx([1.0])

    def test_constant_column_passes_through_as_zero(self):
        params = fit_standardizer([(5.0,), (5.0,)])
        assert params.zero_variance.tolist() == [True]
        assert transform_dense((5.0,), params) == pytest.approx([0.0])
        assert transform_dense((123.0,), params) == pytest.approx([0.0])

    def test_training_set_mean_is_zero(self):
        rows = [(1.0, 10.0), (2.0, 20.0), (3.0, 40.0), (4.0, 50.0)]
        params = fit_standardizer(rows)
        transformed = np.stack([transform_dense(r, params) for r in rows])
        assert np.abs(transformed.mean(axis=0)).max() < 1e-9

    @pytest.mark.parametrize("rows", [
        [(1.0, 1.5e308), (2.0, 1.7e308)],  # the sum overflows: mean inf
        [(1.0, 1e200), (2.0, -1e200)],     # the squares overflow: std inf
        [(1.0, math.inf), (2.0, 0.0)],
    ])
    def test_non_finite_statistics_rejected(self, rows):
        with pytest.raises(TrainingError, match=r"columns \[1\]"):
            fit_standardizer(rows)

    def test_dimension_mismatch(self):
        params = fit_standardizer([(1.0, 2.0), (3.0, 4.0)])
        with pytest.raises(DimensionError):
            transform_dense((1.0,), params)

    def test_serialization_roundtrip(self):
        params = fit_standardizer([(1.0, 5.0), (2.0, 5.0), (6.0, 5.0)])
        clone = Standardizer.from_dict(params.to_dict())
        x = (3.0, 5.0)
        assert transform_dense(x, clone) == pytest.approx(transform_dense(x, params))


def reference_is_separator(ch: str) -> bool:
    if ch.isspace():
        return True
    if ch in "./-:":
        return False
    return unicodedata.category(ch)[0] in ("P", "S")


def reference_tokenize(message: str) -> list[str]:
    """The character-loop tokenizer the translate/split one replaced."""
    out: list[str] = []
    buf: list[str] = []

    def flush() -> None:
        tok = "".join(buf).rstrip("./-:")
        buf.clear()
        if len(tok) < 2:
            return
        if len(tok) > 4 and tok.isascii() and tok.isdigit():
            out.append(NUM_TOKEN)
        else:
            out.append(tok)

    for ch in message.lower():
        if reference_is_separator(ch):
            if buf:
                flush()
        else:
            buf.append(ch)
    if buf:
        flush()
    return out


# pieces the tokenizer treats specially: kept punctuation, digit runs of
# both sides of the <num> cut, a capital whose lowercase is two characters,
# the C0 separators and NEL that str.isspace counts, and non-BMP letters
TOKENIZER_PIECES = [".", "/", "-", ":", "--", "1234", "12345", "١٢٣٤٥", "İ", "\x1c", "\x1d",
                    "\x1e", "\x1f", "\x85", " ", "　", " ", "\t", ",", "ab",
                    "\U0001F600", "\U00010400", "\U0001D7D8", "ǅ", "ß"]


class TestTokenizeMatchesCharLoop:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(TOKENIZER_PIECES), st.characters()),
                    max_size=40).map("".join))
    def test_equals_reference_on_arbitrary_unicode(self, message):
        assert tokenize(message) == reference_tokenize(message)

    @pytest.mark.parametrize("message", [
        "sshd[42]: Failed password for root from 10.0.0.5 port 22 ssh2",
        "İstanbul-01:. ./run.sh --flag=1 123456 1234",
        "a\x1cbb\x1dcc\x1edd\x1fee\x85ff gg",
        "trailing dots... and slashes/// -x: --y",
        "\U00010400\U00010401 word \U0001F600smile",
    ])
    def test_equals_reference_on_log_like_lines(self, message):
        assert tokenize(message) == reference_tokenize(message)

    def test_separator_table_stays_bounded(self):
        from aisoc.features import _SEPARATORS, _TABLE_LIMIT

        message = "".join(chr(c) for c in range(0x4E00, 0x4E00 + 2 * _TABLE_LIMIT))
        assert tokenize(message) == reference_tokenize(message)
        assert len(_SEPARATORS) <= _TABLE_LIMIT


class TestStandardizeMatrix:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(0, 12), d=st.integers(1, 5))
    def test_matrix_equals_rows_one_at_a_time(self, seed, n, d):
        rng = np.random.default_rng(seed)
        train = np.round(rng.normal(size=(6, d)), 1)
        train[:, 0] = 3.0  # one zero-variance column
        params = fit_standardizer(train)
        X = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4, size=(n, d))
        got = transform_dense(X, params)
        assert got.shape == (n, d)
        assert got.tolist() == [transform_dense(row, params).tolist() for row in X]
        assert not got[:, 0].any()

    def test_feature_matrix_checks_every_row_width(self):
        params = fit_standardizer([(1.0, 2.0), (3.0, 4.0)])
        assert feature_matrix([], params).shape == (0, 2)
        assert feature_matrix([(1.0, 2.0), [5, 6]], params).tolist() == [[1.0, 2.0], [5.0, 6.0]]
        with pytest.raises(DimensionError, match="sample has 3 features"):
            feature_matrix([(1.0, 2.0), (1.0, 2.0, 3.0)], params)

    @pytest.mark.parametrize("shape", [(), (2, 2, 2), (3, 1)])
    def test_wrong_shapes_rejected(self, shape):
        params = fit_standardizer([(1.0, 2.0), (3.0, 4.0)])
        with pytest.raises(DimensionError):
            transform_dense(np.zeros(shape), params)
