"""Each input refusal that no other test reaches, through its public entry,
with its whole message."""

import pytest

from aisoc.corpus import (AugmentOp, Channel, Label, LogRecord, MalwareSample, MalwareScenario,
                          Origin, SplitKind, SplitSpec, augment, dedup_near_identical,
                          generate_malware, load_malware_csv)
from aisoc.errors import ConfigError, LoadError, MetricError, SplitError, TrainingError
from aisoc.features import fit_standardizer, fit_vocabulary, transform_text
from aisoc.learn import design_matrix, train_forest, train_logistic
from aisoc.metrics import log_loss, pr_auc, roc_auc

RECORDS = [LogRecord(timestamp=i, host="h1", channel=Channel.AUTH, message=message,
                     label=Label.BENIGN, origin=Origin.GENERATED)
           for i, message in enumerate(["session opened for user root",
                                        "session closed for user root"])]


def _refusal(error, call, *args, **kwargs) -> str:
    with pytest.raises(error) as refused:
        call(*args, **kwargs)
    return str(refused.value)


@pytest.mark.parametrize("rate", [-0.1, 1.5])
def test_augment_refuses_a_rate_outside_the_unit_interval(rate):
    assert (_refusal(ConfigError, augment, RECORDS, [AugmentOp.CHAR_NOISE], rate=rate, seed=1)
            == f"rate must be in [0, 1], got {rate}")


@pytest.mark.parametrize("threshold", [-0.5, 1.01])
def test_dedup_refuses_a_threshold_outside_the_unit_interval(threshold):
    assert (_refusal(ConfigError, dedup_near_identical, RECORDS, threshold=threshold)
            == f"threshold must be in [0, 1], got {threshold}")


@pytest.mark.parametrize("n_features", [0, -3])
def test_generate_malware_refuses_fewer_than_one_feature(n_features):
    scenario = MalwareScenario(benign_samples=5, malicious_samples=5, seed=1,
                               n_features=n_features)
    assert (_refusal(ConfigError, generate_malware, scenario)
            == f"n_features must be >= 1, got {n_features}")


@pytest.mark.parametrize("hard_fraction", [-0.25, 1.25])
def test_generate_malware_refuses_a_hard_fraction_outside_the_unit_interval(hard_fraction):
    scenario = MalwareScenario(benign_samples=5, malicious_samples=5, seed=1,
                               hard_fraction=hard_fraction)
    assert (_refusal(ConfigError, generate_malware, scenario)
            == f"hard_fraction must be in [0, 1], got {hard_fraction}")


def test_split_spec_refuses_a_negative_fraction():
    assert (_refusal(SplitError, SplitSpec, SplitKind.TIME_ORDERED, (1.2, -0.1, -0.1))
            == "fractions must be non-negative, got (1.2, -0.1, -0.1)")


def test_split_spec_refuses_fractions_that_do_not_sum_to_one():
    assert (_refusal(SplitError, SplitSpec, SplitKind.STRATIFIED_RANDOM, (0.5, 0.2, 0.2))
            == "fractions must sum to 1, got (0.5, 0.2, 0.2)")


def test_design_matrix_refuses_no_vectors():
    assert _refusal(TrainingError, design_matrix, []) == "empty design matrix"


def _matrix(n: int):
    messages = [RECORDS[i % 2].message for i in range(n)]
    return transform_text(messages, fit_vocabulary(messages, min_df=1))


def test_train_logistic_refuses_a_label_count_unlike_the_row_count():
    assert (_refusal(TrainingError, train_logistic, _matrix(3), [0, 1])
            == "got 3 vectors but 2 labels")


def test_train_logistic_refuses_one_example():
    assert (_refusal(TrainingError, train_logistic, _matrix(1), [1])
            == "need at least 2 training examples")


@pytest.mark.parametrize("auc", [roc_auc, pr_auc])
@pytest.mark.parametrize("scores, labels, shapes", [
    ([0.1, 0.9], [0, 1, 1], "(2,) vs (3,)"),
    ([[0.1], [0.9]], [[0], [1]], "(2, 1) vs (2, 1)"),
])
def test_aucs_refuse_scores_and_labels_of_other_shapes(auc, scores, labels, shapes):
    assert (_refusal(MetricError, auc, scores, labels)
            == f"scores/labels shape mismatch: {shapes}")


def test_log_loss_refuses_probs_and_labels_of_other_shapes():
    assert (_refusal(MetricError, log_loss, [0.2, 0.7], [0, 1, 0])
            == "probs/labels shape mismatch: (2,) vs (3,)")


@pytest.mark.parametrize("field, value, message", [
    ("channel", "AUTH", "channel must be a Channel, got 'AUTH'"),
    ("label", "BENIGN", "label must be a Label or None, got 'BENIGN'"),
    ("origin", "LOADED", "origin must be an Origin, got 'LOADED'"),
    ("message", " \t", "labeled records must have a non-empty message"),
])
def test_log_record_refuses_a_field_of_the_wrong_kind(field, value, message):
    fields = dict(timestamp=0, host="h1", channel=Channel.AUTH, message="session opened",
                  label=Label.BENIGN, origin=Origin.GENERATED)
    assert _refusal(ValueError, LogRecord, **{**fields, field: value}) == message


def test_malware_sample_refuses_a_label_that_is_not_a_label():
    assert (_refusal(ValueError, MalwareSample, "s1", (0.5, 1.0), label="MALICIOUS")
            == "label must be a Label or None, got 'MALICIOUS'")


def test_fit_standardizer_refuses_no_samples():
    assert (_refusal(TrainingError, fit_standardizer, [])
            == "cannot fit a standardizer on an empty sample set")


def test_train_forest_refuses_rows_and_labels_of_other_lengths():
    assert (_refusal(TrainingError, train_forest, [[0.0], [1.0]], [0, 1, 1])
            == "bad training shapes X=(2, 1), y=(3,)")


def test_load_malware_csv_refuses_a_path_it_cannot_read(tmp_path):
    with pytest.raises(OSError) as unreadable:
        tmp_path.read_bytes()
    assert (_refusal(LoadError, load_malware_csv, tmp_path)
            == f"cannot read {tmp_path}: {unreadable.value}")
