import json
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aisoc import calibrate
from aisoc.errors import MetricError
from aisoc.fusion import TRIAGE_CLASSES, TriageLabel
from aisoc.metrics import (
    check_labels,
    classification_report,
    log_loss,
    macro_average,
    pr_auc,
    precision_recall_f1,
    roc_auc,
    tie_groups,
)


def brute_force_roc_auc(scores, labels):
    """Concordant-pair counting with ties worth 0.5."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def reference_roc_auc(scores, labels):
    """The rank loop ``roc_auc`` had before tie grouping was shared."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=int)
    order = np.argsort(s, kind="mergesort")
    sorted_scores = s[order]
    ranks = np.empty(len(s))
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    return float((ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def reference_pr_auc(scores, labels):
    """The average-precision loop ``pr_auc`` had before tie grouping was shared."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=int)
    order = np.argsort(-s, kind="mergesort")
    s_desc = s[order]
    y_desc = y[order]
    n_pos = int(y.sum())
    ap = 0.0
    tp = 0
    fp = 0
    prev_recall = 0.0
    i = 0
    while i < len(s_desc):
        j = i
        while j + 1 < len(s_desc) and s_desc[j + 1] == s_desc[i]:
            j += 1
        tp += int(y_desc[i:j + 1].sum())
        fp += (j - i + 1) - int(y_desc[i:j + 1].sum())
        recall = tp / n_pos
        precision = tp / (tp + fp)
        ap += (recall - prev_recall) * precision
        prev_recall = recall
        i = j + 1
    return float(ap)


def reference_report(predictions, truth, class_set):
    """The per-class loop ``classification_report`` had before F1 from counts
    was shared: (per-class (P, R, F1, support), macro (P, R, F1), confusion,
    zero-division classes)."""
    index = {c: i for i, c in enumerate(class_set)}
    k = len(class_set)
    confusion = [[0] * k for _ in range(k)]
    for pred, true in zip(predictions, truth):
        confusion[index[true]][index[pred]] += 1
    per_class, zero_division = [], []
    f1_sum = precision_sum = recall_sum = 0.0
    for i, cls in enumerate(class_set):
        tp = confusion[i][i]
        pred_total = sum(confusion[r][i] for r in range(k))
        true_total = sum(confusion[i])
        if pred_total == 0 or true_total == 0:
            zero_division.append(str(cls))
        precision = tp / pred_total if pred_total > 0 else 0.0
        recall = tp / true_total if true_total > 0 else 0.0
        f1 = 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        per_class.append((precision, recall, f1, true_total))
        precision_sum += precision
        recall_sum += recall
        f1_sum += f1
    return (per_class, (precision_sum / k, recall_sum / k, f1_sum / k), confusion,
            zero_division)


def reference_pool_ties(scores, labels):
    """The ``np.unique`` tie pooling ``fit_isotonic`` used before tie grouping
    was shared (it differs only in merging NaN scores, which never occur)."""
    order = np.argsort(scores, kind="mergesort")
    s, y = scores[order], labels[order]
    uniq, start = np.unique(s, return_index=True)
    boundaries = np.append(start, len(s))
    targets = np.array([y[boundaries[i]:boundaries[i + 1]].mean() for i in range(len(uniq))])
    weights = np.diff(boundaries).astype(float)
    return uniq, targets, weights


@st.composite
def tied_scores(draw):
    """(scores, labels): integer levels 0..L-1 (L in 1..12) times a scale, with
    some zeros negated, and both label classes present."""
    n = draw(st.integers(2, 40))
    levels = draw(st.integers(1, 12))
    scale = draw(st.sampled_from([1.0, 1 / 3, 1e-300, 1e300]))
    ints = draw(st.lists(st.integers(0, levels - 1), min_size=n, max_size=n))
    negate = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    if len(set(labels)) < 2:
        labels[0], labels[1] = 0, 1
    scores = [-(i * scale) if neg else i * scale for i, neg in zip(ints, negate)]
    return scores, labels


def unique_check_labels(labels, error=MetricError):
    """``check_labels`` as it was written with ``np.unique``: the oracle of its
    classes and of both refusal messages."""
    classes = np.unique(labels).tolist()
    if not set(classes) <= {0, 1}:
        raise error(f"labels must be binary 0/1, got {classes}")
    if len(classes) < 2:
        raise error(f"labels must hold both classes 0 and 1, got {classes}")


def _refusal_text(check, labels):
    try:
        check(labels)
    except MetricError as exc:
        return str(exc)
    return None


# Label values: the classes, signed zeros, NaN, infinities and values outside 0/1.
FLOAT_LABELS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, np.nan, -np.nan, np.inf, -np.inf, 0.5, 2.0, -1.0]),
    st.floats())
LABELS = st.one_of(
    st.lists(st.integers(-2, 3), max_size=30).map(lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.booleans(), max_size=30).map(lambda v: np.array(v, dtype=bool)),
    st.lists(FLOAT_LABELS, max_size=30).map(lambda v: np.array(v, dtype=float)),
    st.lists(st.one_of(st.integers(-2, 3), st.booleans(), FLOAT_LABELS), max_size=30))


def _hex(values):
    return [float(v).hex() for v in values]


class TestSharedCore:
    def test_tie_groups_runs(self):
        starts, sizes = tie_groups([0.1, 0.1, 0.2, 0.3, 0.3, 0.3])
        assert starts.tolist() == [0, 2, 3] and sizes.tolist() == [2, 1, 3]
        starts, sizes = tie_groups([])
        assert starts.tolist() == [] and sizes.tolist() == []

    def test_tie_groups_merges_signed_zeros_but_never_nans(self):
        starts, sizes = tie_groups([-0.0, 0.0, -0.0, 1.0, np.nan, np.nan])
        assert starts.tolist() == [0, 3, 4, 5] and sizes.tolist() == [3, 1, 1, 1]

    def test_precision_recall_f1_elementwise_with_empty_denominators(self):
        precision, recall, f1 = precision_recall_f1([3, 0, 0, 2], [4, 0, 2, 2], [4, 5, 0, 2])
        assert precision.tolist() == [0.75, 0.0, 0.0, 1.0]
        assert recall.tolist() == [0.75, 0.0, 0.0, 1.0]
        assert f1.tolist() == [0.75, 0.0, 0.0, 1.0]

    def test_macro_average_is_an_uncompensated_running_total(self):
        # 1e16 + 1.0 rounds back to 1e16; a compensated sum would keep the 1.0
        assert macro_average([1e16, 1.0, -1e16]) == 0.0
        rows = np.array([[1e16, 0.3], [1.0, 0.3], [-1e16, 0.3]])
        assert macro_average(rows).tolist() == [0.0, ((0.0 + 0.3) + 0.3 + 0.3) / 3]

    @settings(max_examples=400, deadline=None)
    @given(tied_scores())
    @example(([0.5, 0.5], [0, 1]))
    @example(([0.25, 0.75], [1, 0]))
    @example(([7e300] * 6, [0, 1, 1, 0, 1, 0]))
    @example(([0.0, -0.0, 0.0, -0.0, 1 / 3], [1, 0, 0, 1, 1]))
    def test_rank_aucs_match_the_loops_bit_for_bit(self, case):
        scores, labels = case
        assert roc_auc(scores, labels).hex() == reference_roc_auc(scores, labels).hex()
        assert pr_auc(scores, labels).hex() == reference_pr_auc(scores, labels).hex()

    @settings(max_examples=300, deadline=None)
    @given(tied_scores())
    @example(([0.0, -0.0, -0.0, 0.0, 1.0], [1, 0, 1, 0, 1]))
    def test_isotonic_pooling_and_knots_match_np_unique_bit_for_bit(self, case):
        scores, labels = np.array(case[0]), np.array(case[1], dtype=float)
        for new, old in zip(calibrate._pool_ties(scores, labels),
                            reference_pool_ties(scores, labels)):
            assert new.tobytes() == old.tobytes()
        fitted = calibrate.fit_isotonic(scores, labels)
        with mock.patch.object(calibrate, "_pool_ties", reference_pool_ties):
            reference = calibrate.fit_isotonic(scores, labels)
        assert fitted.knot_scores.tobytes() == reference.knot_scores.tobytes()
        assert fitted.knot_values.tobytes() == reference.knot_values.tobytes()

    @settings(max_examples=400, deadline=None)
    @given(LABELS)
    @example([])
    @example(np.array([], dtype=np.int64))
    @example([1])
    @example(np.array([True, True]))
    @example([0.0, -0.0, 2.0])
    @example([-0.0, 0.0, 2.0])
    @example(np.array([2.0, -0.0, 0.0, np.nan, 1.0, -np.nan, np.inf]))
    @example([np.nan, np.nan])
    @example([0, 1, 1, 0])
    def test_check_labels_refuses_like_np_unique_with_the_same_message(self, labels):
        assert _refusal_text(check_labels, labels) == _refusal_text(unique_check_labels, labels)

    def test_check_labels_messages(self):
        assert (_refusal_text(check_labels, [2.0, 0.0, np.nan, 1.0, -np.nan])
                == "labels must be binary 0/1, got [0.0, 1.0, 2.0, nan]")
        assert (_refusal_text(check_labels, np.array([True, True]))
                == "labels must hold both classes 0 and 1, got [True]")
        assert (_refusal_text(check_labels, [])
                == "labels must hold both classes 0 and 1, got []")
        assert _refusal_text(check_labels, [1, 0, 1]) is None

    @settings(max_examples=300, deadline=None)
    @given(k=st.integers(2, 4), data=st.data())
    @example(k=3, data=None)
    def test_report_matches_the_per_class_loop_bit_for_bit(self, k, data):
        class_set = list(range(k))
        if data is None:  # class 2 has no truth and no predictions
            preds, truth = [0, 1, 1, 0], [0, 1, 0, 0]
        else:
            used = st.integers(0, data.draw(st.integers(1, k - 1)))
            n = data.draw(st.integers(1, 30))
            preds = data.draw(st.lists(used, min_size=n, max_size=n))
            truth = data.draw(st.lists(used, min_size=n, max_size=n))
        per_class, macro, confusion, zero_division = reference_report(preds, truth, class_set)
        report = classification_report(preds, truth, class_set)
        assert [_hex([c.precision, c.recall, c.f1]) for c in report.per_class] \
            == [_hex(p_r_f1) for *p_r_f1, _ in per_class]
        assert [c.support for c in report.per_class] == [s for *_, s in per_class]
        assert _hex([report.macro_precision, report.macro_recall, report.macro_f1]) \
            == _hex(macro)
        assert report.confusion == confusion
        assert report.zero_division_classes == zero_division


class TestClassificationReport:
    def test_perfect_three_class_with_table_supports(self):
        truth = ([TriageLabel.NORMAL] * 14 + [TriageLabel.SUSPICIOUS] * 76
                 + [TriageLabel.HIGH_CONFIDENCE_ATTACK] * 62)
        report = classification_report(truth, truth, TRIAGE_CLASSES)
        assert [c.support for c in report.per_class] == [14, 76, 62]
        assert all(c.precision == 1.0 and c.recall == 1.0 and c.f1 == 1.0
                   for c in report.per_class)
        assert report.macro_f1 == 1.0

    def test_single_class_predictions_on_binary_truth(self):
        truth = [0, 0, 1, 1, 1]
        preds = [1] * 5
        report = classification_report(preds, truth, [0, 1])
        zero_cls, one_cls = report.per_class
        assert one_cls.recall == 1.0
        assert zero_cls.precision == 0.0 and zero_cls.recall == 0.0 and zero_cls.f1 == 0.0
        assert "0" in report.zero_division_classes

    def test_hand_counted_binary_confusion(self):
        # TP=3, FP=1, FN=1, TN=5 -> P = R = F1 = 0.75 for the positive class
        truth = [1, 1, 1, 1, 0, 0, 0, 0, 0, 0]
        preds = [1, 1, 1, 0, 1, 0, 0, 0, 0, 0]
        report = classification_report(preds, truth, [0, 1])
        positive = report.per_class[1]
        assert positive.precision == pytest.approx(0.75)
        assert positive.recall == pytest.approx(0.75)
        assert positive.f1 == pytest.approx(0.75)
        assert report.confusion == [[5, 1], [1, 3]]

    def test_macro_is_exact_mean_of_per_class_f1(self):
        rng = random.Random(4)
        truth = [rng.randrange(3) for _ in range(60)]
        preds = [rng.randrange(3) for _ in range(60)]
        report = classification_report(preds, truth, [0, 1, 2])
        mean_f1 = sum(c.f1 for c in report.per_class) / 3
        assert abs(report.macro_f1 - mean_f1) <= 1e-12

    def test_supports_sum_and_confusion_rows(self):
        rng = random.Random(9)
        truth = [rng.randrange(3) for _ in range(45)]
        preds = [rng.randrange(3) for _ in range(45)]
        report = classification_report(preds, truth, [0, 1, 2])
        assert report.total_support == 45
        for i, c in enumerate(report.per_class):
            assert sum(report.confusion[i]) == c.support

    def test_length_mismatch(self):
        with pytest.raises(MetricError):
            classification_report([0], [0, 1], [0, 1])

    def test_label_outside_class_set(self):
        with pytest.raises(MetricError):
            classification_report([2], [0], [0, 1])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                    min_size=1, max_size=50),
           st.randoms(use_true_random=False))
    def test_joint_permutation_invariance(self, pairs, rng):
        preds = [p for p, _ in pairs]
        truth = [t for _, t in pairs]
        base = classification_report(preds, truth, [0, 1, 2])
        shuffled = pairs[:]
        rng.shuffle(shuffled)
        other = classification_report([p for p, _ in shuffled], [t for _, t in shuffled],
                                      [0, 1, 2])
        assert base.confusion == other.confusion
        assert base.macro_f1 == other.macro_f1

    def test_json_bytes_deterministic_and_schema_shaped(self):
        report = classification_report([0, 1], [0, 1], [0, 1], setting="x", split="y")
        payload = json.loads(report.to_json_bytes())
        assert set(payload) == {"setting", "split", "classes", "macro", "auc",
                                "confusion", "seeds", "median_seed", "fingerprints",
                                "zero_division_classes"}
        again = classification_report([0, 1], [0, 1], [0, 1], setting="x", split="y")
        assert report.to_json_bytes() == again.to_json_bytes()


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_spec_pair_counting_example(self):
        assert roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)

    def test_ties_count_half(self):
        assert roc_auc([0.5, 0.5], [0, 1]) == pytest.approx(0.5)

    def test_single_class_error(self):
        for labels in ([1, 1], [0, 2], [0, 0.5]):
            with pytest.raises(MetricError):
                roc_auc([0.1, 0.2], labels)

    def test_balanced_label_swap_symmetry(self):
        scores = [0.1, 0.3, 0.6, 0.9]
        assert roc_auc(scores, [0, 1, 0, 1]) + roc_auc(scores, [1, 0, 1, 0]) \
            == pytest.approx(1.0)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 1_000_000))
    def test_matches_brute_force_pair_counting(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 50))
        scores = np.round(rng.random(n), 2)
        labels = rng.integers(0, 2, n)
        if len(set(labels)) < 2:
            labels[0], labels[-1] = 0, 1
        assert abs(roc_auc(scores, labels)
                   - brute_force_roc_auc(scores, labels)) <= 1e-12


class TestPrAuc:
    def test_perfect_separation(self):
        assert pr_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_hand_computed_average_precision(self):
        # desc order: .9(pos) -> P=1, dR=1/2; .8(neg); .7(pos) -> P=2/3, dR=1/2
        assert pr_auc([0.9, 0.8, 0.7], [1, 0, 1]) == pytest.approx(0.5 + 0.5 * 2 / 3)

    def test_spec_example_scores(self):
        # desc: .8(1) P=1 dR=.5 ; .4(0) ; .35(1) P=2/3 dR=.5 -> 5/6
        assert pr_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(5 / 6)

    def test_tied_scores_grouped(self):
        # one threshold group at 0.5 containing both -> P=0.5 at R=1
        assert pr_auc([0.5, 0.5], [0, 1]) == pytest.approx(0.5)

    def test_single_class_error(self):
        for labels in ([0, 0], [1, -1], [0.5, 1]):
            with pytest.raises(MetricError):
                pr_auc([0.1, 0.2], labels)


class TestLogLoss:
    def test_confident_correct_is_small(self):
        assert log_loss([0.999, 0.001], [1, 0]) < 0.01

    def test_clipping_keeps_finite(self):
        assert np.isfinite(log_loss([0.0, 1.0], [1, 0]))
