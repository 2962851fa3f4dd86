import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aisoc.calibrate import (
    CalibrationMethod,
    Calibrator,
    apply,
    fit_calibrator,
    fit_isotonic,
    fit_platt,
    identity_calibrator,
    platt_targets,
    select_method,
)
from aisoc.errors import CalibrationError
from aisoc.metrics import log_loss


def minimax_isotonic(scores, labels):
    """O(n^3) brute-force weighted monotone least-squares fit via the
    minimax formula fit_i = max_{j<=i} min_{k>=i} weighted_mean(y[j..k]),
    computed on tie-pooled unique scores."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float)
    order = np.argsort(scores, kind="mergesort")
    s, y = scores[order], labels[order]
    uniq, start = np.unique(s, return_index=True)
    bounds = np.append(start, len(s))
    targets = np.array([y[bounds[i]:bounds[i + 1]].mean() for i in range(len(uniq))])
    weights = np.diff(bounds).astype(float)

    m = len(uniq)
    fitted = np.empty(m)
    for i in range(m):
        best = -np.inf
        for j in range(i + 1):
            worst = np.inf
            for k in range(i, m):
                block = np.average(targets[j:k + 1], weights=weights[j:k + 1])
                worst = min(worst, block)
            best = max(best, worst)
        fitted[i] = best
    return uniq, fitted


class TestPlatt:
    def test_smoothed_targets(self):
        assert platt_targets(3, 3) == (pytest.approx(0.8), pytest.approx(0.2))

    def test_orientation_on_symmetric_set(self):
        scores = [0.2, 0.8] * 20
        labels = [0, 1] * 20
        cal = fit_platt(scores, labels)
        assert not cal.flipped
        assert apply(cal, 0.2) < 0.5 < apply(cal, 0.8)

    def test_constant_scores_rejected(self):
        with pytest.raises(CalibrationError):
            fit_platt([0.5] * 10, [0, 1] * 5)

    def test_single_class_rejected(self):
        for labels in ([1, 1, 1, 1], [0, 1, 2, 1], [0, 1, 0.5, 1]):
            with pytest.raises(CalibrationError):
                fit_platt([0.1, 0.2, 0.3, 0.4], labels)

    def test_too_few_points_rejected(self):
        with pytest.raises(CalibrationError):
            fit_platt([0.1, 0.9], [0, 1])

    def test_anti_oriented_scores_are_flipped(self):
        scores = np.linspace(0, 1, 40)
        labels = (scores < 0.5).astype(int)  # high score = benign
        cal = fit_platt(scores, labels)
        assert cal.flipped
        assert cal.a >= 0
        # monotone in the oriented (negated) score direction
        assert apply(cal, 0.9) <= apply(cal, 0.1)

    def test_apply_matches_sigmoid(self):
        cal = Calibrator(method=CalibrationMethod.PLATT, a=1.0, b=0.0, flipped=False)
        assert apply(cal, 0.0) == pytest.approx(0.5)

    def test_improves_log_loss_on_sigmoid_data(self):
        rng = np.random.default_rng(7)
        s = rng.uniform(0, 1, 400)
        p = 1 / (1 + np.exp(-10 * (s - 0.4)))
        y = (rng.random(400) < p).astype(int)
        cal = fit_platt(s, y)
        assert log_loss(apply(cal, s), y) <= log_loss(s, y) + 1e-9

    def test_newton_stops_on_a_hessian_that_is_not_positive_definite(self):
        # 100 000 scores at 3.0 and one a ulp above: the Hessian's determinant
        # cancels to <= 0 in float64 at the first step, while the gradient in b
        # is far from 0, so the fit keeps its starting point
        s = np.full(100_000, 3.0)
        s[0] = np.nextafter(3.0, 4.0)
        y = (np.arange(100_000) < 10_000).astype(int)
        t_pos, t_neg = platt_targets(10_000, 90_000)
        b = float(np.log(10_001 / 90_001))
        assert abs(100_000 / (1 + np.exp(-b)) - (10_000 * t_pos + 90_000 * t_neg)) > 1e-3
        cal = fit_platt(s, y)
        assert (cal.a, cal.b, cal.flipped) == (0.0, b, False)
        assert cal.fit_meta["iterations"] == 0
        assert_non_decreasing(cal, s)

    def test_negative_slope_is_clamped_to_the_flat_fit(self):
        # positives rank above most negatives (AUC 2/3, so not flipped), but two
        # negatives far out at 10 pull the fitted slope below 0
        s = np.array([1.0] * 5 + [0.0] * 4 + [10.0] * 2)
        y = np.array([1] * 5 + [0] * 6)
        t = np.where(y == 1, *platt_targets(5, 6))
        mean_t = float(np.mean(t))
        cal = fit_platt(s, y)
        assert (cal.a, cal.b, cal.flipped) == (0.0, float(np.log(mean_t / (1.0 - mean_t))), False)
        assert cal.fit_meta["iterations"] == 4
        assert_non_decreasing(cal, s)


def assert_non_decreasing(cal, scores):
    grid = np.linspace(scores.min() - 1.0, scores.max() + 1.0, 101)
    assert np.all(np.diff(apply(cal, grid)) >= 0.0)


class TestIsotonic:
    def test_pav_pools_single_violation(self):
        # labels [0, 1, 0, 1] in score order: the (1, 0) violation pools to 0.5
        cal = fit_isotonic([0.1, 0.35, 0.4, 0.8], [0, 1, 0, 1])
        assert cal.knot_values == pytest.approx([0.0, 0.5, 0.5, 1.0])

    def test_monotone_labels_fit_exactly(self):
        cal = fit_isotonic([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1])
        assert cal.knot_values == pytest.approx([0.0, 0.0, 1.0, 1.0])

    def test_clamps_outside_knot_range(self):
        cal = fit_isotonic([0.2, 0.4, 0.6, 0.8], [0, 0, 1, 1])
        assert apply(cal, -5.0) == pytest.approx(cal.knot_values[0])
        assert apply(cal, 5.0) == pytest.approx(cal.knot_values[-1])

    def test_linear_interpolation_between_knots(self):
        cal = Calibrator(method=CalibrationMethod.ISOTONIC,
                         knot_scores=np.array([0.2, 0.8]),
                         knot_values=np.array([0.1, 0.9]))
        assert apply(cal, 0.5) == pytest.approx(0.5)

    def test_ties_pre_pooled_by_averaging(self):
        cal = fit_isotonic([0.3, 0.3, 0.7, 0.7], [0, 1, 1, 1])
        assert cal.knot_scores == pytest.approx([0.3, 0.7])
        assert cal.knot_values == pytest.approx([0.5, 1.0])

    def test_single_class_rejected(self):
        for labels in ([0, 0, 0], [0, 1, -1], [0, 1, 0.5]):
            with pytest.raises(CalibrationError):
                fit_isotonic([0.1, 0.2, 0.3], labels)

    def test_training_log_loss_never_worse_than_raw(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            s = rng.uniform(0, 1, 60)
            y = (rng.random(60) < np.clip(s + rng.normal(0, 0.2, 60), 0, 1)).astype(int)
            if len(set(y)) < 2:
                continue
            cal = fit_isotonic(s, y)
            assert log_loss(apply(cal, s), y) <= log_loss(s, y) + 1e-9

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 12), st.integers(0, 100_000))
    def test_matches_minimax_oracle(self, n, seed):
        rng = np.random.default_rng(seed)
        scores = np.round(rng.uniform(0, 1, n), 2)  # rounded to force ties
        labels = rng.integers(0, 2, n)
        if len(set(labels)) < 2:
            labels[0], labels[-1] = 0, 1
        cal = fit_isotonic(scores, labels)
        oracle_scores, oracle_fit = minimax_isotonic(scores, labels)
        assert cal.knot_scores == pytest.approx(oracle_scores)
        assert cal.knot_values == pytest.approx(oracle_fit, abs=1e-9)


class TestSelectMethod:
    def test_sigmoidal_data_selects_platt(self):
        rng = np.random.default_rng(11)
        s = rng.uniform(0, 1, 200)
        p = 1 / (1 + np.exp(-8 * (s - 0.5)))
        y = (rng.random(200) < p).astype(int)
        assert select_method(s, y) is CalibrationMethod.PLATT

    def test_hard_step_selects_isotonic(self):
        rng = np.random.default_rng(13)
        s = rng.uniform(0, 1, 200)
        p = np.where(s < 0.5, 0.08, 0.92)
        y = (rng.random(200) < p).astype(int)
        assert select_method(s, y) is CalibrationMethod.ISOTONIC

    def test_small_sample_defaults_to_platt(self):
        assert select_method([0.1, 0.2, 0.6, 0.9] * 2, [0, 0, 1, 1] * 2) \
            is CalibrationMethod.PLATT

    def test_both_methods_failing_a_fold_selects_platt(self):
        # the fold holding the one positive leaves a single class to fit on
        assert select_method(np.linspace(0, 1, 12), [0] * 11 + [1]) is CalibrationMethod.PLATT

    def test_labels_other_than_0_1_rejected(self):
        for labels in ([0, 1, 2] * 4, [0] * 12):
            with pytest.raises(CalibrationError):
                select_method(np.linspace(0, 1, 12), labels)


class TestApplyAndFallback:
    def test_identity_passthrough(self):
        cal = identity_calibrator()
        assert apply(cal, 0.37) == 0.37

    def test_identity_clamps(self):
        cal = identity_calibrator()
        assert apply(cal, 1.7) == 1.0
        assert apply(cal, -0.2) == 0.0

    def test_fallback_to_identity_with_warning(self):
        with pytest.warns(UserWarning, match="IDENTITY"):
            cal = fit_calibrator([0.5] * 8, [0, 1] * 4)
        assert cal.method is CalibrationMethod.IDENTITY

    def test_explicit_method_respected(self):
        s = [0.1, 0.2, 0.8, 0.9] * 4
        y = [0, 0, 1, 1] * 4
        assert fit_calibrator(s, y, CalibrationMethod.PLATT).method is CalibrationMethod.PLATT
        assert fit_calibrator(s, y, CalibrationMethod.ISOTONIC).method is CalibrationMethod.ISOTONIC

    def test_serialization_roundtrip(self):
        s = [0.1, 0.2, 0.8, 0.9] * 4
        y = [0, 0, 1, 1] * 4
        for method in (CalibrationMethod.PLATT, CalibrationMethod.ISOTONIC):
            cal = fit_calibrator(s, y, method)
            clone = Calibrator.from_dict(cal.to_dict())
            sweep = np.linspace(0, 1, 101)
            assert apply(clone, sweep) == pytest.approx(apply(cal, sweep), abs=0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000), st.sampled_from([CalibrationMethod.PLATT,
                                                     CalibrationMethod.ISOTONIC]))
    def test_fitted_calibrators_monotone_and_bounded(self, seed, method):
        rng = np.random.default_rng(seed)
        n = 40
        s = rng.uniform(0, 1, n)
        # labels correlate with scores, so orientation stays positive
        y = (rng.random(n) < np.clip(s, 0.05, 0.95)).astype(int)
        if len(set(y)) < 2:
            y[int(np.argmin(s))], y[int(np.argmax(s))] = 0, 1
        try:
            cal = fit_calibrator(s, y, method)
        except CalibrationError:
            return
        sweep = np.linspace(-0.5, 1.5, 201)
        out = apply(cal, sweep)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        if not getattr(cal, "flipped", False):
            assert np.all(np.diff(out) >= -1e-12)
        else:
            assert np.all(np.diff(out) <= 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 100_000))
    def test_rank_preservation_up_to_ties(self, seed):
        rng = np.random.default_rng(seed)
        s = rng.uniform(0, 1, 30)
        y = (rng.random(30) < s).astype(int)
        if len(set(y)) < 2:
            y[int(np.argmin(s))], y[int(np.argmax(s))] = 0, 1
        cal = fit_isotonic(s, y)
        out = apply(cal, s)
        order = np.argsort(s, kind="mergesort")
        assert np.all(np.diff(out[order]) >= -1e-12)
