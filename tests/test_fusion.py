import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aisoc.errors import TuningError
from aisoc.evaluate import build_manifest
from aisoc.fusion import (
    MIN_GRID_STEP,
    TRIAGE_CLASSES,
    CalibratedScorePair,
    FusionConfig,
    TriageLabel,
    fuse_scores,
    macro_f1_grid,
    threshold_grid,
    tune_thresholds,
    tuning_macro_f1,
)
from aisoc.metrics import classification_report, macro_average, precision_recall_f1
from aisoc.pipeline import validation_pairs
from aisoc.seeding import derive_seed

PAPER_CONFIG = FusionConfig(t_m=0.10, t_l=0.42)

scores = st.floats(0.0, 1.0)


class TestFuse:
    def test_paper_thresholds_mid_scores_fire_both_branches(self):
        assert fuse_scores(0.50, 0.50, PAPER_CONFIG.t_m, PAPER_CONFIG.t_l) \
            is TriageLabel.HIGH_CONFIDENCE_ATTACK

    def test_zero_scores_are_normal(self):
        assert fuse_scores(0.0, 0.0, 0.2, 0.7) is TriageLabel.NORMAL

    def test_inclusive_malware_branch_only(self):
        assert fuse_scores(0.10, 0.41, PAPER_CONFIG.t_m, PAPER_CONFIG.t_l) \
            is TriageLabel.SUSPICIOUS

    def test_boundary_is_inclusive_on_both_axes(self):
        t_m, t_l = PAPER_CONFIG.t_m, PAPER_CONFIG.t_l
        assert fuse_scores(t_m, t_l, t_m, t_l) is TriageLabel.HIGH_CONFIDENCE_ATTACK

    def test_score_range_validated(self):
        with pytest.raises(ValueError):
            CalibratedScorePair(s_m=1.2, s_l=0.0)
        with pytest.raises(ValueError):
            CalibratedScorePair(s_m=0.5, s_l=-0.1)

    @settings(max_examples=150, deadline=None)
    @given(s_m=scores, s_l=scores, t_m=scores, t_l=scores)
    def test_exactly_one_label_and_high_implies_or(self, s_m, s_l, t_m, t_l):
        label = fuse_scores(s_m, s_l, t_m, t_l)
        assert label in TRIAGE_CLASSES
        if label is TriageLabel.HIGH_CONFIDENCE_ATTACK:
            assert s_m >= t_m or s_l >= t_l

    @settings(max_examples=150, deadline=None)
    @given(s_m=scores, s_l=scores, t_m=scores, t_l=scores,
           bump=st.floats(0.0, 1.0))
    def test_monotone_severity_in_scores(self, s_m, s_l, t_m, t_l, bump):
        base = fuse_scores(s_m, s_l, t_m, t_l)
        assert fuse_scores(min(1.0, s_m + bump), s_l, t_m, t_l) >= base
        assert fuse_scores(s_m, min(1.0, s_l + bump), t_m, t_l) >= base


class TestThresholdGrid:
    def test_half_step_grid(self):
        assert threshold_grid(0.5).tolist() == [0.0, 0.5, 1.0]

    def test_hundredth_grid_has_101_points_and_contains_paper_pair(self):
        grid = threshold_grid(0.01)
        assert len(grid) == 101
        assert 0.10 in grid and 0.42 in grid

    def test_non_divisor_step_still_reaches_one(self):
        grid = threshold_grid(0.3)
        assert grid[0] == 0.0 and grid[-1] == 1.0

    def test_bad_step(self):
        for step in (0.0, 0.0005, 1e-12, 0.6):
            with pytest.raises(TuningError, match=r"grid_step must be in \[0\.001, 0\.5\]"):
                threshold_grid(step)

    def test_finest_step_is_the_floor(self):
        assert len(threshold_grid(MIN_GRID_STEP)) == 1001


def _pairs_and_truth(n, rng):
    pairs, truth = [], []
    for _ in range(n):
        mw, log = rng.random() < 0.5, rng.random() < 0.5
        s_m = rng.uniform(0.55, 1.0) if mw else rng.uniform(0.0, 0.45)
        s_l = rng.uniform(0.55, 1.0) if log else rng.uniform(0.0, 0.45)
        pairs.append(CalibratedScorePair(s_m=s_m, s_l=s_l))
        truth.append(fuse_scores(float(mw), float(log), 1.0, 1.0))
    return pairs, truth


class TestTuneThresholds:
    def test_separable_set_hits_perfect_f1_at_smallest_corner(self):
        rng = np.random.default_rng(5)
        pairs, truth = _pairs_and_truth(80, rng)
        config = tune_thresholds(pairs, truth, grid_step=0.05)
        assert tuning_macro_f1(pairs, truth, config) == pytest.approx(1.0)
        # every grid pair inside the separating band works; the tie-break
        # must return the smallest separating corner on each axis
        grid = threshold_grid(0.05)

        def smallest_separating(values):
            low = max(v for v in values if v < 0.5)   # top of the benign band
            high = min(v for v in values if v >= 0.5)  # bottom of the malicious band
            return min(g for g in grid if low < g <= high)

        assert config.t_m == smallest_separating([p.s_m for p in pairs])
        assert config.t_l == smallest_separating([p.s_l for p in pairs])

    def test_grid_step_recorded(self):
        rng = np.random.default_rng(6)
        pairs, truth = _pairs_and_truth(40, rng)
        config = tune_thresholds(pairs, truth, grid_step=0.5, tuned_on="val-x")
        assert config.grid_step == 0.5
        assert config.tuned_on == "val-x"

    def test_single_class_truth_is_error(self):
        pairs = [CalibratedScorePair(s_m=0.1, s_l=0.1)] * 5
        truth = [TriageLabel.NORMAL] * 5
        with pytest.raises(TuningError):
            tune_thresholds(pairs, truth)

    def test_empty_validation_is_error(self):
        with pytest.raises(TuningError):
            tune_thresholds([], [])

    def test_length_mismatch_is_error(self):
        with pytest.raises(TuningError):
            tune_thresholds([CalibratedScorePair(s_m=0.1, s_l=0.1)],
                            [TriageLabel.NORMAL, TriageLabel.SUSPICIOUS])

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_returned_pair_attains_grid_maximum(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(10, 60)
        pairs = [CalibratedScorePair(s_m=float(rng.random()), s_l=float(rng.random()))
                 for _ in range(n)]
        truth = [TriageLabel(int(rng.integers(0, 3))) for _ in range(n)]
        if len(set(truth)) < 2:
            truth[0] = TriageLabel.NORMAL
            truth[1] = TriageLabel.SUSPICIOUS
        config = tune_thresholds(pairs, truth, grid_step=0.1)
        best = tuning_macro_f1(pairs, truth, config)
        grid = threshold_grid(0.1)
        for t_m in grid:
            for t_l in grid:
                preds = [fuse_scores(p.s_m, p.s_l, t_m, t_l) for p in pairs]
                report = classification_report(preds, truth, TRIAGE_CLASSES)
                assert report.macro_f1 <= best + 1e-12

    @pytest.mark.parametrize("absent", TRIAGE_CLASSES)
    def test_grid_f1_is_the_reported_f1_when_a_class_has_no_truth(self, absent):
        rng = np.random.default_rng(int(absent))
        present = [c for c in TRIAGE_CLASSES if c != absent]
        pairs = [CalibratedScorePair(s_m=float(rng.random()), s_l=float(rng.random()))
                 for _ in range(40)]
        truth = present + [present[i] for i in rng.integers(0, 2, len(pairs) - 2)]
        for t_m in threshold_grid(0.1):
            for t_l in threshold_grid(0.1):
                preds = [fuse_scores(p.s_m, p.s_l, t_m, t_l) for p in pairs]
                report = classification_report(preds, truth, TRIAGE_CLASSES)
                config = FusionConfig(t_m=float(t_m), t_l=float(t_l))
                assert tuning_macro_f1(pairs, truth, config).hex() == report.macro_f1.hex()


def _table_macro_f1_grid(pairs, truth, grid_m, grid_l):
    """The grid's macro-F1 from a (truth, predicted, G_m, G_l) count table: the
    oracle ``macro_f1_grid`` must match bit for bit."""
    s_m = np.array([p.s_m for p in pairs])
    s_l = np.array([p.s_l for p in pairs])
    y = np.array([int(t) for t in truth])
    hits_m = (s_m[:, None] >= grid_m[None, :]).astype(np.float64)
    hits_l = (s_l[:, None] >= grid_l[None, :]).astype(np.float64)
    counts = np.zeros((3, 3, len(grid_m), len(grid_l)))
    for t in range(3):
        mask = y == t
        if not mask.any():
            continue
        a, b = hits_m[mask], hits_l[mask]
        both = a.T @ b
        neither = (1.0 - a).T @ (1.0 - b)
        counts[t, 2] = both
        counts[t, 0] = neither
        counts[t, 1] = float(mask.sum()) - both - neither
    return macro_average([precision_recall_f1(counts[c, c], counts[:, c].sum(axis=0),
                                              counts[c].sum(axis=0))[2] for c in range(3)])


# scores on a coarse lattice as well, so that many land on a threshold exactly
_GRID_SCORES = st.one_of(scores, st.just(-0.0), st.integers(0, 20).map(lambda k: k / 20))


class TestMacroF1Grid:
    @settings(max_examples=150, deadline=None)
    @given(items=st.lists(st.tuples(_GRID_SCORES, _GRID_SCORES, st.sampled_from(TRIAGE_CLASSES)),
                          min_size=1, max_size=40),
           step_m=st.sampled_from([0.05, 0.1, 0.25, 0.5]),
           step_l=st.sampled_from([0.05, 0.1, 0.3, 0.5]))
    def test_the_bits_of_the_count_table_formula(self, items, step_m, step_l):
        pairs = [CalibratedScorePair(s_m=a, s_l=b) for a, b, _ in items]
        truth = [t for _, _, t in items]
        grid_m, grid_l = threshold_grid(step_m), threshold_grid(step_l)
        f1 = macro_f1_grid(pairs, truth, grid_m, grid_l)
        assert f1.shape == (len(grid_m), len(grid_l))
        assert f1.tobytes() == _table_macro_f1_grid(pairs, truth, grid_m, grid_l).tobytes()

    @pytest.mark.parametrize("absent", TRIAGE_CLASSES)
    def test_a_class_without_items_scores_zero_f1(self, absent):
        rng = np.random.default_rng(int(absent) + 10)
        present = [c for c in TRIAGE_CLASSES if c != absent]
        pairs = [CalibratedScorePair(s_m=float(rng.random()), s_l=float(rng.random()))
                 for _ in range(30)]
        truth = [present[i] for i in rng.integers(0, 2, len(pairs))]
        grid = threshold_grid(0.1)
        f1 = macro_f1_grid(pairs, truth, grid, grid)
        assert f1.tobytes() == _table_macro_f1_grid(pairs, truth, grid, grid).tobytes()
        assert f1.max() <= 2 / 3

    def test_the_one_cell_grid_of_tuning_macro_f1(self):
        rng = np.random.default_rng(3)
        pairs = [CalibratedScorePair(s_m=float(rng.random()), s_l=float(rng.random()))
                 for _ in range(25)]
        truth = [TRIAGE_CLASSES[i] for i in rng.integers(0, 3, len(pairs))]
        config = FusionConfig(t_m=0.3, t_l=0.6)
        cell = _table_macro_f1_grid(pairs, truth, np.array([0.3]), np.array([0.6]))
        assert cell.shape == (1, 1)
        assert tuning_macro_f1(pairs, truth, config).hex() == float(cell[0, 0]).hex()


def test_tuning_f1_is_the_reported_f1_at_every_grid_cell(demo_config, demo_result):
    """Thresholds are chosen on the macro-F1 the fused report prints."""
    val_items = build_manifest(demo_result.log_split.validation,
                               demo_result.malware_split.validation,
                               supports=demo_config.val_supports,
                               seed=derive_seed(demo_config.seed, "manifest-validation"))
    pairs, truth = validation_pairs(demo_result.artifact, val_items)
    grid = threshold_grid(0.1)
    assert len(grid) == 11
    for t_m in grid:
        for t_l in grid:
            config = FusionConfig(t_m=float(t_m), t_l=float(t_l))
            report = classification_report([fuse_scores(p.s_m, p.s_l, t_m, t_l) for p in pairs],
                                            truth, TRIAGE_CLASSES)
            assert tuning_macro_f1(pairs, truth, config).hex() == report.macro_f1.hex()
