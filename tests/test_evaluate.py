import warnings

import pytest

from aisoc.corpus import AugmentOp, Label, ScenarioConfig, generate_corpus
from aisoc.errors import ConfigError, LoadError
from aisoc.evaluate import (
    build_manifest,
    manifest_fingerprint,
    multi_seed,
    read_manifest,
    robustness_probe,
    run_baselines,
    score_items,
    write_manifest,
)
from aisoc.fusion import TriageLabel
from aisoc.metrics import EvalReport, classification_report
from aisoc.pipeline import train_log_detector


class TestBuildManifest:
    def test_supports_are_hit_exactly(self, demo_result):
        items = demo_result.test_items
        truths = [item.truth for item in items]
        assert truths.count(TriageLabel.NORMAL) == 14
        assert truths.count(TriageLabel.SUSPICIOUS) == 76
        assert truths.count(TriageLabel.HIGH_CONFIDENCE_ATTACK) == 62

    def test_suspicious_items_alternate_modality(self, demo_result):
        suspicious = [i for i in demo_result.test_items
                      if i.truth is TriageLabel.SUSPICIOUS]
        mw_driven = sum(1 for i in suspicious if i.malware.label is Label.MALICIOUS)
        log_driven = len(suspicious) - mw_driven
        assert abs(mw_driven - log_driven) <= 1

    def test_entity_ids_unique(self, demo_result):
        ids = [i.entity_id for i in demo_result.test_items]
        assert len(set(ids)) == len(ids)

    def test_empty_pool_is_error(self, demo_result):
        with pytest.raises(ConfigError):
            build_manifest([], demo_result.malware_split.test, supports=(1, 1, 1), seed=0)

    def test_roundtrip_through_ndjson(self, tmp_path, demo_result):
        items = demo_result.test_items[:25]
        path = tmp_path / "manifest.ndjson"
        write_manifest(items, path)
        loaded = read_manifest(path)
        assert [i.entity_id for i in loaded] == [i.entity_id for i in items]
        assert [i.truth for i in loaded] == [i.truth for i in items]
        assert [i.log.message for i in loaded] == [i.log.message for i in items]
        assert [i.malware.features for i in loaded] == [i.malware.features for i in items]
        assert manifest_fingerprint(loaded) == manifest_fingerprint(items)

    def test_read_manifest_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"entity_id": "e1"}\n')
        with pytest.raises(LoadError):
            read_manifest(path)

    @pytest.mark.parametrize("bad", [
        "[1, 2]",
        '"just a string"',
        '{"entity_id": 5, "log_message": "m", "malware_features": [1.0]}',
        '{"entity_id": "e", "log_message": 7, "malware_features": [1.0]}',
        '{"entity_id": "e", "log_message": "m", "malware_features": 5}',
        '{"entity_id": "e", "log_message": "m", "malware_features": [true]}',
        '{"entity_id": "e", "log_message": "m", "malware_features": ["1.5"]}',
        '{"entity_id": "e", "log_message": "m", "malware_features": [NaN]}',
        '{"entity_id": "e", "log_message": "m", "malware_features": [' + "9" * 400 + "]}",
        '{"entity_id": "e", "log_message": "\\ud800", "malware_features": [1.0]}',
        '{"entity_id": "e", "log_message": "m", "malware_features": [1.0], "log_label": 3}',
        '{"log_message": "m", "malware_features": [1.0]}',
        "[" * 100_000 + "]" * 100_000,
        '{"entity_id": "e", "log_message": "m", "malware_features": [' + "1" * 5000 + "]}",
    ], ids=["array", "string", "int-id", "int-message", "int-features", "bool-feature",
            "string-feature", "nan-feature", "int-beyond-float", "lone-surrogate",
            "bad-label", "no-id", "deep-nesting", "5000-digits"])
    def test_read_manifest_refuses_a_bad_line_by_number(self, tmp_path, bad):
        good = '{"entity_id": "e0", "log_message": "m", "malware_features": [0.5]}'
        path = tmp_path / "bad.ndjson"
        path.write_text("\n".join([good, "", bad, good]) + "\n", encoding="utf-8")
        with pytest.raises(LoadError, match=r"bad\.ndjson: line 3: "):
            read_manifest(path)

    def test_read_manifest_refuses_a_line_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_bytes(b'{"entity_id": "e\xff", "log_message": "m", "malware_features": []}\n')
        with pytest.raises(LoadError, match="line 1: 'utf-8' codec can't decode"):
            read_manifest(path)


class TestRunBaselines:
    def test_three_settings_on_same_manifest(self, demo_result):
        reports = run_baselines(demo_result.scorer, demo_result.test_items)
        assert set(reports) == {"logs", "malware", "fused"}
        n = len(demo_result.test_items)
        for report in reports.values():
            assert report.total_support == n
        assert reports["logs"].roc_auc is not None
        assert reports["malware"].pr_auc is not None
        assert reports["fused"].roc_auc is None  # 3-class setting has no AUC

    def test_deterministic_report_bytes(self, demo_result):
        a = run_baselines(demo_result.scorer, demo_result.test_items)
        b = run_baselines(demo_result.scorer, demo_result.test_items)
        for name in a:
            assert a[name].to_json_bytes() == b[name].to_json_bytes()

    def test_fused_labels_consistent_with_rule(self, demo_result):
        pairs = score_items(demo_result.scorer, demo_result.test_items)
        cfg = demo_result.fusion_config
        for pair in pairs:
            label = demo_result.scorer.triage(pair.s_m, pair.s_l)
            expected_high = pair.s_m >= cfg.t_m and pair.s_l >= cfg.t_l
            assert (label is TriageLabel.HIGH_CONFIDENCE_ATTACK) == expected_high


class TestRobustnessProbe:
    def test_rate_zero_probe_is_identity(self, demo_result):
        report = robustness_probe(demo_result.scorer, demo_result.test_items,
                                  [AugmentOp.CHAR_NOISE], rate=0.0, seed=1)
        assert report.mutated_items == 0
        assert report.log_macro_f1_delta == 0.0
        assert report.fused_macro_f1_delta == 0.0
        assert (report.normal_suspicious_confusion_before
                == report.normal_suspicious_confusion_after)

    def test_full_rate_probe_reports_directions(self, demo_result):
        report = robustness_probe(
            demo_result.scorer, demo_result.test_items,
            [AugmentOp.CHAR_NOISE, AugmentOp.KEYWORD_OBFUSCATION], rate=1.0, seed=3)
        assert report.mutated_items == len(demo_result.test_items)
        assert report.log_macro_f1_after <= report.log_macro_f1_before
        assert report.high_degraded_to_normal == 0
        payload = report.to_json_dict()
        assert payload["ops"] == ["CHAR_NOISE", "KEYWORD_OBFUSCATION"]
        assert payload["fused_macro_f1"]["delta"] == pytest.approx(
            report.fused_macro_f1_delta)

    def test_probe_is_seed_deterministic(self, demo_result):
        kwargs = dict(ops=[AugmentOp.CHAR_NOISE], rate=0.5, seed=11)
        a = robustness_probe(demo_result.scorer, demo_result.test_items, **kwargs)
        b = robustness_probe(demo_result.scorer, demo_result.test_items, **kwargs)
        assert a.to_json_dict() == b.to_json_dict()


def _fixed_report(f1: float) -> EvalReport:
    preds = [0, 1]
    report = classification_report(preds, preds, [0, 1], setting="stub")
    report.macro_f1 = f1
    return report


class TestMultiSeed:
    def test_median_seed_identification(self):
        values = {1: 0.8, 2: 0.9, 3: 1.0, 4: 0.7, 5: 0.85}
        report = multi_seed(lambda seed: _fixed_report(values[seed]), [1, 2, 3, 4, 5])
        assert report.median_seed == 5  # 0.85 is the median macro-F1
        assert report.median_report.macro_f1 == 0.85
        assert report.macro_f1_mean == pytest.approx(sum(values.values()) / 5)

    def test_single_seed_aggregate_is_that_run(self):
        report = multi_seed(lambda seed: _fixed_report(0.9), [42])
        assert report.median_seed == 42
        assert report.macro_f1_mean == pytest.approx(0.9)
        assert report.macro_f1_std == 0.0

    def test_even_count_uses_lower_median(self):
        values = {1: 0.6, 2: 0.9, 3: 0.7, 4: 0.8}
        report = multi_seed(lambda seed: _fixed_report(values[seed]), [1, 2, 3, 4])
        assert report.median_seed == 3  # sorted f1 [0.6, 0.7, 0.8, 0.9] -> lower median

    def test_no_seeds_rejected(self):
        with pytest.raises(ConfigError):
            multi_seed(lambda seed: _fixed_report(1.0), [])

    def test_repeat_runs_identical(self):
        runs = [multi_seed(lambda seed: _fixed_report(0.5 + seed / 10), [1, 2, 3])
                for _ in range(2)]
        assert runs[0].to_json_dict() == runs[1].to_json_dict()

    def test_real_pipeline_sweep(self, demo_config):
        from aisoc.pipeline import seeded_runner
        report = multi_seed(seeded_runner(demo_config), [3, 5])
        assert len(report.macro_f1_per_seed) == 2
        assert report.median_seed in (3, 5)
        assert report.median_report.seeds == [3, 5]
        assert 0.0 <= report.macro_f1_mean <= 1.0


def test_score_items_scores_each_item_like_score_request(demo_scorer, demo_result):
    items = demo_result.test_items
    pairs = score_items(demo_scorer, items)
    for item, pair in zip(items, pairs):
        response = demo_scorer.score_request({"log_message": item.log.message,
                                              "malware_features": list(item.malware.features)})
        assert (pair.s_m, pair.s_l, pair.entity_id) == (response["s_m"], response["s_l"],
                                                        item.entity_id)
    assert score_items(demo_scorer, []) == []


def test_score_items_rejects_a_row_of_another_width(demo_scorer, demo_result):
    from dataclasses import replace

    from aisoc.errors import DimensionError

    items = list(demo_result.test_items[:3])
    short = replace(items[1].malware, features=items[1].malware.features[:-1])
    items[1] = replace(items[1], malware=short)
    with pytest.raises(DimensionError, match="standardizer expects"):
        score_items(demo_scorer, items)


class TestTrainLogDetector:
    @pytest.fixture(scope="class")
    def records(self):
        return generate_corpus(ScenarioConfig(benign_hosts=1, attack_sessions=4,
                                              duration_s=300, seed=3))

    def test_warns_when_all_epochs_run_without_converging(self, records):
        with pytest.warns(UserWarning, match="did not converge in 3 epochs"):
            _, model = train_log_detector(records, min_df=1, max_features=1000, l2=1e-3,
                                          epochs=3, seed=0)
        assert model.training_meta["iterations"] == 3
        assert model.training_meta["converged"] is False

    def test_silent_when_converged(self, records):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, model = train_log_detector(records, min_df=1, max_features=1000, l2=1e-3,
                                          epochs=500, seed=0)
        assert model.training_meta["converged"] is True
