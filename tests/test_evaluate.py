import re
import warnings
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aisoc.corpus import (
    AugmentOp,
    Channel,
    Label,
    LogRecord,
    MalwareSample,
    ScenarioConfig,
    generate_corpus,
)
from aisoc.corpus.generate import MAX_GENERATED_ITEMS
from aisoc import pipeline
from aisoc.errors import CalibrationError, ConfigError, LoadError, MetricError, TrainingError
from aisoc.evaluate import (
    ManifestItem,
    binary_labels,
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
from aisoc.pipeline import (
    ExperimentConfig,
    augmented_cv_corpus,
    calibrate_detectors,
    cross_validate_log_model,
    generate_malware_rows,
    train_log_detector,
    train_malware_detector,
)


def reference_build_manifest(logs, samples, supports, seed):
    """The pairing rule written with pools, cursors and closures, kept as the reference."""
    n_normal, n_susp, n_high = supports
    if min(supports) < 0 or sum(supports) == 0:
        raise ConfigError(f"invalid manifest supports {supports}")
    pools = {
        (Label.BENIGN, "log"): [r for r in logs if r.label is Label.BENIGN],
        (Label.MALICIOUS, "log"): [r for r in logs if r.label is Label.MALICIOUS],
        (Label.BENIGN, "mw"): [s for s in samples if s.label is Label.BENIGN],
        (Label.MALICIOUS, "mw"): [s for s in samples if s.label is Label.MALICIOUS],
    }
    needs = {
        (Label.BENIGN, "log"): n_normal + (n_susp + 1) // 2,
        (Label.MALICIOUS, "log"): n_high + n_susp // 2,
        (Label.BENIGN, "mw"): n_normal + n_susp // 2,
        (Label.MALICIOUS, "mw"): n_high + (n_susp + 1) // 2,
    }
    for key, needed in needs.items():
        if needed > 0 and not pools[key]:
            raise ConfigError(f"no {key[0].value} {key[1]} records available for manifest")

    cursors = dict.fromkeys(pools, 0)

    def _next(label, kind):
        pool = pools[(label, kind)]
        item = pool[cursors[(label, kind)] % len(pool)]
        cursors[(label, kind)] += 1
        return item

    items = []

    def _add(log_label, mw_label):
        items.append(ManifestItem(entity_id=f"e{len(items):05d}",
                                  log=_next(log_label, "log"), malware=_next(mw_label, "mw")))

    for _ in range(n_normal):
        _add(Label.BENIGN, Label.BENIGN)
    for i in range(n_susp):
        if i % 2 == 0:  # malware-driven
            _add(Label.BENIGN, Label.MALICIOUS)
        else:           # log-driven
            _add(Label.MALICIOUS, Label.BENIGN)
    for _ in range(n_high):
        _add(Label.MALICIOUS, Label.MALICIOUS)
    del seed
    return items


def _labelled(draw, make) -> list:
    """0-8 benign, 0-8 malicious and 0-2 unlabelled records, interleaved."""
    labels = ([Label.BENIGN] * draw(st.integers(0, 8))
              + [Label.MALICIOUS] * draw(st.integers(0, 8)) + [None] * draw(st.integers(0, 2)))
    return [make(i, label) for i, label in enumerate(draw(st.permutations(labels)))]


@st.composite
def manifest_inputs(draw):
    logs = _labelled(draw, lambda i, label: LogRecord(
        timestamp=i, host="h", channel=Channel.SYSTEM, message=f"log {i}", label=label))
    rows = _labelled(draw, lambda i, label: MalwareSample(
        sample_id=f"s{i}", features=(float(i),), label=label))
    supports = draw(st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7)))
    return logs, rows, supports, draw(st.integers(0, 2**63 - 1))


def _outcome(build, *args):
    """The items ``build`` returns, or the type and text of the error it raises."""
    try:
        return build(*args)
    except ConfigError as exc:
        return type(exc), str(exc)


class TestBuildManifest:
    @settings(max_examples=300, deadline=None)
    @given(manifest_inputs())
    def test_equals_the_reference_pairing(self, inputs):
        logs, rows, supports, seed = inputs
        assert _outcome(build_manifest, logs, rows, supports, seed) \
            == _outcome(reference_build_manifest, logs, rows, supports, seed)

    def test_seed_is_optional_and_unused(self, demo_result):
        logs, rows = demo_result.log_split.test, demo_result.malware_split.test
        assert build_manifest(logs, rows, supports=(3, 5, 4)) \
            == build_manifest(logs, rows, supports=(3, 5, 4), seed=12345)

    @pytest.mark.parametrize("supports", [(MAX_GENERATED_ITEMS + 1, 0, 0),
                                          (1, 1, MAX_GENERATED_ITEMS - 1)])
    def test_supports_above_the_generate_limit_are_refused_before_pairing(self, supports):
        log = LogRecord(timestamp=0, host="h", channel=Channel.SYSTEM, message="m",
                        label=Label.BENIGN)
        row = MalwareSample(sample_id="s", features=(0.0,), label=Label.BENIGN)
        with pytest.raises(ConfigError, match=f"limit of {MAX_GENERATED_ITEMS} items"):
            build_manifest([log], [row], supports=supports)

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

    @pytest.mark.parametrize("bad,reason", [
        ("[1, 2]", ""),
        ('"just a string"', ""),
        ('{"entity_id": 5, "log_message": "m", "malware_features": [1.0]}', ""),
        ('{"entity_id": "e", "log_message": 7, "malware_features": [1.0]}', ""),
        ('{"entity_id": "e", "log_message": "m", "malware_features": 5}', ""),
        ('{"entity_id": "e", "log_message": "m", "malware_features": [true]}', ""),
        ('{"entity_id": "e", "log_message": "m", "malware_features": ["1.5"]}', ""),
        ('{"entity_id": "e", "log_message": "m", "malware_features": [NaN]}', ""),
        ('{"entity_id": "e", "log_message": "m", "malware_features": [' + "9" * 400 + "]}", ""),
        ('{"entity_id": "e", "log_message": "\\ud800", "malware_features": [1.0]}', ""),
        ('{"entity_id": "e", "log_message": "m", "malware_features": [1.0], "log_label": 3}',
         "log_label: 3 is not a valid Label"),
        ('{"entity_id": "e", "log_message": "m", "malware_features": [1.0], "log_label": 0, '
         '"malware_label": "BENIGN"}', "log_label: 0 is not a valid Label"),
        ('{"entity_id": "e", "log_message": "m", "malware_features": [1.0], '
         '"log_label": "BENIGN", "malware_label": null}',
         "malware_label: None is not a valid Label"),
        ('{"entity_id": "e", "log_message": "m", "malware_features": [1.0], '
         '"log_label": "BENIGN"}', "malware_label: None is not a valid Label"),
        ('{"log_message": "m", "malware_features": [1.0]}', ""),
        ("[" * 100_000 + "]" * 100_000, ""),
        ('{"entity_id": "e", "log_message": "m", "malware_features": [' + "1" * 5000 + "]}", ""),
    ], ids=["array", "string", "int-id", "int-message", "int-features", "bool-feature",
            "string-feature", "nan-feature", "int-beyond-float", "lone-surrogate",
            "bad-label", "zero-label", "null-label", "no-malware-label", "no-id",
            "deep-nesting", "5000-digits"])
    def test_read_manifest_refuses_a_bad_line_by_number(self, tmp_path, bad, reason):
        good = ('{"entity_id": "e0", "log_message": "m", "malware_features": [0.5], '
                '"log_label": "BENIGN", "malware_label": "MALICIOUS"}')
        path = tmp_path / "bad.ndjson"
        path.write_text("\n".join([good, "", bad, good]) + "\n", encoding="utf-8")
        with pytest.raises(LoadError, match=r"bad\.ndjson: line 3: " + re.escape(reason)):
            read_manifest(path)

    @pytest.mark.parametrize("features,reason", [
        ("[1.0, true]", "malware_features must be an array of numbers"),
        ("[1.0, NaN]", "malware_features must be finite"),
        ("[" + "9" * 400 + "]", "malware_features must be finite"),
    ])
    def test_read_manifest_gives_the_request_reason_for_a_bad_row(self, tmp_path, features,
                                                                  reason):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"entity_id": "e", "log_message": "m", "malware_features": '
                        f"{features}}}\n", encoding="utf-8")
        with pytest.raises(LoadError, match=f"line 1: {reason}$"):
            read_manifest(path)

    def test_read_manifest_refuses_a_line_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_bytes(b'{"entity_id": "e\xff", "log_message": "m", "malware_features": []}\n')
        with pytest.raises(LoadError, match="line 1: 'utf-8' codec can't decode"):
            read_manifest(path)


def _item(mw_label, log_label) -> ManifestItem:
    return ManifestItem(
        entity_id="e", malware=MalwareSample(sample_id="e", features=(0.5,), label=mw_label),
        log=LogRecord(timestamp=0, host="h", channel=Channel.SYSTEM, message="m",
                      label=log_label))


class TestTruth:
    @pytest.mark.parametrize("mw, log, expected", [
        (Label.MALICIOUS, Label.MALICIOUS, TriageLabel.HIGH_CONFIDENCE_ATTACK),
        (Label.BENIGN, Label.BENIGN, TriageLabel.NORMAL),
        (Label.MALICIOUS, Label.BENIGN, TriageLabel.SUSPICIOUS),
        (Label.BENIGN, Label.MALICIOUS, TriageLabel.SUSPICIOUS),
    ])
    def test_combinations(self, mw, log, expected):
        assert _item(mw, log).truth is expected

    def test_missing_label_is_error(self):
        for mw, log in ((None, Label.BENIGN), (Label.BENIGN, None)):
            with pytest.raises(ValueError, match="both component labels are required"):
                _item(mw, log).truth


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
        assert (pair.s_m, pair.s_l) == (response["s_m"], response["s_l"])
    assert len(pairs) == len(items)
    assert score_items(demo_scorer, []) == []


def test_score_items_rejects_a_row_of_another_width(demo_scorer, demo_result):
    from dataclasses import replace

    from aisoc.errors import DimensionError

    items = list(demo_result.test_items[:3])
    short = replace(items[1].malware, features=items[1].malware.features[:-1])
    items[1] = replace(items[1], malware=short)
    with pytest.raises(DimensionError, match="standardizer expects"):
        score_items(demo_scorer, items)


def test_cv_fold_with_single_class_training_part_is_refused(demo_result):
    logs = demo_result.log_split.train
    benign = [r for r in logs if r.label is Label.BENIGN][:20]
    malicious = next(r for r in logs if r.label is Label.MALICIOUS)
    # stratified 2-fold: the one MALICIOUS record is held out in fold 0, so fold 0
    # trains on BENIGN records only
    with pytest.raises(TrainingError):
        cross_validate_log_model(benign + [malicious], folds=2, seed=0)


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


class TestUnlabeledRecords:
    """A stage that fits on labels refuses an unlabeled record before it fits anything."""

    @staticmethod
    def unlabeled(records, count):
        """``records`` with the label of their first ``count`` MALICIOUS ones removed."""
        malicious = [i for i, r in enumerate(records) if r.label is Label.MALICIOUS][:count]
        return [replace(r, label=None) if i in malicious else r for i, r in enumerate(records)]

    def test_binary_labels_counts_the_unlabeled_in_the_callers_error(self):
        labels = [Label.MALICIOUS, None, Label.BENIGN, None]
        with pytest.raises(TrainingError, match="^2 of 4 rows have no label$"):
            binary_labels(labels, TrainingError, "rows")
        with pytest.raises(MetricError, match="^1 of 1 records have no label$"):
            binary_labels(iter([None]))
        assert binary_labels([Label.MALICIOUS, Label.BENIGN]) == [1, 0]

    @pytest.mark.parametrize("every_malicious", [False, True], ids=["some", "all-malicious"])
    def test_train_log_detector(self, demo_result, monkeypatch, every_malicious):
        records = demo_result.log_split.train
        n_malicious = sum(r.label is Label.MALICIOUS for r in records)
        count = n_malicious if every_malicious else 5
        monkeypatch.setattr(pipeline, "fit_vocabulary", self.no_fit)
        with pytest.raises(TrainingError, match=f"^{count} of {len(records)} training log "
                                                "records have no label$"):
            train_log_detector(self.unlabeled(records, count), min_df=2, max_features=100,
                               l2=1e-3, epochs=5, seed=0)

    def test_train_malware_detector(self, demo_result, monkeypatch):
        samples = demo_result.malware_split.train
        monkeypatch.setattr(pipeline, "fit_standardizer", self.no_fit)
        with pytest.raises(TrainingError, match=f"^3 of {len(samples)} training malware rows "
                                                "have no label$"):
            train_malware_detector(self.unlabeled(samples, 3), n_trees=2, max_depth=3,
                                   min_samples_leaf=1, seed=0)

    @pytest.mark.parametrize("which", ["logs", "malware"])
    def test_calibrate_detectors_raises_instead_of_falling_back(self, demo_result, which):
        logs, samples = demo_result.log_split.validation, demo_result.malware_split.validation
        if which == "logs":
            logs, message = self.unlabeled(logs, 4), f"4 of {len(logs)} validation log records"
        else:
            samples = self.unlabeled(samples, 4)
            message = f"4 of {len(samples)} validation malware rows"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no IDENTITY fallback warning
            with pytest.raises(CalibrationError, match=f"^{message} have no label$"):
                calibrate_detectors(demo_result.artifact, logs, samples, "auto")

    @staticmethod
    def no_fit(*args, **kwargs):
        raise AssertionError("fitted before the labels were checked")


def test_cv_corpus_reads_no_malware_field():
    config = ExperimentConfig(seed=3, benign_hosts=1, attack_sessions=2, duration_s=120.0,
                              malware_benign=0)
    with pytest.raises(ConfigError):
        generate_malware_rows(config)
    corpus = augmented_cv_corpus(config)
    assert corpus and all(isinstance(r, LogRecord) for r in corpus)
