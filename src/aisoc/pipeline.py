"""End-to-end experiment wiring: generate, train, calibrate, tune, evaluate.

Every stage derives its own RNG stream from the single experiment seed, so
a fixed seed reproduces the whole run byte-for-byte, artifacts included.
``created_at`` on the artifact is pinned to the telemetry epoch for the
same reason; pass your own value if wall-clock stamping matters more than
reproducibility.

Artifacts are immutable values: a stage that fits a component returns a
new artifact, and ``run_experiment`` builds its artifact once both
detectors exist. An artifact is also its own scorer: calibration fits on
its raw scores, and threshold tuning on its calibrated ones.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

from . import calibrate
from .corpus import (
    EPOCH_MS,
    AugmentOp,
    DatasetSplit,
    Label,
    LogRecord,
    MalwareSample,
    MalwareScenario,
    ScenarioConfig,
    SplitKind,
    SplitSpec,
    augment,
    dedup_near_identical,
    generate_corpus,
    generate_malware,
    k_fold,
    split,
)
from .errors import CalibrationError, TrainingError
from .evaluate import (
    ManifestItem,
    binary_labels,
    build_manifest,
    fingerprint,
    run_baselines,
    score_items,
)
from .features import (
    feature_matrix,
    fit_standardizer,
    fit_vocabulary,
    transform_dense,
    transform_text,
)
from .fusion import (
    CalibratedScorePair,
    FusionConfig,
    TriageLabel,
    tune_thresholds,
    tuning_macro_f1,
)
from .learn.forest import train_forest
from .learn.logistic import train_logistic
from .metrics import EvalReport, classification_report
from .seeding import derive_seed
from .service.artifact import PAIR_COMPONENTS, ModelArtifact


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs for one full desk-scale run (defaults are test-sized)."""

    seed: int = 7
    # log corpus
    benign_hosts: int = 3
    attack_sessions: int = 12
    duration_s: float = 1800.0
    benign_rate_per_host: float = 0.25
    # training-side augmentation
    augment_ops: tuple[str, ...] = ("KEYWORD_OBFUSCATION", "CHAR_NOISE", "SYNONYM_REPLACEMENT")
    augment_rate: float = 0.5
    # malware corpus
    malware_benign: int = 300
    malware_malicious: int = 300
    malware_features: int = 8
    malware_separation: float = 3.0
    malware_hard_fraction: float = 0.0
    # train/validation/test fractions of both the log and the malware split
    fractions: tuple[float, float, float] = (0.6, 0.2, 0.2)
    # text features
    min_df: int = 2
    max_features: int = 20_000
    # detectors
    logistic_l2: float = 1e-3
    logistic_epochs: int = 300
    forest_trees: int = 30
    forest_depth: int = 10
    forest_min_leaf: int = 2
    # calibration: "auto" | "platt" | "isotonic"
    calibration: str = "auto"
    # fusion
    grid_step: float = 0.01
    fixed_thresholds: tuple[float, float] | None = None
    # evaluation manifests (NORMAL, SUSPICIOUS, HIGH supports)
    val_supports: tuple[int, int, int] = (20, 40, 40)
    test_supports: tuple[int, int, int] = (14, 76, 62)
    artifact_version_tag: str = "1"


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    artifact: ModelArtifact
    validation_macro_f1: float
    reports: dict[str, EvalReport]
    test_items: list[ManifestItem]
    log_split: object
    malware_split: object

    @property
    def scorer(self) -> ModelArtifact:
        return self.artifact

    @property
    def fusion_config(self) -> FusionConfig:
        return self.artifact.fusion


def corpus_fingerprint(records: list[LogRecord]) -> str:
    return fingerprint(f"{r.timestamp}|{r.host}|{r.channel.value}|{r.message}|"
                       f"{r.label.value if r.label else ''}" for r in records)


def malware_fingerprint(samples: list[MalwareSample]) -> str:
    return fingerprint(f"{s.sample_id}|{s.features!r}|{s.label.value if s.label else ''}"
                       for s in samples)


# -- stages: each prepares data or fits one component; the CLI runs one per subcommand --

def generate_logs(config: ExperimentConfig) -> list[LogRecord]:
    """The scenario's log records, before dedup, on the ``"generate-logs"`` seed stream."""
    return generate_corpus(ScenarioConfig(
        benign_hosts=config.benign_hosts, attack_sessions=config.attack_sessions,
        duration_s=config.duration_s, seed=derive_seed(config.seed, "generate-logs"),
        benign_rate_per_host=config.benign_rate_per_host))


def generate_malware_rows(config: ExperimentConfig) -> list[MalwareSample]:
    """The scenario's malware rows, on the ``"generate-malware"`` seed stream."""
    return generate_malware(MalwareScenario(
        benign_samples=config.malware_benign, malicious_samples=config.malware_malicious,
        seed=derive_seed(config.seed, "generate-malware"),
        n_features=config.malware_features, separation=config.malware_separation,
        hard_fraction=config.malware_hard_fraction))


def split_malware(samples: list[MalwareSample], fractions: tuple[float, float, float],
                  seed: int) -> DatasetSplit:
    """The stratified train/validation/test split of malware rows, on its own seed stream."""
    return split(samples, SplitSpec(kind=SplitKind.STRATIFIED_RANDOM, fractions=fractions,
                                    seed=derive_seed(seed, "split-malware")))


def train_log_detector(train_records: list[LogRecord], *, min_df: int, max_features: int,
                       l2: float, epochs: int, seed: int, class_weight: str | None = None):
    """Fit vocabulary + logistic model on (possibly augmented) training logs.

    Warns (``UserWarning``) when gradient descent used all ``epochs`` without
    reaching its gradient tolerance; ``training_meta`` holds the diagnostics.
    An unlabeled record raises ``TrainingError`` before anything is fitted.
    """
    y = binary_labels((r.label for r in train_records), TrainingError, "training log records")
    vocab = fit_vocabulary(train_records, min_df=min_df, max_features=max_features)
    X = transform_text([r.message for r in train_records], vocab)
    model = train_logistic(X, y, l2=l2, epochs=epochs, seed=seed, class_weight=class_weight)
    meta = model.training_meta
    if not meta["converged"] and meta["iterations"] == epochs:
        warnings.warn(f"logistic model did not converge in {epochs} epochs "
                      f"(loss {meta['initial_loss']:.6g} -> {meta['final_loss']:.6g})",
                      stacklevel=2)
    return vocab, model


def train_malware_detector(train_samples: list[MalwareSample], *, n_trees: int,
                           max_depth: int, min_samples_leaf: int, seed: int):
    """Fit standardizer + random forest on training malware rows; an unlabeled
    row raises ``TrainingError`` before anything is fitted."""
    y = binary_labels((s.label for s in train_samples), TrainingError, "training malware rows")
    standardizer = fit_standardizer(train_samples)
    X = transform_dense(feature_matrix(train_samples, standardizer), standardizer)
    forest = train_forest(X, y, n_trees=n_trees, max_depth=max_depth,
                          min_samples_leaf=min_samples_leaf, seed=seed)
    return standardizer, forest


def calibrate_detectors(artifact: ModelArtifact, val_logs: list[LogRecord],
                        val_samples: list[MalwareSample], method: str) -> ModelArtifact:
    """``artifact`` with both calibrators fitted; ``method`` "auto" selects per detector.

    An artifact without both detectors raises ``ArtifactError`` naming what is missing,
    and an unlabeled record ``CalibrationError``, before any fit: ``fit_calibrator``
    itself turns a ``CalibrationError`` into an IDENTITY fallback.
    The fusion thresholds are cleared: they were tuned on the old calibrators' scores.
    """
    artifact.to_scorer(("vocabulary", "logistic", "standardizer", "forest"))
    y_logs = binary_labels((r.label for r in val_logs), CalibrationError,
                           "validation log records")
    y_mw = binary_labels((s.label for s in val_samples), CalibrationError,
                         "validation malware rows")
    chosen = None if method == "auto" else calibrate.CalibrationMethod(method.upper())
    raw_log = artifact.raw_log_score([r.message for r in val_logs])
    calibrator_logs = calibrate.fit_calibrator(raw_log, y_logs, chosen)
    raw_mw = artifact.raw_malware_score(feature_matrix(val_samples, artifact.standardizer))
    calibrator_malware = calibrate.fit_calibrator(raw_mw, y_mw, chosen)
    return replace(artifact, calibrator_logs=calibrator_logs,
                   calibrator_malware=calibrator_malware, fusion=None)


def validation_pairs(artifact: ModelArtifact, items: list[ManifestItem]
                     ) -> tuple[list[CalibratedScorePair], list[TriageLabel]]:
    """Calibrated score pairs and triage truth of ``items`` before thresholds exist."""
    return score_items(artifact.to_scorer(PAIR_COMPONENTS), items), [item.truth for item in items]


def _train_logs(records: list[LogRecord], config: ExperimentConfig):
    return train_log_detector(records, min_df=config.min_df, max_features=config.max_features,
                              l2=config.logistic_l2, epochs=config.logistic_epochs,
                              seed=derive_seed(config.seed, "train-logistic"))


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run generate -> dedup -> split -> train -> calibrate -> tune -> evaluate."""
    # Telemetry.
    logs = dedup_near_identical(generate_logs(config))
    log_split = split(logs, SplitSpec(kind=SplitKind.TIME_ORDERED, fractions=config.fractions))
    train_logs = log_split.train
    if config.augment_rate > 0:
        train_logs = augment(train_logs, [AugmentOp(op) for op in config.augment_ops],
                             rate=config.augment_rate,
                             seed=derive_seed(config.seed, "augment-train"))

    malware = generate_malware_rows(config)
    malware_split = split_malware(malware, config.fractions, config.seed)
    fingerprints = {
        "logs_data": corpus_fingerprint(logs),
        "malware_data": malware_fingerprint(malware),
        "seed": str(config.seed),
    }

    # Detectors, then their calibrators on the validation splits.
    vocabulary, logistic = _train_logs(train_logs, config)
    standardizer, forest = train_malware_detector(
        malware_split.train, n_trees=config.forest_trees, max_depth=config.forest_depth,
        min_samples_leaf=config.forest_min_leaf, seed=derive_seed(config.seed, "train-forest"))
    artifact = calibrate_detectors(
        ModelArtifact(created_at=EPOCH_MS, vocabulary=vocabulary, logistic=logistic,
                      standardizer=standardizer, forest=forest, fingerprints=fingerprints),
        log_split.validation, malware_split.validation, config.calibration)

    # Threshold selection on a validation manifest.
    val_items = build_manifest(log_split.validation, malware_split.validation,
                               supports=config.val_supports)
    val_pairs, val_truth = validation_pairs(artifact, val_items)
    if config.fixed_thresholds is None:
        fusion = tune_thresholds(val_pairs, val_truth, grid_step=config.grid_step,
                                 tuned_on="validation", version=config.artifact_version_tag)
    else:
        t_m, t_l = config.fixed_thresholds
        fusion = FusionConfig(t_m=t_m, t_l=t_l, grid_step=config.grid_step,
                              tuned_on="fixed", version=config.artifact_version_tag)
    validation_macro_f1 = tuning_macro_f1(val_pairs, val_truth, fusion)
    artifact = replace(artifact, fusion=fusion)

    # Final evaluation manifest and the three baseline settings.
    test_items = build_manifest(log_split.test, malware_split.test,
                                supports=config.test_supports)
    reports = run_baselines(artifact, test_items, split="test", fingerprints=fingerprints)
    return ExperimentResult(config=config, artifact=artifact,
                            validation_macro_f1=validation_macro_f1,
                            reports=reports, test_items=test_items,
                            log_split=log_split, malware_split=malware_split)


@dataclass
class CrossValidationResult:
    fold_macro_f1: list[float] = field(default_factory=list)
    mean_macro_f1: float = 0.0
    reports: list[EvalReport] = field(default_factory=list)


def cross_validate_log_model(records: list[LogRecord], folds: int, seed: int,
                             config: ExperimentConfig | None = None) -> CrossValidationResult:
    """Stratified k-fold CV of the TF-IDF + logistic detector at p >= 0.5."""
    config = config or ExperimentConfig(seed=seed)
    fold_parts = k_fold(records, folds, seed)
    result = CrossValidationResult()
    for k, heldout in enumerate(fold_parts):
        # the other folds in fold order: row order feeds the logistic fit's sums
        train_records = [r for j, fold in enumerate(fold_parts) if j != k for r in fold]
        vocab, model = _train_logs(train_records, config)
        p = ModelArtifact(vocabulary=vocab, logistic=model).raw_log_score(
            [r.message for r in heldout])
        predictions = [Label.MALICIOUS if v >= 0.5 else Label.BENIGN for v in p]
        report = classification_report(predictions, [r.label for r in heldout],
                                       (Label.BENIGN, Label.MALICIOUS),
                                       setting="logs_cv", split=f"fold{k}")
        result.reports.append(report)
        result.fold_macro_f1.append(report.macro_f1)
    result.mean_macro_f1 = sum(result.fold_macro_f1) / folds
    return result


def augmented_cv_corpus(config: ExperimentConfig) -> list[LogRecord]:
    """Generate + dedup + augment (all ops) a corpus for cross-validation."""
    return augment(dedup_near_identical(generate_logs(config)),
                   [AugmentOp(op) for op in config.augment_ops],
                   rate=config.augment_rate, seed=derive_seed(config.seed, "augment-cv"))


# Routine admin activity that shares vocabulary with attack telemetry:
# legitimately benign per the log labels, but suspicious-looking to the
# log detector. Paired with cluster-camouflaged malicious rows these
# produce complementary single-modality errors that the fused rule covers.
SUSPICIOUS_BENIGN_TEMPLATES = (
    "audit: execve /usr/bin/nc -z 10.0.2.14 5432 pid={pid} ppid={ppid} uid=1001",
    "audit: execve /usr/bin/whoami pid={pid} ppid={ppid} uid=1001",
    "audit: execve /bin/cat /etc/passwd pid={pid} ppid={ppid} uid=0",
    "audit: execve /bin/uname -a pid={pid} ppid={ppid} uid=1001",
    "audit: execve /bin/bash /opt/scripts/healthcheck.sh pid={pid} ppid=1 uid=0",
    "audit: execve /usr/bin/id -u pid={pid} ppid={ppid} uid=1001",
)


def complementary_error_manifest(result: ExperimentResult, n_patched: int = 12,
                                 seed: int = 321) -> list[ManifestItem]:
    """Inject complementary single-modality blind spots into the test manifest.

    ``n_patched`` malware-driven SUSPICIOUS items are rewritten so that the
    malicious static-feature row is drawn from inside the benign cluster
    (the malware detector misses it) while the paired benign log line is
    routine admin activity that shares attack vocabulary (the log detector
    flags it). Each single-modality baseline errs on these items; the fused
    triage label stays SUSPICIOUS either way.
    """
    config = result.config
    stealth = generate_malware(MalwareScenario(
        benign_samples=1, malicious_samples=max(1, n_patched), separation=0.0,
        seed=derive_seed(seed, "stealth-malware"), n_features=config.malware_features))
    stealth_rows = [s for s in stealth if s.label is Label.MALICIOUS]
    patched: list[ManifestItem] = []
    k = 0
    for item in result.test_items:
        mw_driven = (item.log.label is Label.BENIGN
                     and item.malware.label is Label.MALICIOUS)
        if mw_driven and k < n_patched:
            message = SUSPICIOUS_BENIGN_TEMPLATES[k % len(SUSPICIOUS_BENIGN_TEMPLATES)].format(
                pid=48200 + k, ppid=48100)
            log = replace(item.log, message=message)
            patched.append(ManifestItem(entity_id=item.entity_id, log=log,
                                        malware=stealth_rows[k % len(stealth_rows)]))
            k += 1
        else:
            patched.append(item)
    return patched


def seeded_runner(config: ExperimentConfig):
    """A run function for ``multi_seed``: seed -> fused EvalReport."""
    def _run(seed: int) -> EvalReport:
        return run_experiment(replace(config, seed=seed)).reports["fused"]
    return _run
