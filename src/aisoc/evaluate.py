"""Paired-manifest evaluation: baselines, robustness probes, seed sweeps.

An evaluation item pairs one log record with one malware sample under an
explicit entity id. The three deployment settings score the same manifest:
logs-only (binary at the log threshold), malware-only (binary at the
malware threshold), and fused (3-class triage against the truth derived
from the component labels).
"""

from __future__ import annotations

import hashlib
import itertools
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .corpus.augment import AugmentOp, augment
from .corpus.generate import MAX_GENERATED_ITEMS
from .corpus.loaders import read_ndjson, write_ndjson
from .corpus.records import Label, LogRecord, MalwareSample, Origin, Channel
from .errors import ConfigError, LoadError, MetricError
from .features import feature_matrix
from .fusion import CalibratedScorePair, TriageLabel, derive_truth_triage, TRIAGE_CLASSES
from .metrics import EvalReport, classification_report, pr_auc, roc_auc
from .seeding import derive_seed
from .service.scorer import Scorer, check_feature_row

BINARY_CLASSES = (Label.BENIGN, Label.MALICIOUS)


@dataclass(frozen=True)
class ManifestItem:
    entity_id: str
    log: LogRecord
    malware: MalwareSample

    @property
    def truth(self) -> TriageLabel:
        return derive_truth_triage(self.malware.label, self.log.label)


def build_manifest(logs: Sequence[LogRecord], samples: Sequence[MalwareSample],
                   supports: tuple[int, int, int], seed: int = 0) -> list[ManifestItem]:
    """Pair logs with malware rows to hit the requested triage supports.

    ``supports`` gives the item counts for (NORMAL, SUSPICIOUS,
    HIGH_CONFIDENCE_ATTACK), at most ``MAX_GENERATED_ITEMS`` in all. Item
    ``i`` takes the next record of the log pool and of the malware pool of
    its (log label, malware label); SUSPICIOUS items alternate between
    malware-driven (BENIGN, MALICIOUS) and log-driven (MALICIOUS, BENIGN).
    Each pool is cycled when supports exceed it. ``seed`` is accepted and
    unused: the pairing is deterministic.
    """
    n_normal, n_susp, n_high = supports
    if min(supports) < 0 or sum(supports) == 0:
        raise ConfigError(f"invalid manifest supports {supports}")
    if sum(supports) > MAX_GENERATED_ITEMS:
        raise ConfigError(f"manifest supports {supports} exceed the limit of "
                          f"{MAX_GENERATED_ITEMS} items")
    benign, malicious = Label.BENIGN, Label.MALICIOUS
    suspicious = ((benign, malicious), (malicious, benign))
    pairs = ([(benign, benign)] * n_normal + [suspicious[i % 2] for i in range(n_susp)]
             + [(malicious, malicious)] * n_high)
    draws = {}
    for kind, records, wanted in (("log", logs, {log for log, _ in pairs}),
                                  ("mw", samples, {mw for _, mw in pairs})):
        for label in (benign, malicious):
            pool = [r for r in records if r.label is label]
            if label in wanted and not pool:
                raise ConfigError(f"no {label.value} {kind} records available for manifest")
            draws[kind, label] = itertools.cycle(pool)
    return [ManifestItem(entity_id=f"e{i:05d}", log=next(draws["log", log]),
                         malware=next(draws["mw", mw]))
            for i, (log, mw) in enumerate(pairs)]


def write_manifest(items: Sequence[ManifestItem], path: str | Path) -> None:
    write_ndjson(({"entity_id": item.entity_id,
                   "log_message": item.log.message,
                   "log_label": item.log.label.value if item.log.label else None,
                   "malware_features": [float(v) for v in item.malware.features],
                   "malware_label": item.malware.label.value if item.malware.label else None}
                  for item in items), path)


def _manifest_item(obj) -> ManifestItem:
    if not isinstance(obj, dict):
        raise ValueError("line is not a JSON object")
    entity_id, message, features = map(obj.get, ("entity_id", "log_message", "malware_features"))
    if not isinstance(entity_id, str) or not isinstance(message, str):
        raise ValueError("entity_id and log_message must be strings")
    (entity_id + message).encode("utf-8")  # a lone surrogate raises UnicodeEncodeError
    check_feature_row(features)
    log = LogRecord(timestamp=0, host="manifest", channel=Channel.SYSTEM, message=message,
                    label=Label(obj["log_label"]) if obj.get("log_label") else None,
                    origin=Origin.LOADED)
    malware = MalwareSample(
        sample_id=entity_id, features=tuple(map(float, features)),
        label=Label(obj["malware_label"]) if obj.get("malware_label") else None)
    return ManifestItem(entity_id=entity_id, log=log, malware=malware)


def read_manifest(path: str | Path) -> list[ManifestItem]:
    """The items of a manifest NDJSON file; the first bad line raises ``LoadError``."""
    items = []
    for lineno, item, reason in read_ndjson(path, _manifest_item):
        if reason is not None:
            raise LoadError(f"{path}: line {lineno}: {reason}")
        items.append(item)
    return items


def score_items(scorer: Scorer, items: Sequence[ManifestItem]) -> list[CalibratedScorePair]:
    """Calibrated score pairs of ``items``, each modality scored as one block."""
    s_m = scorer.score_malware(feature_matrix([item.malware for item in items],
                                              scorer.standardizer))
    s_l = scorer.score_log([item.log.message for item in items])
    return [CalibratedScorePair(s_m=m, s_l=l, entity_id=item.entity_id)
            for item, m, l in zip(items, s_m.tolist(), s_l.tolist())]


def run_baselines(scorer: Scorer, items: Sequence[ManifestItem], split: str = "test",
                  fingerprints: dict | None = None) -> dict[str, EvalReport]:
    """Evaluate logs-only, malware-only, and fused on the same manifest."""
    return _baseline_reports(scorer, items, score_items(scorer, items), split, fingerprints)


def _baseline_reports(scorer: Scorer, items: Sequence[ManifestItem],
                      pairs: Sequence[CalibratedScorePair], split: str,
                      fingerprints: dict | None = None) -> dict[str, EvalReport]:
    if not items:
        raise MetricError("cannot evaluate an empty manifest")
    cfg = scorer.fusion
    fingerprints = dict(fingerprints or {})
    fingerprints.setdefault("manifest", manifest_fingerprint(items))
    fingerprints.setdefault("thresholds", f"t_m={cfg.t_m},t_l={cfg.t_l}")

    def binary_report(scores: list[float], truth: list, threshold: float, setting: str):
        predictions = [Label.MALICIOUS if s >= threshold else Label.BENIGN for s in scores]
        report = classification_report(predictions, truth, BINARY_CLASSES, setting=setting,
                                       split=split, fingerprints=fingerprints)
        positive = [1 if t is Label.MALICIOUS else 0 for t in truth]
        report.roc_auc, report.pr_auc = roc_auc(scores, positive), pr_auc(scores, positive)
        return report

    logs_report = binary_report([p.s_l for p in pairs], [item.log.label for item in items],
                                cfg.t_l, "logs_only")
    mw_report = binary_report([p.s_m for p in pairs], [item.malware.label for item in items],
                              cfg.t_m, "malware_only")
    fused_pred = [scorer.triage(p.s_m, p.s_l) for p in pairs]
    fused_truth = [item.truth for item in items]
    fused_report = classification_report(fused_pred, fused_truth, TRIAGE_CLASSES,
                                         setting="fused", split=split,
                                         fingerprints=fingerprints)
    return {"logs": logs_report, "malware": mw_report, "fused": fused_report}


def _sub_confusion(report: EvalReport) -> list[list[int]]:
    """NORMAL/SUSPICIOUS 2x2 block of a 3-class triage confusion matrix."""
    c = report.confusion
    return [[c[0][0], c[0][1]], [c[1][0], c[1][1]]]


@dataclass
class RobustnessReport:
    ops: list[str]
    rate: float
    log_macro_f1_before: float
    log_macro_f1_after: float
    fused_macro_f1_before: float
    fused_macro_f1_after: float
    normal_suspicious_confusion_before: list[list[int]]
    normal_suspicious_confusion_after: list[list[int]]
    high_with_stable_malware: int
    high_degraded_to_normal: int
    mutated_items: int

    @property
    def log_macro_f1_delta(self) -> float:
        return self.log_macro_f1_after - self.log_macro_f1_before

    @property
    def fused_macro_f1_delta(self) -> float:
        return self.fused_macro_f1_after - self.fused_macro_f1_before

    def to_json_dict(self) -> dict:
        return {
            "ops": self.ops,
            "rate": self.rate,
            "log_macro_f1": {"before": self.log_macro_f1_before,
                             "after": self.log_macro_f1_after,
                             "delta": self.log_macro_f1_delta},
            "fused_macro_f1": {"before": self.fused_macro_f1_before,
                               "after": self.fused_macro_f1_after,
                               "delta": self.fused_macro_f1_delta},
            "normal_suspicious_confusion": {
                "before": self.normal_suspicious_confusion_before,
                "after": self.normal_suspicious_confusion_after},
            "high_with_stable_malware": self.high_with_stable_malware,
            "high_degraded_to_normal": self.high_degraded_to_normal,
            "mutated_items": self.mutated_items,
        }


def robustness_probe(scorer: Scorer, items: Sequence[ManifestItem],
                     ops: Iterable[AugmentOp], rate: float, seed: int) -> RobustnessReport:
    """Score the manifest before/after adversarial log mutation.

    Only log messages are mutated (replace mode); malware features are
    untouched, so every item's s_m is identical before and after.
    """
    ops = [AugmentOp(op) for op in ops]
    pairs_before = score_items(scorer, items)
    before = _baseline_reports(scorer, items, pairs_before, split="probe")
    mutated_logs = augment([item.log for item in items], ops, rate,
                           seed=derive_seed(seed, "robustness-probe"), replace=True)
    variants = [ManifestItem(entity_id=item.entity_id, log=log, malware=item.malware)
                for item, log in zip(items, mutated_logs)]
    pairs_after = score_items(scorer, variants)
    after = _baseline_reports(scorer, variants, pairs_after, split="probe-adversarial")
    high_stable = 0
    degraded_to_normal = 0
    for p_before, p_after in zip(pairs_before, pairs_after):
        if scorer.triage(p_before.s_m, p_before.s_l) is not TriageLabel.HIGH_CONFIDENCE_ATTACK:
            continue
        if p_after.s_m >= scorer.fusion.t_m:  # malware evidence unchanged
            high_stable += 1
            if scorer.triage(p_after.s_m, p_after.s_l) is TriageLabel.NORMAL:
                degraded_to_normal += 1

    return RobustnessReport(
        ops=[op.value for op in ops], rate=rate,
        log_macro_f1_before=before["logs"].macro_f1,
        log_macro_f1_after=after["logs"].macro_f1,
        fused_macro_f1_before=before["fused"].macro_f1,
        fused_macro_f1_after=after["fused"].macro_f1,
        normal_suspicious_confusion_before=_sub_confusion(before["fused"]),
        normal_suspicious_confusion_after=_sub_confusion(after["fused"]),
        high_with_stable_malware=high_stable,
        high_degraded_to_normal=degraded_to_normal,
        mutated_items=sum(1 for log in mutated_logs if log.origin is Origin.AUGMENTED))


@dataclass
class MultiSeedReport:
    seeds: list[int]
    macro_f1_per_seed: list[float]
    macro_f1_mean: float
    macro_f1_std: float
    macro_precision_mean: float
    macro_recall_mean: float
    median_seed: int
    median_report: EvalReport

    def to_json_dict(self) -> dict:
        return {
            "seeds": self.seeds,
            "macro_f1_per_seed": self.macro_f1_per_seed,
            "macro_f1_mean": self.macro_f1_mean,
            "macro_f1_std": self.macro_f1_std,
            "macro_precision_mean": self.macro_precision_mean,
            "macro_recall_mean": self.macro_recall_mean,
            "median_seed": self.median_seed,
            "median_report": self.median_report.to_json_dict(),
        }


def multi_seed(run_fn: Callable[[int], EvalReport], seeds: Sequence[int]) -> MultiSeedReport:
    """Run the pipeline per seed; aggregate and attach the median-F1 run.

    With an even number of seeds the lower median is used, so the attached
    report always comes from an actually executed run.
    """
    if not seeds:
        raise ConfigError("multi_seed requires at least one seed")
    reports = [run_fn(seed) for seed in seeds]
    f1s = [r.macro_f1 for r in reports]
    order = sorted(range(len(seeds)), key=lambda i: (f1s[i], i))
    median_idx = order[(len(seeds) - 1) // 2]
    mean = statistics.fmean(f1s)
    std = statistics.pstdev(f1s)
    report = reports[median_idx]
    report.seeds = list(seeds)
    report.median_seed = seeds[median_idx]
    return MultiSeedReport(
        seeds=list(seeds), macro_f1_per_seed=f1s, macro_f1_mean=mean, macro_f1_std=std,
        macro_precision_mean=statistics.fmean(r.macro_precision for r in reports),
        macro_recall_mean=statistics.fmean(r.macro_recall for r in reports),
        median_seed=seeds[median_idx], median_report=report)


def fingerprint(parts: Iterable[str]) -> str:
    """``sha256:<hex>`` over the UTF-8 bytes of ``parts``, one record's string each."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
    return f"sha256:{digest.hexdigest()}"


def manifest_fingerprint(items: Sequence[ManifestItem]) -> str:
    return fingerprint(f"{item.entity_id}{item.log.message}{item.malware.features!r}"
                       f"{item.log.label!s}{item.malware.label!s}" for item in items)
