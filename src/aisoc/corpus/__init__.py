"""Telemetry generation, loading, augmentation, de-duplication, and splits."""

from .augment import AugmentOp, augment, mutate_message, obfuscation_table, synonym_table
from .dedup import dedup_near_identical, jaccard, message_tokens
from .generate import EPOCH_MS, MalwareScenario, ScenarioConfig, generate_corpus, generate_malware
from .loaders import (
    LogLoadResult,
    MalwareLoadResult,
    load_log_ndjson,
    load_malware_csv,
    write_log_ndjson,
    write_malware_csv,
)
from .records import Channel, Label, LogRecord, MalwareSample, Origin, parse_label
from .splits import DatasetSplit, SplitKind, SplitSpec, k_fold, split

__all__ = [
    "AugmentOp",
    "Channel",
    "DatasetSplit",
    "EPOCH_MS",
    "Label",
    "LogLoadResult",
    "LogRecord",
    "MalwareLoadResult",
    "MalwareSample",
    "MalwareScenario",
    "Origin",
    "ScenarioConfig",
    "SplitKind",
    "SplitSpec",
    "augment",
    "dedup_near_identical",
    "generate_corpus",
    "generate_malware",
    "jaccard",
    "k_fold",
    "load_log_ndjson",
    "load_malware_csv",
    "message_tokens",
    "mutate_message",
    "obfuscation_table",
    "parse_label",
    "split",
    "synonym_table",
    "write_log_ndjson",
    "write_malware_csv",
]
