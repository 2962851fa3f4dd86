"""Command-line entry points.

Every subcommand reads an optional flat JSON config file (``--config``)
whose keys mirror the long flag names; explicit flags override the file,
which overrides built-in defaults. Artifacts are built up stage by stage,
each subcommand running one stage function of ``pipeline`` (the same ones
``run_experiment`` runs) and saving the new artifact it returns:
``train-log`` and ``train-malware`` write PARTIAL artifacts, ``calibrate``
adds the calibrators, and ``tune`` adds the fusion thresholds, after which
the artifact is SERVING-complete. A stage drops what was fitted on the
components it replaces, so re-running one leaves the artifact PARTIAL until
the later stages run again.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .corpus import (
    EPOCH_MS,
    AugmentOp,
    Label,
    MalwareScenario,
    ScenarioConfig,
    SplitKind,
    SplitSpec,
    augment,
    generate_corpus,
    generate_malware,
    load_log_ndjson,
    load_malware_csv,
    split,
    write_log_ndjson,
    write_malware_csv,
)
from .errors import AisocError, ConfigError
from .evaluate import build_manifest, read_manifest, robustness_probe, run_baselines, write_manifest
from .pipeline import (
    calibrate_detectors,
    corpus_fingerprint,
    malware_fingerprint,
    train_log_detector,
    train_malware_detector,
    tune_fusion,
    validation_pairs,
)
from .seeding import derive_seed
from .service import (
    ModelArtifact,
    load_artifact,
    save_artifact,
    score_batch,
    serve,
)

_OPS_ALL = "KEYWORD_OBFUSCATION,CHAR_NOISE,SYNONYM_REPLACEMENT"
_SEED = ("--seed", 7, {"type": int, "help": "random seed"})
# Options whose config-file value may also be a JSON list (of numbers or op names).
_LIST_OPTIONS = {"ops", "fractions", "val_supports", "test_supports"}

# Each subcommand's help text and options. One option is (flag, default,
# argparse keywords); its config-file key is the flag without the leading
# dashes, and ``--in`` is stored as ``in_path``.
_COMMANDS: dict[str, tuple[str, list[tuple]]] = {
    "generate": ("generate synthetic logs and malware features", [
        ("--out-logs", None, {"help": "output NDJSON path for log records"}),
        ("--out-malware", None, {"help": "output CSV path for malware samples"}),
        ("--benign-hosts", 3, {"type": int}),
        ("--attack-sessions", 12, {"type": int}),
        ("--duration-s", 1800.0, {"type": float}),
        ("--benign-rate", 0.25, {"type": float}),
        ("--malware-benign", 300, {"type": int}),
        ("--malware-malicious", 300, {"type": int}),
        ("--malware-features", 8, {"type": int}),
        ("--malware-separation", 3.0, {"type": float}),
        ("--malware-hard-fraction", 0.0, {"type": float}),
    ]),
    "augment": ("emit adversarial variants of a log file", [
        ("--in", None, {"help": "input NDJSON log file"}),
        ("--out", None, {"help": "output NDJSON path"}),
        ("--ops", _OPS_ALL, {"help": "comma-separated operator names"}),
        ("--rate", 0.5, {"type": float}),
        ("--replace", False, {"action": argparse.BooleanOptionalAction,
                              "help": "replace mutated records instead of appending variants"}),
    ]),
    "split": ("split logs/malware and build evaluation manifests", [
        ("--logs", None, {"help": "input NDJSON log file"}),
        ("--malware", None, {"help": "input malware CSV"}),
        ("--out-dir", None, {"help": "directory for split files"}),
        ("--kind", "TIME_ORDERED", {"choices": [k.value for k in SplitKind]}),
        ("--fractions", "0.6,0.2,0.2", {"help": "train,validation,test e.g. 0.6,0.2,0.2"}),
        ("--folds", 5, {"type": int}),
        ("--val-supports", None, {"help": "NORMAL,SUSPICIOUS,HIGH manifest supports"}),
        ("--test-supports", None, {"help": "NORMAL,SUSPICIOUS,HIGH manifest supports"}),
        ("--label-column", "label", {}),
        ("--id-column", "sample_id", {"help": "id column name; empty string if absent"}),
    ]),
    "train-log": ("fit vocabulary + logistic model on training logs", [
        ("--train", None, {"help": "training NDJSON log file"}),
        ("--artifact", None, {"help": "artifact path to create or update"}),
        ("--min-df", 2, {"type": int}),
        ("--max-features", 20000, {"type": int}),
        ("--l2", 1e-3, {"type": float}),
        ("--epochs", 300, {"type": int}),
        ("--class-weight", "none", {"choices": ["none", "balanced"]}),
    ]),
    "train-malware": ("fit standardizer + random forest on training rows", [
        ("--train", None, {"help": "training malware CSV"}),
        ("--artifact", None, {"help": "artifact path to create or update"}),
        ("--label-column", "label", {}),
        ("--id-column", "sample_id", {}),
        ("--trees", 100, {"type": int}),
        ("--max-depth", 12, {"type": int}),
        ("--min-leaf", 2, {"type": int}),
    ]),
    "calibrate": ("fit per-model calibrators on the validation split", [
        ("--artifact", None, {}),
        ("--val-logs", None, {"help": "validation NDJSON log file"}),
        ("--val-malware", None, {"help": "validation malware CSV"}),
        ("--method", "auto", {"choices": ["auto", "platt", "isotonic", "identity"]}),
        ("--label-column", "label", {}),
        ("--id-column", "sample_id", {}),
    ]),
    "tune": ("grid-search fusion thresholds on a validation manifest", [
        ("--artifact", None, {}),
        ("--manifest", None, {"help": "validation manifest NDJSON"}),
        ("--grid-step", 0.01, {"type": float}),
        ("--version", "1", {"help": "version tag recorded in the fusion config"}),
        ("--export-thresholds", None, {"help": "also write thresholds to this JSON file"}),
    ]),
    "evaluate": ("run a baseline setting on a test manifest", [
        ("--artifact", None, {}),
        ("--manifest", None, {}),
        ("--setting", "all", {"choices": ["logs", "malware", "fused", "all"]}),
        ("--json-out", None, {"help": "write the report JSON here (default: stdout)"}),
    ]),
    "probe": ("robustness probe: score a manifest before/after mutation", [
        ("--artifact", None, {}),
        ("--manifest", None, {}),
        ("--ops", "KEYWORD_OBFUSCATION,CHAR_NOISE", {}),
        ("--rate", 0.5, {"type": float}),
        ("--json-out", None, {}),
    ]),
    "save": ("verify and re-write an artifact canonically", [
        ("--artifact", None, {}),
        ("--out", None, {}),
        ("--created-at", None, {"type": int, "help": "epoch ms stamp (defaults to original)"}),
    ]),
    "serve": ("serve scoring over HTTP", [
        ("--artifact", None, {}),
        ("--bind", "127.0.0.1:8080", {"help": "host:port"}),
    ]),
    "score-batch": ("score an NDJSON request file offline", [
        ("--artifact", None, {}),
        ("--in", None, {"help": "input request NDJSON"}),
        ("--out", None, {"help": "output result NDJSON (default: stdout)"}),
    ]),
}


def _dest(flag: str) -> str:
    return "in_path" if flag == "--in" else flag[2:].replace("-", "_")


def _options(command: str) -> list[tuple]:
    return [_SEED, *_COMMANDS[command][1]]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aisoc",
        description="Desk-scale AI-SOC toolkit: calibrated detectors fused into triage levels.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="flat JSON config file; flags override it")
        for flag, _default, kwargs in _options(command):
            p.add_argument(flag, dest=_dest(flag), **kwargs)
    return parser


def _config_value(dest: str, value, kwargs: dict):
    """A config-file ``value`` read as its flag's text: through the option's type and choices."""
    action = "action" in kwargs  # --flag/--no-flag
    if isinstance(value, bool) and action or isinstance(value, list) and dest in _LIST_OPTIONS:
        return value
    if isinstance(value, bool) or action or not isinstance(value, (str, int, float)):
        raise ValueError(f"invalid value {value!r}")
    value = kwargs.get("type", str)(str(value))
    if value not in kwargs.get("choices", [value]):
        raise ValueError(f"invalid value {value!r}, choose from {kwargs['choices']}")
    return value


def _merge_options(args: argparse.Namespace) -> dict:
    defaults = {_dest(flag): default for flag, default, _ in _options(args.command)}
    kwargs_of = {_dest(flag): kwargs for flag, _, kwargs in _options(args.command)}
    if args.config:
        try:
            file_cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
        # ValueError covers bad UTF-8, bad JSON and over-long integers
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"{args.config}: config must be a flat JSON object")
        for key, value in file_cfg.items():
            norm = _dest("--" + key)
            if norm not in defaults:
                raise ConfigError(f"{args.config}: unknown option {key!r} for {args.command}")
            try:
                defaults[norm] = _config_value(norm, value, kwargs_of[norm])
            except ValueError as exc:
                raise ConfigError(f"{args.config}: option {key!r}: {exc}") from exc
    defaults.update((key, value) for key, value in vars(args).items()
                    if key in defaults and value is not None)
    return defaults


def _require(opts: dict, *names: str) -> None:
    missing = [n for n in names if opts.get(n) in (None, "")]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-").replace("in-path", "in") for n in missing)
        raise ConfigError(f"missing required option(s): {flags}")


def _triplet(value, kind=float) -> tuple:
    try:
        parts = tuple(kind(v) for v in (value.split(",") if isinstance(value, str) else value))
        if len(parts) == 3:
            return parts
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"expected three comma-separated values, got {value!r}")


def _ops(value) -> list[AugmentOp]:
    names = value.split(",") if isinstance(value, str) else value
    try:
        return [AugmentOp(name.strip().upper()) for name in names if name.strip()]
    except (AttributeError, ValueError) as exc:
        raise ConfigError(f"unknown augmentation op in {value!r}") from exc


def _emit_json(obj: dict, path: str | None, what: str) -> None:
    """Write ``obj`` as indented JSON to ``path``, or print it when no path is given."""
    text = json.dumps(obj, sort_keys=True, indent=2)
    if path:
        Path(path).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {what} JSON to {path}")
    else:
        print(text)


def _loaded(result, what: str):
    """``result`` of a loader, after telling stderr how many malformed ``what`` it skipped."""
    if result.rejected:
        print(f"skipped {result.rejected} malformed {what}", file=sys.stderr)
    return result


def _load_malware(opts: dict, path: str):
    return load_malware_csv(path, label_column=opts["label_column"],
                            id_column=opts["id_column"] or None)


def _load_or_new_artifact(path: str) -> ModelArtifact:
    if Path(path).exists():
        return load_artifact(path)
    return ModelArtifact(created_at=EPOCH_MS)


def _cmd_generate(opts: dict) -> int:
    _require(opts, "out_logs", "out_malware")
    seed = opts["seed"]
    logs = generate_corpus(ScenarioConfig(
        benign_hosts=opts["benign_hosts"], attack_sessions=opts["attack_sessions"],
        duration_s=opts["duration_s"], seed=derive_seed(seed, "generate-logs"),
        benign_rate_per_host=opts["benign_rate"]))
    samples = generate_malware(MalwareScenario(
        benign_samples=opts["malware_benign"], malicious_samples=opts["malware_malicious"],
        seed=derive_seed(seed, "generate-malware"), n_features=opts["malware_features"],
        separation=opts["malware_separation"], hard_fraction=opts["malware_hard_fraction"]))
    write_log_ndjson(logs, opts["out_logs"])
    write_malware_csv(samples, opts["out_malware"])
    print(f"wrote {len(logs)} log records to {opts['out_logs']}")
    print(f"wrote {len(samples)} malware samples to {opts['out_malware']}")
    return 0


def _cmd_augment(opts: dict) -> int:
    _require(opts, "in_path", "out")
    loaded = _loaded(load_log_ndjson(opts["in_path"]), "input line(s)")
    out = augment(loaded.records, _ops(opts["ops"]), rate=opts["rate"],
                  seed=opts["seed"], replace=bool(opts["replace"]))
    write_log_ndjson(out, opts["out"])
    n_variants = sum(1 for r in out if r.origin.value == "AUGMENTED")
    print(f"wrote {len(out)} records ({n_variants} augmented) to {opts['out']}")
    return 0


def _auto_supports(logs_split, malware_split) -> tuple[int, int, int]:
    nb = min(sum(1 for r in logs_split if r.label is Label.BENIGN),
             sum(1 for s in malware_split if s.label is Label.BENIGN))
    nm = min(sum(1 for r in logs_split if r.label is Label.MALICIOUS),
             sum(1 for s in malware_split if s.label is Label.MALICIOUS))
    return (max(1, nb // 2), max(2, (nb + nm) // 2), max(1, nm // 2))


def _cmd_split(opts: dict) -> int:
    _require(opts, "logs", "out_dir")
    out_dir = Path(opts["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    loaded = _loaded(load_log_ndjson(opts["logs"]), "log line(s)")
    kind = SplitKind(opts["kind"])
    spec = SplitSpec(kind=kind, fractions=_triplet(opts["fractions"]),
                     folds=opts["folds"] if kind is SplitKind.K_FOLD else 0,
                     seed=opts["seed"])
    log_split = split(loaded.records, spec)
    if kind is SplitKind.K_FOLD:
        for i, fold in enumerate(log_split.folds):
            write_log_ndjson(fold, out_dir / f"logs_fold{i}.ndjson")
        print(f"wrote {len(log_split.folds)} log folds to {out_dir}")
        return 0
    for name in ("train", "validation", "test"):
        write_log_ndjson(getattr(log_split, name), out_dir / f"logs_{name}.ndjson")
    print(f"wrote log splits {[len(log_split.train), len(log_split.validation), len(log_split.test)]} to {out_dir}")
    if not opts["malware"]:
        return 0
    mal = _loaded(_load_malware(opts, opts["malware"]), "malware row(s)")
    mal_split = split(mal.samples, SplitSpec(
        kind=SplitKind.STRATIFIED_RANDOM, fractions=_triplet(opts["fractions"]),
        seed=derive_seed(opts["seed"], "split-malware")))
    for name in ("train", "validation", "test"):
        write_malware_csv(getattr(mal_split, name), out_dir / f"malware_{name}.csv")
    for name, flag in (("validation", "val_supports"), ("test", "test_supports")):
        logs_part = getattr(log_split, name)
        mal_part = getattr(mal_split, name)
        supports = (_triplet(opts[flag], int) if opts[flag]
                    else _auto_supports(logs_part, mal_part))
        items = build_manifest(logs_part, mal_part, supports=supports,
                               seed=derive_seed(opts["seed"], f"manifest-{name}"))
        write_manifest(items, out_dir / f"manifest_{name}.ndjson")
        print(f"wrote manifest_{name}.ndjson with supports {supports}")
    return 0


def _cmd_train_log(opts: dict) -> int:
    _require(opts, "train", "artifact")
    loaded = _loaded(load_log_ndjson(opts["train"]), "line(s)")
    class_weight = None if opts["class_weight"] in (None, "none") else opts["class_weight"]
    vocab, model = train_log_detector(loaded.records, min_df=opts["min_df"],
                                      max_features=opts["max_features"], l2=opts["l2"],
                                      epochs=opts["epochs"], seed=opts["seed"],
                                      class_weight=class_weight)
    artifact = _load_or_new_artifact(opts["artifact"])
    fingerprints = {**artifact.fingerprints, "logs_data": corpus_fingerprint(loaded.records),
                    "logs_seed": str(opts["seed"])}
    # the log calibrator and the thresholds were fitted on the old model's scores
    artifact = replace(artifact, vocabulary=vocab, logistic=model, calibrator_logs=None,
                       fusion=None, fingerprints=fingerprints)
    checksum = save_artifact(artifact, opts["artifact"])
    print(f"trained log model on {len(loaded.records)} records (vocab {vocab.size}); "
          f"artifact {artifact.status} {checksum[:19]}")
    return 0


def _cmd_train_malware(opts: dict) -> int:
    _require(opts, "train", "artifact")
    loaded = _loaded(_load_malware(opts, opts["train"]), "row(s)")
    standardizer, forest = train_malware_detector(
        loaded.samples, n_trees=opts["trees"], max_depth=opts["max_depth"],
        min_samples_leaf=opts["min_leaf"], seed=opts["seed"])
    artifact = _load_or_new_artifact(opts["artifact"])
    fingerprints = {**artifact.fingerprints, "malware_data": malware_fingerprint(loaded.samples),
                    "malware_seed": str(opts["seed"])}
    # the malware calibrator and the thresholds were fitted on the old model's scores
    artifact = replace(artifact, standardizer=standardizer, forest=forest,
                       calibrator_malware=None, fusion=None, fingerprints=fingerprints)
    checksum = save_artifact(artifact, opts["artifact"])
    print(f"trained malware model on {len(loaded.samples)} samples; "
          f"artifact {artifact.status} {checksum[:19]}")
    return 0


def _cmd_calibrate(opts: dict) -> int:
    _require(opts, "artifact", "val_logs", "val_malware")
    artifact = load_artifact(opts["artifact"])
    logs = _loaded(load_log_ndjson(opts["val_logs"]), "validation log line(s)").records
    samples = _loaded(_load_malware(opts, opts["val_malware"]), "validation malware row(s)").samples
    artifact = calibrate_detectors(artifact, logs, samples, opts["method"])
    checksum = save_artifact(artifact, opts["artifact"])
    print(f"calibrators: logs={artifact.calibrator_logs.method.value} "
          f"malware={artifact.calibrator_malware.method.value}; "
          f"artifact {artifact.status} {checksum[:19]}")
    return 0


def _cmd_tune(opts: dict) -> int:
    _require(opts, "artifact", "manifest")
    artifact = load_artifact(opts["artifact"])
    pairs, truth = validation_pairs(artifact, read_manifest(opts["manifest"]))
    config, macro = tune_fusion(pairs, truth, grid_step=opts["grid_step"],
                                tuned_on=Path(opts["manifest"]).name, version=opts["version"])
    artifact = replace(artifact, fusion=config)
    checksum = save_artifact(artifact, opts["artifact"])
    print(f"selected thresholds t_m={config.t_m:.2f} t_l={config.t_l:.2f} "
          f"(validation macro-F1 {macro:.4f}); artifact {artifact.status} {checksum[:19]}")
    if opts["export_thresholds"]:
        _emit_json(config.to_dict(), opts["export_thresholds"], "thresholds")
    return 0


def _cmd_evaluate(opts: dict) -> int:
    _require(opts, "artifact", "manifest")
    artifact = load_artifact(opts["artifact"])
    items = read_manifest(opts["manifest"])
    reports = run_baselines(artifact.to_scorer(), items, split=Path(opts["manifest"]).name,
                            fingerprints=dict(artifact.fingerprints))
    selected = ["logs", "malware", "fused"] if opts["setting"] == "all" else [opts["setting"]]
    payload = {name: reports[name].to_json_dict() for name in selected}
    for name in selected:
        print(reports[name].render_table())
        print()
    _emit_json(payload if len(selected) > 1 else payload[selected[0]], opts["json_out"], "report")
    return 0


def _cmd_probe(opts: dict) -> int:
    _require(opts, "artifact", "manifest")
    artifact = load_artifact(opts["artifact"])
    items = read_manifest(opts["manifest"])
    report = robustness_probe(artifact.to_scorer(), items, _ops(opts["ops"]),
                              rate=opts["rate"], seed=opts["seed"])
    print(f"log macro-F1   {report.log_macro_f1_before:.4f} -> {report.log_macro_f1_after:.4f} "
          f"(delta {report.log_macro_f1_delta:+.4f})")
    print(f"fused macro-F1 {report.fused_macro_f1_before:.4f} -> {report.fused_macro_f1_after:.4f} "
          f"(delta {report.fused_macro_f1_delta:+.4f})")
    print(f"HIGH items with stable malware evidence degraded to NORMAL: "
          f"{report.high_degraded_to_normal}/{report.high_with_stable_malware}")
    _emit_json(report.to_json_dict(), opts["json_out"], "probe")
    return 0


def _cmd_save(opts: dict) -> int:
    _require(opts, "artifact", "out")
    artifact = load_artifact(opts["artifact"])
    if opts["created_at"] is not None:
        artifact = replace(artifact, created_at=int(opts["created_at"]))
    checksum = save_artifact(artifact, opts["out"])
    print(f"saved {artifact.status} artifact to {opts['out']} ({checksum[:19]})")
    return 0


def _cmd_serve(opts: dict) -> int:
    _require(opts, "artifact", "bind")
    artifact = load_artifact(opts["artifact"])
    host, _, port = str(opts["bind"]).rpartition(":")
    if not host or not (port.isascii() and port.isdigit()) or int(port) > 65535:
        raise ConfigError(f"--bind must be host:port, got {opts['bind']!r}")
    service = serve(artifact, (host, int(port)))
    print(f"serving artifact {service.artifact_version} on {service.url}", flush=True)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        service.shutdown()
    return 0


def _cmd_score_batch(opts: dict) -> int:
    _require(opts, "artifact", "in_path")
    artifact = load_artifact(opts["artifact"])
    results = score_batch(artifact.to_scorer(), opts["in_path"], opts["out"] or sys.stdout)
    if opts["out"]:
        print(f"scored {len(results)} request(s) into {opts['out']}")
    return 0


_HANDLERS = {
    "generate": _cmd_generate,
    "augment": _cmd_augment,
    "split": _cmd_split,
    "train-log": _cmd_train_log,
    "train-malware": _cmd_train_malware,
    "calibrate": _cmd_calibrate,
    "tune": _cmd_tune,
    "evaluate": _cmd_evaluate,
    "probe": _cmd_probe,
    "save": _cmd_save,
    "serve": _cmd_serve,
    "score-batch": _cmd_score_batch,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _merge_options(args)
        return _HANDLERS[args.command](opts)
    except AisocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
