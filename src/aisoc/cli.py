"""Command-line entry points.

Every subcommand reads an optional flat JSON config file (``--config``)
whose keys mirror the long flag names; explicit flags override the file,
which overrides the defaults (a mirrored ``ExperimentConfig`` field's own).
``generate`` and ``split`` run the data stages ``run_experiment`` runs
(``generate_logs``, ``generate_malware_rows``, ``split_malware``,
``build_manifest``). Artifacts are built up stage by stage,
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
from dataclasses import fields, replace
from pathlib import Path

from .corpus import (
    EPOCH_MS,
    AugmentOp,
    Label,
    SplitKind,
    SplitSpec,
    augment,
    k_fold,
    load_log_ndjson,
    load_malware_csv,
    split,
    write_log_ndjson,
    write_malware_csv,
)
from .corpus.generate import MAX_GENERATED_ITEMS
from .errors import AisocError, ConfigError
from .evaluate import build_manifest, read_manifest, robustness_probe, run_baselines, write_manifest
from .pipeline import (
    ExperimentConfig,
    calibrate_detectors,
    corpus_fingerprint,
    generate_logs,
    generate_malware_rows,
    malware_fingerprint,
    split_malware,
    train_log_detector,
    train_malware_detector,
    tune_fusion,
    validation_pairs,
)
from .service import (
    ModelArtifact,
    load_artifact,
    save_artifact,
    score_batch,
    serve,
)

_FIELD_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}
_K_FOLD = "K_FOLD"  # the --kind value that writes k_fold's log folds
# Options whose config-file value may also be a JSON list (of numbers or op names).
_LIST_OPTIONS = {"ops", "fractions", "val_supports", "test_supports"}


def _dest(flag: str) -> str:
    return "in_path" if flag == "--in" else flag[2:].replace("-", "_")


def _knob(flag: str, field: str = "", **kwargs) -> tuple:
    """An option that mirrors the ExperimentConfig ``field`` (named like the flag if not
    given), with its default and type; a tuple default becomes its comma-joined text."""
    field = field or _dest(flag)
    default = _FIELD_DEFAULTS[field]
    if isinstance(default, tuple):
        default = ",".join(map(str, default))
    elif not isinstance(default, str):
        kwargs["type"] = type(default)
    return flag, default, kwargs, field


def _options(command: str) -> list[tuple]:
    return [_knob("--seed", help="random seed"), *_COMMANDS[command][2]]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aisoc",
        description="Desk-scale AI-SOC toolkit: calibrated detectors fused into triage levels.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="flat JSON config file; flags override it")
        for flag, _default, kwargs, *_ in _options(command):
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
    defaults = {_dest(flag): default for flag, default, *_ in _options(args.command)}
    kwargs_of = {_dest(flag): kwargs for flag, _, kwargs, *_ in _options(args.command)}
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


def _json_text(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _emit_json(obj: dict, path: str | None, what: str) -> None:
    """Write ``obj`` as indented JSON to ``path``, or print it when no path is given."""
    if path:
        Path(path).write_text(_json_text(obj), encoding="utf-8")
        print(f"wrote {what} JSON to {path}")
    else:
        print(_json_text(obj), end="")


def _loaded(result, what: str):
    """``result`` of a loader, after telling stderr how many malformed ``what`` it skipped."""
    if result.rejected:
        print(f"skipped {result.rejected} malformed {what}", file=sys.stderr)
    return result


def _load_malware(opts: dict, path: str):
    return load_malware_csv(path, label_column=opts["label_column"],
                            id_column=opts["id_column"] or None)


def _save_detector(opts: dict, kind: str, data: str, **fitted) -> tuple[ModelArtifact, str]:
    """``--artifact`` (new if absent) with ``fitted`` and the ``kind`` data and seed
    fingerprints, saved back; returns it and its checksum."""
    path = opts["artifact"]
    old = load_artifact(path) if Path(path).exists() else ModelArtifact(created_at=EPOCH_MS)
    artifact = replace(old, **fitted, fingerprints={
        **old.fingerprints, f"{kind}_data": data, f"{kind}_seed": str(opts["seed"])})
    return artifact, save_artifact(artifact, path)


def _cmd_generate(opts: dict) -> int:
    _require(opts, "out_logs", "out_malware")
    knobs = [option for option in _options("generate") if len(option) == 4]
    config = ExperimentConfig(**{field: opts[_dest(flag)] for flag, _, _, field in knobs})
    logs, samples = generate_logs(config), generate_malware_rows(config)
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
    supports = (max(1, nb // 2), max(2, (nb + nm) // 2), max(1, nm // 2))
    total = sum(supports)
    if total <= MAX_GENERATED_ITEMS:
        return supports
    # scaled down together to the most build_manifest accepts
    return tuple(s * MAX_GENERATED_ITEMS // total for s in supports)


def _cmd_split(opts: dict) -> int:
    """Checks every input and builds every file before it creates ``--out-dir``."""
    _require(opts, "logs", "out_dir")
    k_folds = opts["kind"] == _K_FOLD
    given = ", ".join(f"--{name.replace('_', '-')}" for name in
                      ("malware", "val_supports", "test_supports") if opts[name])
    if given and k_folds:
        raise ConfigError(f"--kind K_FOLD writes only log folds; it does not use {given}")
    if given and not opts["malware"]:
        raise ConfigError(f"{given}: manifests need --malware")
    if opts["folds"] is not None and not k_folds:
        raise ConfigError(f"--folds is used only with --kind K_FOLD, not {opts['kind']}")
    out_dir, fractions = Path(opts["out_dir"]), _triplet(opts["fractions"])
    loaded = _loaded(load_log_ndjson(opts["logs"]), "log line(s)")
    if k_folds:
        folds = k_fold(loaded.records, 5 if opts["folds"] is None else opts["folds"],
                       opts["seed"])
        logs = {f"fold{i}": fold for i, fold in enumerate(folds)}
        lines = [f"wrote {len(logs)} log folds to {out_dir}"]
    else:
        log_split = split(loaded.records, SplitSpec(kind=SplitKind(opts["kind"]),
                                                    fractions=fractions, seed=opts["seed"]))
        logs = {name: getattr(log_split, name) for name in ("train", "validation", "test")}
        lines = [f"wrote log splits {[len(part) for part in logs.values()]} to {out_dir}"]
    files = [(write_log_ndjson, part, f"logs_{name}.ndjson") for name, part in logs.items()]
    if opts["malware"]:
        mal = _loaded(_load_malware(opts, opts["malware"]), "malware row(s)")
        mal_split = split_malware(mal.samples, fractions, opts["seed"])
        malware = {name: getattr(mal_split, name) for name in logs}
        files += [(write_malware_csv, part, f"malware_{name}.csv")
                  for name, part in malware.items()]
        for name, flag in (("validation", "val_supports"), ("test", "test_supports")):
            supports = (_triplet(opts[flag], int) if opts[flag]
                        else _auto_supports(logs[name], malware[name]))
            items = build_manifest(logs[name], malware[name], supports=supports)
            files.append((write_manifest, items, f"manifest_{name}.ndjson"))
            lines.append(f"wrote manifest_{name}.ndjson with supports {supports}")
    out_dir.mkdir(parents=True, exist_ok=True)
    for write, rows, file_name in files:
        write(rows, out_dir / file_name)
    print("\n".join(lines))
    return 0


def _cmd_train_log(opts: dict) -> int:
    _require(opts, "train", "artifact")
    loaded = _loaded(load_log_ndjson(opts["train"]), "line(s)")
    class_weight = None if opts["class_weight"] in (None, "none") else opts["class_weight"]
    vocab, model = train_log_detector(loaded.records, min_df=opts["min_df"],
                                      max_features=opts["max_features"], l2=opts["l2"],
                                      epochs=opts["epochs"], seed=opts["seed"],
                                      class_weight=class_weight)
    # the log calibrator and the thresholds were fitted on the old model's scores
    artifact, checksum = _save_detector(opts, "logs", corpus_fingerprint(loaded.records),
                                        vocabulary=vocab, logistic=model,
                                        calibrator_logs=None, fusion=None)
    print(f"trained log model on {len(loaded.records)} records (vocab {vocab.size}); "
          f"artifact {artifact.status} {checksum[:19]}")
    return 0


def _cmd_train_malware(opts: dict) -> int:
    _require(opts, "train", "artifact")
    loaded = _loaded(_load_malware(opts, opts["train"]), "row(s)")
    standardizer, forest = train_malware_detector(
        loaded.samples, n_trees=opts["trees"], max_depth=opts["max_depth"],
        min_samples_leaf=opts["min_leaf"], seed=opts["seed"])
    # the malware calibrator and the thresholds were fitted on the old model's scores
    artifact, checksum = _save_detector(opts, "malware", malware_fingerprint(loaded.samples),
                                        standardizer=standardizer, forest=forest,
                                        calibrator_malware=None, fusion=None)
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
    export = opts["export_thresholds"]
    if export:  # before the save, so a refused path leaves the artifact as it was
        Path(export).write_text(_json_text(config.to_dict()), encoding="utf-8")
    checksum = save_artifact(artifact, opts["artifact"])
    print(f"selected thresholds t_m={config.t_m:.2f} t_l={config.t_l:.2f} "
          f"(validation macro-F1 {macro:.4f}); artifact {artifact.status} {checksum[:19]}")
    if export:
        print(f"wrote thresholds JSON to {export}")
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
    print(f"serving artifact {artifact.version} on {service.url}", flush=True)
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


# Each subcommand's handler, help text and options. One option is (flag,
# default, argparse keywords), or a ``_knob`` that also names the
# ExperimentConfig field it mirrors; its config-file key is the flag without
# the leading dashes, and ``--in`` is stored as ``in_path``.
_COMMANDS: dict[str, tuple] = {
    "generate": (_cmd_generate, "generate synthetic logs and malware features", [
        ("--out-logs", None, {"help": "output NDJSON path for log records"}),
        ("--out-malware", None, {"help": "output CSV path for malware samples"}),
        _knob("--benign-hosts"),
        _knob("--attack-sessions"),
        _knob("--duration-s"),
        _knob("--benign-rate", "benign_rate_per_host"),
        _knob("--malware-benign"),
        _knob("--malware-malicious"),
        _knob("--malware-features"),
        _knob("--malware-separation"),
        _knob("--malware-hard-fraction"),
    ]),
    "augment": (_cmd_augment, "emit adversarial variants of a log file", [
        ("--in", None, {"help": "input NDJSON log file"}),
        ("--out", None, {"help": "output NDJSON path"}),
        _knob("--ops", "augment_ops", help="comma-separated operator names"),
        _knob("--rate", "augment_rate"),
        ("--replace", False, {"action": argparse.BooleanOptionalAction,
                              "help": "replace mutated records instead of appending variants"}),
    ]),
    "split": (_cmd_split, "split logs/malware and build evaluation manifests", [
        ("--logs", None, {"help": "input NDJSON log file"}),
        ("--malware", None, {"help": "input malware CSV"}),
        ("--out-dir", None, {"help": "directory for split files"}),
        ("--kind", "TIME_ORDERED", {"choices": [*(k.value for k in SplitKind), _K_FOLD]}),
        _knob("--fractions", help="train,validation,test e.g. 0.6,0.2,0.2"),
        ("--folds", None, {"type": int, "help": "number of folds with --kind K_FOLD (default 5)"}),
        ("--val-supports", None, {"help": "NORMAL,SUSPICIOUS,HIGH manifest supports"}),
        ("--test-supports", None, {"help": "NORMAL,SUSPICIOUS,HIGH manifest supports"}),
        ("--label-column", "label", {}),
        ("--id-column", "sample_id", {"help": "id column name; empty string if absent"}),
    ]),
    "train-log": (_cmd_train_log, "fit vocabulary + logistic model on training logs", [
        ("--train", None, {"help": "training NDJSON log file"}),
        ("--artifact", None, {"help": "artifact path to create or update"}),
        _knob("--min-df"),
        _knob("--max-features"),
        _knob("--l2", "logistic_l2"),
        _knob("--epochs", "logistic_epochs"),
        ("--class-weight", "none", {"choices": ["none", "balanced"]}),
    ]),
    "train-malware": (_cmd_train_malware, "fit standardizer + random forest on training rows", [
        ("--train", None, {"help": "training malware CSV"}),
        ("--artifact", None, {"help": "artifact path to create or update"}),
        ("--label-column", "label", {}),
        ("--id-column", "sample_id", {}),
        # released CLI defaults; run_experiment uses forest_trees=30 and forest_depth=10
        ("--trees", 100, {"type": int}),
        ("--max-depth", 12, {"type": int}),
        _knob("--min-leaf", "forest_min_leaf"),
    ]),
    "calibrate": (_cmd_calibrate, "fit per-model calibrators on the validation split", [
        ("--artifact", None, {}),
        ("--val-logs", None, {"help": "validation NDJSON log file"}),
        ("--val-malware", None, {"help": "validation malware CSV"}),
        _knob("--method", "calibration", choices=["auto", "platt", "isotonic", "identity"]),
        ("--label-column", "label", {}),
        ("--id-column", "sample_id", {}),
    ]),
    "tune": (_cmd_tune, "grid-search fusion thresholds on a validation manifest", [
        ("--artifact", None, {}),
        ("--manifest", None, {"help": "validation manifest NDJSON"}),
        _knob("--grid-step"),
        _knob("--version", "artifact_version_tag",
              help="version tag recorded in the fusion config"),
        ("--export-thresholds", None, {"help": "also write thresholds to this JSON file"}),
    ]),
    "evaluate": (_cmd_evaluate, "run a baseline setting on a test manifest", [
        ("--artifact", None, {}),
        ("--manifest", None, {}),
        ("--setting", "all", {"choices": ["logs", "malware", "fused", "all"]}),
        ("--json-out", None, {"help": "write the report JSON here (default: stdout)"}),
    ]),
    "probe": (_cmd_probe, "robustness probe: score a manifest before/after mutation", [
        ("--artifact", None, {}),
        ("--manifest", None, {}),
        ("--ops", "KEYWORD_OBFUSCATION,CHAR_NOISE", {}),
        ("--rate", 0.5, {"type": float}),
        ("--json-out", None, {}),
    ]),
    "save": (_cmd_save, "verify and re-write an artifact canonically", [
        ("--artifact", None, {}),
        ("--out", None, {}),
        ("--created-at", None, {"type": int, "help": "epoch ms stamp (defaults to original)"}),
    ]),
    "serve": (_cmd_serve, "serve scoring over HTTP", [
        ("--artifact", None, {}),
        ("--bind", "127.0.0.1:8080", {"help": "host:port"}),
    ]),
    "score-batch": (_cmd_score_batch, "score an NDJSON request file offline", [
        ("--artifact", None, {}),
        ("--in", None, {"help": "input request NDJSON"}),
        ("--out", None, {"help": "output result NDJSON (default: stdout)"}),
    ]),
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _merge_options(args)
        return _COMMANDS[args.command][0](opts)
    except (AisocError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
