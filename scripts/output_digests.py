#!/usr/bin/env python3
"""Print sha256 digests of fixed-seed outputs, for byte checks across commits.

Runs ``run_experiment(ExperimentConfig(seed=7))`` and prints the digest of
the saved artifact and of the three report JSON files, then runs the
seven-command CLI chain (generate -> split -> train-log -> train-malware ->
calibrate -> tune -> evaluate) at seed 7 and prints the digest of its
artifact and ``report.json``. Last, ``score-batch`` scores the chain's test
manifest as requests, plus one logs-only, one malware-only and one
malformed line, and the digest of its output NDJSON is printed. Last, the
benchmark-sized seed-7 log corpus (3 hosts, 3000 s, 24 attack sessions) is
deduplicated at thresholds 0.9 and 0.7, and the digest of each kept
``(timestamp, label, message)`` list is printed. Finally, forests are trained
on fixed edge shapes (many tied values, values and split midpoints that
overflow to +-inf, no bootstrap with ``min_samples_leaf=5``, 20 features)
and the digest of each forest is printed, so a change to the grower is
byte-checked across commits. The forest digest hashes the JSON of the
forest's fields with each tree as nested node objects, built from
``ForestModel.trees``; it does not depend on how artifacts store trees.
The ``loaders.*`` digests, printed after the chain's, cover the three NDJSON
line readers over one fixed file with CRLF line ends, blank lines, a BOM on
its first line, malformed JSON, non-ASCII messages and no final line end: the
log records written back by ``write_log_ndjson`` plus the reject reasons, a
manifest of those records written and read back, and ``score-batch`` (with
the chain's artifact) over the same lines. The ``logistic.*`` digests hash
the weights, bias, ``l2`` and ``training_meta`` of two logistic fits: a
``class_weight="balanced"`` fit on the chain's training logs, and the
``run_experiment`` fit at seed 1234, which stops at its epoch cap.
The ``metrics.*`` digests pin the evaluation core on tie-heavy inputs:
``metrics.ranks`` hashes the ``float.hex`` of ``roc_auc`` and ``pr_auc`` over
a fixed list of score sets (1 to 12 integer levels scaled by 1, 1/3, 1e-300
and 1e300, some zeros negated, one all-tied set and n = 2 sets);
``metrics.isotonic`` hashes the knot bytes of ``fit_isotonic`` on tied
scores at those scales; ``metrics.report`` hashes the JSON of a three-class
``classification_report`` in which one class has no truth and no predictions.
Last, ``augment.ops`` hashes ``augment`` of the benchmark-sized corpus for
every non-empty operator subset and seeds 0-4 at rate 0.7: each output
record's timestamp, label, message and origin, in output order.

The chain runs in a fresh temporary directory, or in the directory given
as the one positional argument, which must be empty or not exist yet: the
chain updates an artifact it finds there instead of starting a new one. Code
that stores a path given on the command line in its outputs gives equal
digests on two checkouts only when both run the chain in the same directory.

Only public API is used, so the script runs unchanged on any commit that
has ``aisoc.pipeline``, ``aisoc.service``, ``aisoc.cli`` and
``aisoc.learn.train_forest``::

    python3 scripts/output_digests.py [CHAIN_DIR]
"""

import argparse
import contextlib
import hashlib
import itertools
import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

if __package__ is None:  # allow running straight from a checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from aisoc.cli import main as cli_main
from aisoc.corpus import (
    AugmentOp,
    Label,
    MalwareSample,
    ScenarioConfig,
    augment,
    dedup_near_identical,
    generate_corpus,
    load_log_ndjson,
    write_log_ndjson,
)
from aisoc.evaluate import ManifestItem, read_manifest, write_manifest
from aisoc.calibrate import fit_isotonic
from aisoc.fusion import TRIAGE_CLASSES
from aisoc.learn import train_forest
from aisoc.metrics import classification_report, pr_auc, roc_auc
from aisoc.pipeline import ExperimentConfig, run_experiment, train_log_detector
from aisoc.seeding import derive_seed
from aisoc.service import save_artifact

SEED = "7"
DEDUP_THRESHOLDS = (0.9, 0.7)
AUGMENT_SEEDS = range(5)
AUGMENT_RATE = 0.7


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pipeline_digests(out_dir: Path) -> dict[str, str]:
    result = run_experiment(ExperimentConfig(seed=int(SEED)))
    artifact = out_dir / "pipeline_artifact.json"
    save_artifact(result.artifact, artifact)
    digests = {"pipeline.artifact": sha256_bytes(artifact.read_bytes())}
    for name in ("logs", "malware", "fused"):
        digests[f"pipeline.report_{name}"] = sha256_bytes(result.reports[name].to_json_bytes())
    return digests


def run_cli(argv: list) -> None:
    argv = [str(a) for a in argv] + ["--seed", SEED]
    with contextlib.redirect_stdout(sys.stderr):  # stdout carries only the digests
        code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"aisoc {argv[0]} exited with {code}")


def write_batch_input(manifest: Path, path: Path) -> None:
    """The manifest's items as score requests, then three lines of other kinds."""
    requests = [{key: item[key] for key in ("entity_id", "log_message", "malware_features")}
                for item in map(json.loads, manifest.read_text(encoding="utf-8").splitlines())]
    lines = [json.dumps(r, ensure_ascii=False) for r in requests]
    lines += [json.dumps({"entity_id": "logs-only", "log_message": requests[0]["log_message"]},
                         ensure_ascii=False),
              json.dumps({"malware_features": requests[0]["malware_features"]}),
              '{"log_message": ']
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cli_digests(chain: Path) -> dict[str, str]:
    chain.mkdir(parents=True, exist_ok=True)
    logs, malware = chain / "logs.ndjson", chain / "malware.csv"
    splits, artifact = chain / "splits", chain / "artifact.json"
    commands = [
        ["generate", "--out-logs", logs, "--out-malware", malware],
        ["split", "--logs", logs, "--malware", malware, "--out-dir", splits],
        ["train-log", "--train", splits / "logs_train.ndjson", "--artifact", artifact],
        ["train-malware", "--train", splits / "malware_train.csv", "--artifact", artifact],
        ["calibrate", "--artifact", artifact, "--val-logs", splits / "logs_validation.ndjson",
         "--val-malware", splits / "malware_validation.csv"],
        ["tune", "--artifact", artifact, "--manifest", splits / "manifest_validation.ndjson"],
        ["evaluate", "--artifact", artifact, "--manifest", splits / "manifest_test.ndjson",
         "--json-out", chain / "report.json"],
    ]
    for argv in commands:
        run_cli(argv)
    batch_in, batch_out = chain / "batch_requests.ndjson", chain / "batch_results.ndjson"
    write_batch_input(splits / "manifest_test.ndjson", batch_in)
    run_cli(["score-batch", "--artifact", artifact, "--in", batch_in, "--out", batch_out])
    return {"cli.artifact": sha256_bytes(artifact.read_bytes()),
            "cli.report": sha256_bytes((chain / "report.json").read_bytes()),
            "cli.score_batch": sha256_bytes(batch_out.read_bytes())}


def benchmark_logs() -> list:
    """The benchmark-sized seed-7 log corpus, before dedup."""
    config = ExperimentConfig(seed=int(SEED), benign_hosts=3, duration_s=3000.0,
                              attack_sessions=24)
    return generate_corpus(ScenarioConfig(
        benign_hosts=config.benign_hosts, attack_sessions=config.attack_sessions,
        duration_s=config.duration_s, seed=derive_seed(config.seed, "generate-logs"),
        benign_rate_per_host=config.benign_rate_per_host))


def dedup_digests(logs: list) -> dict[str, str]:
    """Digests of the records kept by dedup on the benchmark-sized corpus."""
    digests = {}
    for threshold in DEDUP_THRESHOLDS:
        kept = [[r.timestamp, None if r.label is None else r.label.value, r.message]
                for r in dedup_near_identical(logs, threshold)]
        digests[f"dedup.kept_{threshold}"] = sha256_bytes(
            json.dumps(kept, ensure_ascii=False).encode("utf-8"))
    return digests


def log_line(timestamp: int, message: str, **extra) -> str:
    return json.dumps({"timestamp": timestamp, "host": "web01", "channel": "AUTH",
                       "message": message, **extra}, ensure_ascii=False)


# Lines of kinds every reader already accepted before the shared NDJSON reader:
# log records, score requests, blank lines, a BOM and malformed JSON. The file
# joins them with CRLF and has no final line end.
LOADER_LINES = [
    "\ufeff" + log_line(1000, "sshd: Accepted password for root", label="BENIGN"),
    log_line(2000, "sshd: Failed password for jürgen from 10.0.0.7", label="MALICIOUS"),
    "",
    "   ",
    log_line(3000, "cron[42]: Ausführung von /usr/bin/backup.sh — ok", label="BENIGN"),
    '{"timestamp": 4000, "host": "web01"',
    json.dumps({"log_message": "sudo: 日本 user : TTY=pts/0 ; COMMAND=/bin/sh",
                "malware_features": [0.5] * 8}, ensure_ascii=False),
    json.dumps({"entity_id": "r-2", "log_message": "powershell -enc SQBFAFgA"},
               ensure_ascii=False),
    "[1, 2]",
    log_line(5000, "kernel: usb 1-1: new device — ünïcödé", label="MALICIOUS",
             origin="AUGMENTED"),
    json.dumps({"malware_features": [3.0] * 8}),
]


def loaders_digests(chain: Path) -> dict[str, str]:
    """Digests of the three NDJSON readers' outputs over ``LOADER_LINES``."""
    source = chain / "loader_lines.ndjson"
    source.write_bytes("\r\n".join(LOADER_LINES).encode("utf-8"))
    loaded = load_log_ndjson(source)
    logs = chain / "loader_logs.ndjson"
    write_log_ndjson(loaded.records, logs)
    reasons = json.dumps(loaded.reject_reasons, ensure_ascii=False).encode("utf-8")
    items = [ManifestItem(entity_id=f"m{i}", log=record, malware=MalwareSample(
        sample_id=f"m{i}", features=(0.25 * i, -1.5, 1e-9),
        label=(Label.BENIGN, Label.MALICIOUS)[i % 2])) for i, record in enumerate(loaded.records)]
    manifest = chain / "loader_manifest.ndjson"
    write_manifest(items, manifest)
    read_back = json.dumps([[item.entity_id, item.log.message, str(item.log.label),
                             list(item.malware.features), str(item.malware.label)]
                            for item in read_manifest(manifest)], ensure_ascii=False)
    scored = chain / "loader_scores.ndjson"
    run_cli(["score-batch", "--artifact", chain / "artifact.json", "--in", source,
             "--out", scored])
    return {"loaders.logs": sha256_bytes(logs.read_bytes() + reasons),
            "loaders.manifest": sha256_bytes(manifest.read_bytes() + read_back.encode("utf-8")),
            "loaders.score_batch": sha256_bytes(scored.read_bytes())}


def logistic_digests(chain: Path) -> dict[str, str]:
    """Digests of a balanced fit on the chain's training logs and the seed-1234 pipeline fit."""
    records = load_log_ndjson(chain / "splits" / "logs_train.ndjson").records
    _, balanced = train_log_detector(records, min_df=2, max_features=20_000, l2=1e-3,
                                     epochs=300, seed=int(SEED), class_weight="balanced")
    with warnings.catch_warnings():  # the seed-1234 fit stops at its epoch cap
        warnings.simplefilter("ignore", UserWarning)
        capped = run_experiment(ExperimentConfig(seed=1234)).artifact.logistic
    return {name: sha256_bytes(json.dumps(model.to_dict()).encode("utf-8"))
            for name, model in (("logistic.balanced", balanced), ("logistic.seed1234", capped))}


# name: (rows, features, value scale, train_forest keywords)
FOREST_SHAPES = {
    "ties": (300, 8, 1.0, {"n_trees": 30}),
    "overflow_1e308": (300, 4, 1e308, {"n_trees": 30, "min_samples_leaf": 1}),
    "no_bootstrap_leaf5": (300, 8, 1.0, {"n_trees": 10, "bootstrap": False,
                                         "min_samples_leaf": 5}),
    "d20": (600, 20, 1.0, {"n_trees": 30}),
}


def node_object(node) -> dict:
    """A tree as nested node objects (artifact format 1), from its root ``TreeNode``."""
    if node.is_leaf:
        return {"counts": list(node.counts)}
    return {"counts": list(node.counts), "feature": node.feature,
            "threshold": float(node.threshold),
            "left": node_object(node.left), "right": node_object(node.right)}


def forest_object(model) -> dict:
    return {"trees": [node_object(tree) for tree in model.trees],
            **{key: getattr(model, key) for key in (
                "n_features", "n_trees", "max_depth", "min_samples_leaf",
                "features_per_split", "seed", "training_meta")}}


def forest_digests() -> dict[str, str]:
    """Digests of forests trained on 0.1-rounded Gaussian rows (many ties)."""
    digests = {}
    for i, (name, (n, d, scale, params)) in enumerate(FOREST_SHAPES.items()):
        rng = np.random.default_rng([int(SEED), i])
        X = np.round(rng.normal(size=(n, d)), 1)
        y = (X[:, :max(1, d // 2)].sum(axis=1) + rng.normal(size=n) > 0).astype(int)
        with np.errstate(over="ignore", invalid="ignore"):  # +-inf at 1e308 on purpose
            model = train_forest(X * scale, y, seed=int(SEED), **params)
        digests[f"forest.{name}"] = sha256_bytes(json.dumps(forest_object(model)).encode("utf-8"))
    return digests


def tied_score_sets() -> list[tuple[np.ndarray, np.ndarray]]:
    """Fixed (scores, labels) sets with many ties, both labels in each."""
    sets = [(np.array([0.5, 0.5]), np.array([0, 1])), (np.array([0.25, 0.75]), np.array([1, 0])),
            (np.full(7, 1 / 3), np.array([0, 1, 1, 0, 1, 0, 0]))]
    for i in range(48):
        rng = np.random.default_rng([int(SEED), i])
        n = 2 + i
        scores = rng.integers(0, 1 + i % 12, n) * (1.0, 1 / 3, 1e-300, 1e300)[i % 4]
        scores[(scores == 0) & (rng.random(n) < 0.5)] = -0.0
        labels = rng.integers(0, 2, n)
        labels[:2] = (0, 1)
        sets.append((scores, labels))
    return sets


def augment_digests(logs: list) -> dict[str, str]:
    """Digest of ``augment`` of the benchmark-sized corpus: every non-empty operator
    subset, seeds 0-4, at rate ``AUGMENT_RATE``."""
    ops = list(AugmentOp)
    runs = []
    for size in range(1, len(ops) + 1):
        for subset in itertools.combinations(ops, size):
            for seed in AUGMENT_SEEDS:
                out = augment(logs, subset, rate=AUGMENT_RATE, seed=seed)
                runs.append([[op.value for op in subset], seed,
                             [[r.timestamp, None if r.label is None else r.label.value,
                               r.message, r.origin.value] for r in out]])
    return {"augment.ops": sha256_bytes(json.dumps(runs, ensure_ascii=False).encode("utf-8"))}


def metrics_digests() -> dict[str, str]:
    """Digests of rank AUCs, isotonic knots and a report with an empty class."""
    sets = tied_score_sets()
    ranks = [[roc_auc(s, y).hex(), pr_auc(s, y).hex()] for s, y in sets]
    knots = b"".join(
        cal.knot_scores.tobytes() + cal.knot_values.tobytes()
        for cal in (fit_isotonic(s, y) for s, y in sets[3:]))
    rng = np.random.default_rng(int(SEED))
    truth = [TRIAGE_CLASSES[i] for i in rng.integers(0, 2, 60)]
    preds = [TRIAGE_CLASSES[i] for i in rng.integers(0, 2, 60)]
    report = classification_report(preds, truth, TRIAGE_CLASSES, setting="fused", split="x")
    return {"metrics.ranks": sha256_bytes(json.dumps(ranks).encode("utf-8")),
            "metrics.isotonic": sha256_bytes(knots),
            "metrics.report": sha256_bytes(report.to_json_bytes())}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("chain_dir", nargs="?",
                        help="directory for the CLI chain (default: a fresh temp dir)")
    args = parser.parse_args()
    chain_dir = Path(args.chain_dir) if args.chain_dir else None
    if chain_dir and chain_dir.exists() and (not chain_dir.is_dir() or any(chain_dir.iterdir())):
        parser.error(f"CHAIN_DIR {chain_dir} must be an empty directory or not exist yet")
    with tempfile.TemporaryDirectory() as tmp:
        digests = pipeline_digests(Path(tmp))
        chain = chain_dir or Path(tmp) / "chain"
        digests.update(cli_digests(chain))
        digests.update(loaders_digests(chain))
        digests.update(logistic_digests(chain))
    logs = benchmark_logs()
    digests.update(dedup_digests(logs))
    digests.update(forest_digests())
    digests.update(metrics_digests())
    digests.update(augment_digests(logs))
    for name, digest in digests.items():
        print(f"{name} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
