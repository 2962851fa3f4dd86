"""Seeded workload inputs and the properties the scoring cost depends on.

Everything here derives from the benchmark seed (and fixed sizes), so one
seed always gives the same corpora, CLI arguments, artifact and request
files. The program under test only ever sees the files and configs built
here.

Batch and serve requests pair held-out log lines with held-out malware rows
the way the evaluation manifests do (``aisoc.evaluate.build_manifest`` with
the experiment's test supports), so every valid request is fused: the
manifests are the only request mix the repository defines. The cost of the
logs-only and malware-only cases is measured separately on the same
requests (``modality_cost_us``). The malformed-line share of batch input is
a chosen value, not one measured anywhere.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from collections import Counter
from dataclasses import dataclass

AUGMENT_OPS = ("KEYWORD_OBFUSCATION", "SYNONYM_REPLACEMENT", "CHAR_NOISE")


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``FULL`` is the benchmark, ``TINY`` the self-test smoke run."""

    pipeline_hosts: int = 3
    pipeline_duration_s: float = 3000.0
    pipeline_sessions: int = 24
    cli_malware_per_class: int = 400
    cli_separation: float = 1.0
    cli_hard_fraction: float = 0.2
    cli_trees: int = 100
    artifact_trees: int = 100
    batch_lines: int = 2000
    batch_malformed_share: float = 0.02
    serve_pool: int = 1500
    serve_rate_per_s: float = 30.0
    serve_setup_samples: int = 7


FULL = Sizes()
TINY = Sizes(pipeline_hosts=1, pipeline_duration_s=300.0, pipeline_sessions=4,
             cli_malware_per_class=60, cli_trees=5, artifact_trees=5, batch_lines=80,
             serve_pool=40, serve_rate_per_s=20.0, serve_setup_samples=1)


def rng_for(seed: int, label: str) -> random.Random:
    return random.Random(f"perfbench:{seed}:{label}")


def pipeline_config(seed: int, sizes: Sizes) -> dict:
    """``ExperimentConfig`` keyword arguments for the pipeline workload."""
    return {"seed": seed, "benign_hosts": sizes.pipeline_hosts,
            "duration_s": sizes.pipeline_duration_s,
            "attack_sessions": sizes.pipeline_sessions}


def cli_chain(seed: int, sizes: Sizes, workdir: str) -> list[list[str]]:
    """The seven-command generate -> ... -> evaluate chain, rooted at ``workdir``."""
    d = workdir.rstrip("/") + "/"
    s = str(seed)
    n = str(sizes.cli_malware_per_class)
    art = d + "artifact.json"
    return [
        ["generate", "--out-logs", d + "logs.ndjson", "--out-malware", d + "malware.csv",
         "--seed", s, "--malware-benign", n, "--malware-malicious", n,
         "--malware-separation", str(sizes.cli_separation),
         "--malware-hard-fraction", str(sizes.cli_hard_fraction)],
        ["split", "--logs", d + "logs.ndjson", "--malware", d + "malware.csv",
         "--out-dir", d + "splits", "--seed", s],
        ["train-log", "--train", d + "splits/logs_train.ndjson", "--artifact", art, "--seed", s],
        ["train-malware", "--train", d + "splits/malware_train.csv", "--artifact", art,
         "--seed", s, "--trees", str(sizes.cli_trees)],
        ["calibrate", "--artifact", art, "--val-logs", d + "splits/logs_validation.ndjson",
         "--val-malware", d + "splits/malware_validation.csv", "--seed", s],
        ["tune", "--artifact", art, "--manifest", d + "splits/manifest_validation.ndjson",
         "--seed", s],
        ["evaluate", "--artifact", art, "--manifest", d + "splits/manifest_test.ndjson",
         "--json-out", d + "report.json", "--seed", s],
    ]


# The batch and serve model is the same for every benchmark seed, which
# varies only the requests: a per-seed model moved the forest's node count,
# and with it the scoring cost, by up to 10 %.
SCORING_MODEL_SEED = 7


def scoring_experiment(sizes: Sizes):
    """The default experiment with a CLI-sized forest: the batch/serve artifact."""
    from aisoc.pipeline import ExperimentConfig, run_experiment

    return run_experiment(ExperimentConfig(seed=SCORING_MODEL_SEED,
                                           forest_trees=sizes.artifact_trees, forest_depth=12))


def _manifest_requests(result, rng: random.Random, n: int) -> list[dict]:
    """``n`` fused requests paired like the test manifest, in a seeded order.

    The held-out pools are shuffled first, so the seed decides which records
    ``build_manifest`` pairs and cycles; its supports are the experiment's
    test supports scaled to ``n``.
    """
    from aisoc.evaluate import build_manifest

    logs = list(result.log_split.test)
    rows = list(result.malware_split.test)
    rng.shuffle(logs)
    rng.shuffle(rows)
    supports = result.config.test_supports
    scaled = [n * k // sum(supports) for k in supports]
    scaled[-1] += n - sum(scaled)
    items = build_manifest(logs, rows, supports=tuple(scaled), seed=0)
    rng.shuffle(items)
    return [{"entity_id": item.entity_id, "log_message": item.log.message,
             "malware_features": list(item.malware.features)} for item in items]


def _malformed(rng: random.Random, valid: dict, dim: int) -> str:
    kind = rng.randrange(7)
    if kind == 0:
        return json.dumps(valid)[:-3]                       # truncated JSON
    if kind == 1:
        return "[1, 2, 3]"                                  # not an object
    if kind == 2:
        return json.dumps({"log_message": "x y z", "priority": 1})
    if kind == 3:
        return json.dumps({"entity_id": "no-modality"})
    if kind == 4:
        return json.dumps({"malware_features": [0.5] * (dim + 1)})
    if kind == 5:
        return '{"malware_features": [' + ", ".join(["NaN"] * dim) + "]}"
    return json.dumps({"log_message": 17})


def batch_lines(result, seed: int, sizes: Sizes) -> tuple[list[str], list[dict | None]]:
    """NDJSON request lines; ``None`` marks a malformed line.

    Exact repeats come from the manifest rule cycling the held-out pools.
    """
    rng = rng_for(seed, "batch")
    dim = len(result.malware_split.test[0].features)
    lines: list[str] = []
    requests: list[dict | None] = []
    for request in _manifest_requests(result, rng, sizes.batch_lines):
        if rng.random() < sizes.batch_malformed_share:
            lines.append(_malformed(rng, request, dim))
            requests.append(None)
        else:
            lines.append(json.dumps(request, ensure_ascii=False))
            requests.append(request)
    return lines, requests


def serve_requests(result, seed: int, sizes: Sizes) -> list[dict]:
    """Manifest-paired requests whose messages are augmented, so few repeat."""
    from aisoc.corpus import AugmentOp, mutate_message

    rng = rng_for(seed, "serve")
    ops = [AugmentOp(op) for op in AUGMENT_OPS]
    out = _manifest_requests(result, rng, sizes.serve_pool)
    for request in out:
        message = mutate_message(request["log_message"], ops, rng)
        if message.strip():
            request["log_message"] = message
    return out


def modality_cost_us(scorer, requests: list[dict | None], limit: int = 200,
                     repeats: int = 3) -> dict:
    """Median in-process ``score_request`` microseconds per modality.

    The first ``limit`` valid requests are scored whole, without their
    malware features and without their log message, so a later claim can
    cite the measured cost of each modality rather than an assumed mix.
    Each request's time is the fastest of ``repeats`` interleaved calls.
    """
    sample = [r for r in requests if r is not None][:limit]
    variants = {
        "fused": lambda r: r,
        "logs_only": lambda r: {k: v for k, v in r.items() if k != "malware_features"},
        "malware_only": lambda r: {k: v for k, v in r.items() if k != "log_message"},
    }
    best = {name: [float("inf")] * len(sample) for name in variants}
    for _ in range(repeats):
        for name, variant in variants.items():
            for i, request in enumerate(map(variant, sample)):
                t = time.perf_counter()
                scorer.score_request(request)
                best[name][i] = min(best[name][i], time.perf_counter() - t)
    return {name: statistics.median(times) * 1e6 for name, times in best.items()}


def request_properties(requests: list[dict | None], vocabulary) -> dict:
    """Modality mix, malformed and exact-duplicate shares, tokens and OOV share."""
    from aisoc.features import tokenize

    mix: Counter[str] = Counter()
    seen: set[str] = set()
    messages = duplicates = tokens = oov = 0
    for request in requests:
        if request is None:
            mix["malformed"] += 1
            continue
        has_log = "log_message" in request
        has_mw = "malware_features" in request
        mix["fused" if has_log and has_mw else "logs_only" if has_log else "malware_only"] += 1
        if has_log:
            message = request["log_message"]
            messages += 1
            duplicates += message in seen
            seen.add(message)
            toks = tokenize(message)
            tokens += len(toks)
            oov += sum(1 for t in toks if t not in vocabulary.index)
    n = len(requests)
    return {
        "requests": n,
        "modality_mix": dict(sorted(mix.items())),
        "malformed_share": mix["malformed"] / n if n else 0.0,
        "duplicate_message_share": duplicates / messages if messages else 0.0,
        "mean_tokens_per_message": tokens / messages if messages else 0.0,
        "oov_token_share": oov / tokens if tokens else 0.0,
    }
