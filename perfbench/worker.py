"""Child process that runs one workload operation in a fresh interpreter.

``python3 -m perfbench.worker '<spec json>'`` (from the repository root).
The worker times its own set-up (import of ``aisoc`` and ``aisoc.cli``,
plus artifact load and ``to_scorer`` for batch), then runs exactly one
operation (a pipeline run, a CLI chain or a batch pass), optionally under
the span tracer, and writes its record to ``spec["out"]``. One operation
per process means that a process-wide cache in the program is credited
only with the repeats a single operation's inputs hold, as when a user
runs it. Checksums and status checks happen after the timed region.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import time
from contextlib import nullcontext
from pathlib import Path


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class PipelineOp:
    kind = "pipeline"

    def __init__(self, spec, _scorer):
        from aisoc.pipeline import ExperimentConfig

        self.config = ExperimentConfig(**spec["config"])
        self.path = Path(spec["workdir"]) / "artifact.json"

    def run(self):
        import aisoc

        result = aisoc.pipeline.run_experiment(self.config)
        aisoc.service.save_artifact(result.artifact, self.path)
        return result

    def inspect(self, result) -> dict:
        parts = result.log_split
        return {"sha256": file_sha256(self.path), "status": result.artifact.status,
                "records_after_dedup": len(parts.train) + len(parts.validation) + len(parts.test)}

    def describe(self) -> dict:
        from aisoc.corpus import ScenarioConfig, generate_corpus
        from aisoc.seeding import derive_seed

        c = self.config
        logs = generate_corpus(ScenarioConfig(
            benign_hosts=c.benign_hosts, attack_sessions=c.attack_sessions,
            duration_s=c.duration_s, seed=derive_seed(c.seed, "generate-logs"),
            benign_rate_per_host=c.benign_rate_per_host))
        return {"records_before_dedup": len(logs),
                "malware_rows": c.malware_benign + c.malware_malicious}


class CliOp:
    kind = "cli"

    def __init__(self, spec, _scorer):
        self.chain = Path(spec["chain_dir"])
        self.commands = spec["commands"]

    def run(self):
        import aisoc.cli

        self.chain.mkdir(parents=True, exist_ok=True)
        return [aisoc.cli.main(argv) for argv in self.commands]

    def inspect(self, codes) -> dict:
        from aisoc.service import load_artifact

        from perfbench.spans import forest_nodes

        chain = self.chain
        artifact = chain / "artifact.json"
        record = {"exit_codes": codes, "sha256": None, "report_sha256": None, "status": None}
        if artifact.exists() and (chain / "report.json").exists():
            loaded = load_artifact(artifact)
            record.update(sha256=file_sha256(artifact),
                          report_sha256=file_sha256(chain / "report.json"),
                          status=loaded.status, artifact_bytes=artifact.stat().st_size,
                          forest_nodes=forest_nodes(loaded.forest) if loaded.forest else 0)
        if (chain / "logs.ndjson").exists() and (chain / "malware.csv").exists():
            record["log_records"] = (chain / "logs.ndjson").read_text(encoding="utf-8").count("\n")
            record["malware_rows"] = (chain / "malware.csv").read_text(encoding="utf-8").count("\n") - 1
        shutil.rmtree(chain, ignore_errors=True)  # each chain starts from an empty directory
        return record


class BatchOp:
    kind = "batch"

    def __init__(self, spec, scorer):
        self.scorer = scorer
        self.source = spec["batch_in"]
        self.target = spec["batch_out"]

    def run(self):
        from aisoc import service

        return service.score_batch(self.scorer, self.source, self.target)

    def inspect(self, results) -> dict:
        return {"sha256": file_sha256(self.target), "lines_out": len(results)}


OPS = {op.kind: op for op in (PipelineOp, CliOp, BatchOp)}


def main(argv: list[str]) -> int:
    spec = json.loads(argv[0])
    sys.path.insert(0, spec["src"])
    t0 = time.perf_counter()
    import aisoc
    import aisoc.cli  # noqa: F401 - every operation is a CLI command for a user

    tracer = None
    if spec["trace"]:  # installed before the artifact load, so the load is traced too
        from perfbench import spans

        tracer = spans.Tracer()
        spans.install_all(tracer)
    try:
        scorer = None
        if spec["op"] == "batch":
            scorer = aisoc.service.load_artifact(spec["artifact"]).to_scorer()
        setup_s = time.perf_counter() - t0
        op = OPS[spec["op"]](spec, scorer)
        with tracer.span(f"op.{op.kind}") if tracer else nullcontext():
            t = time.perf_counter()
            result = op.run()
            elapsed = time.perf_counter() - t
    finally:
        if tracer:
            tracer.uninstall()
    out = {"setup_s": setup_s, "s": elapsed, "traced": bool(tracer), **op.inspect(result)}
    if tracer:
        out["trace"] = spans.summary(tracer)
    if spec.get("describe") and hasattr(op, "describe"):
        out["inputs"] = op.describe()
    Path(spec["out"]).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
