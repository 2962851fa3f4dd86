"""The workloads: their inputs, program runs, correctness gates and metrics.

Every workload reports the same four end-to-end metrics, each meaning the
user-visible quantity of that workload (see ``END_TO_END``), and in a
traced run the same per-layer metrics (``PER_LAYER``); a layer that a
workload never calls reads 0, which is the no-change prediction for it.

Train and batch operations each run in a fresh worker process
(``perfbench/worker.py``), one operation per process.

* train - alternates ``run_experiment`` + ``save_artifact`` on a corpus
  1.7 times the default size (the only dedup user, which dominates it)
  with the seven-command ``aisoc.cli.main`` chain on a larger, harder
  malware table and the CLI's 100-tree forest (the only user of the
  NDJSON/CSV loaders; forest training dominates it).
* batch - ``score_batch`` over held-out NDJSON requests paired like the
  test manifest, with exact repeats and malformed lines; scoring kernels
  dominate.
* serve - ``aisoc serve`` in its own process, an open loop at a fixed rate
  and a closed loop over keep-alive connections; requests are paired like
  the test manifest with augmented messages, so few repeat. Transport
  dominates.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import inputs, loadgen, spans
from perfbench.spans import forest_nodes
from perfbench.stats import FailCount, median, tail
from perfbench.worker import file_sha256

# (name, unit, better, bound): mirrored by BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("op_ms", "ms", "lower", 0.25),
    ("items_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# (name, unit, better). ``*_s`` is inclusive span time per workload
# operation (pipeline run + CLI chain, batch pass, server lifetime);
# ``*_us`` is the median inclusive time of one call.
PER_LAYER = (
    ("corpus.generate_s", "s", "lower"),
    ("corpus.dedup_s", "s", "lower"),
    ("corpus.dedup_kept_ratio", "ratio", "higher"),
    ("corpus.split_s", "s", "lower"),
    ("corpus.augment_s", "s", "lower"),
    ("corpus.loaders_s", "s", "lower"),
    ("features.fit_vocabulary_s", "s", "lower"),
    ("features.transform_text_us", "us", "lower"),
    ("learn.logistic_train_s", "s", "lower"),
    ("learn.logistic_iterations", "count", "lower"),
    ("learn.forest_train_s", "s", "lower"),
    ("learn.forest_nodes", "count", "lower"),
    ("learn.score_forest_us", "us", "lower"),
    ("learn.score_logistic_us", "us", "lower"),
    ("calibrate.fit_s", "s", "lower"),
    ("calibrate.apply_us", "us", "lower"),
    ("fusion.tune_s", "s", "lower"),
    ("fusion.grid_cells", "count", "lower"),
    ("evaluate.run_baselines_s", "s", "lower"),
    ("metrics.report_s", "s", "lower"),
    ("service.artifact_save_s", "s", "lower"),
    ("service.artifact_load_s", "s", "lower"),
    ("service.artifact_bytes", "bytes", "lower"),
    ("service.score_request_us", "us", "lower"),
    ("service.json_codec_us", "us", "lower"),
    ("service.http_overhead_ms", "ms", "lower"),
    ("cli.self_s", "s", "lower"),
    ("client.late_tail_ms", "ms", "lower"),
    ("client.sent", "count", "higher"),
    ("client.ok", "count", "higher"),
    ("client.failed", "count", "lower"),
)

WORKER_TIMEOUT_S = 90.0  # one operation, traced, on a slow host
BENCH_ROOT = Path(__file__).resolve().parent.parent  # holds the ``perfbench`` package
SERVER_START_TIMEOUT_S = 30.0
SERVER_STOP_TIMEOUT_S = 15.0
OPEN_LOOP_SHARE = 0.6  # of a serve phase pair; the closed loop gets the rest
BATCH_FIELDS = ("entity_id", "s_m", "s_l", "label")


class ProgramError(RuntimeError):
    """The program under test crashed, hung or did not start."""


@dataclass
class Run:
    root: Path
    seed: int
    seconds: float
    trace: bool
    workdir: Path  # scratch space inside the checkout, removed afterwards
    sizes: inputs.Sizes = inputs.FULL

    @property
    def src(self) -> Path:
        return self.root / "src"


@dataclass
class Outcome:
    metrics: dict[str, float]
    fails: FailCount
    info: dict = field(default_factory=dict)

    def units(self) -> dict[str, str]:
        table = END_TO_END if not self.info.get("traced") else PER_LAYER
        return {row[0]: row[1] for row in table}


# -- child processes -------------------------------------------------------
def child_env(run: Run) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(run.src), str(BENCH_ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def reap(proc: subprocess.Popen, timeout: float):
    """Wait for ``proc`` (killing it after ``timeout``); returns (exit code, rusage)."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise ProgramError(f"{proc.args[:4]} did not finish within {timeout:.0f}s")
        time.sleep(0.02)


def _log_tail(path: Path) -> str:
    return path.read_text(encoding="utf-8", errors="replace")[-2000:] if path.exists() else ""


def run_worker(run: Run, spec: dict) -> tuple[dict, object]:
    """Run one operation in a fresh worker; returns (its record, its rusage)."""
    out = run.workdir / "worker-result.json"
    out.unlink(missing_ok=True)
    log = run.workdir / "worker.log"
    spec = dict(spec, src=str(run.src), out=str(out))
    with open(log, "wb") as fh:
        proc = subprocess.Popen([sys.executable, "-m", "perfbench.worker", json.dumps(spec)],
                                cwd=run.root, env=child_env(run), stdout=fh, stderr=fh)
        code, usage = reap(proc, WORKER_TIMEOUT_S)
    if code != 0 or not out.exists():
        raise ProgramError(f"{spec['op']} worker exited with {code}:\n{_log_tail(log)}")
    return json.loads(out.read_text(encoding="utf-8")), usage


def run_ops(run: Run, specs: list[dict]) -> tuple[list[dict], list]:
    """Rounds of one fresh worker per spec, for about ``run.seconds``.

    A new round starts only while the fastest worker times seen so far say
    it will end in time. In a traced run every other round is traced; the
    first round also describes its inputs. Returns the records and rusages.
    """
    fastest: dict[str, float] = {}
    records, usages = [], []
    start = time.perf_counter()
    rounds = 0
    while rounds < (2 if run.trace else 1) or (
            time.perf_counter() - start + sum(fastest.values()) <= run.seconds):
        for spec in specs:
            t = time.perf_counter()
            record, usage = run_worker(run, dict(spec, trace=run.trace and rounds % 2 == 1,
                                                 describe=rounds == 0))
            wall = time.perf_counter() - t
            fastest[spec["op"]] = min(wall, fastest.get(spec["op"], wall))
            records.append(dict(record, kind=spec["op"]))
            usages.append(usage)
        rounds += 1
    return records, usages


def _rss_mb(usages) -> float:
    return max(u.ru_maxrss for u in usages) / 1024.0  # Linux reports kilobytes


# -- metrics -----------------------------------------------------------------
def end_to_end(setups, op_s: float, items_per_s: float, usages) -> dict[str, float]:
    return {"setup_s": median(setups), "op_ms": op_s * 1e3,
            "items_per_s": items_per_s, "peak_rss_mb": _rss_mb(usages)}


def per_layer(summary: dict, n_ops: int, client: dict | None = None) -> dict[str, float]:
    spans, counters, gauges = summary["spans"], summary["counters"], summary["gauges"]

    def per_op(name):
        return spans[name]["total_s"] / n_ops if name in spans else 0.0

    def per_call_us(name):
        return spans[name]["median_call_us"] if name in spans else 0.0

    def ratio(a, b):
        return counters[a] / counters[b] if counters.get(b) else 0.0

    values = {
        "corpus.dedup_kept_ratio": ratio("corpus.dedup_out", "corpus.dedup_in"),
        "learn.logistic_iterations": ratio("learn.logistic_iterations", "learn.logistic_trains"),
        "learn.forest_nodes": gauges.get("learn.forest_nodes", 0),
        "fusion.grid_cells": counters.get("fusion.grid_cells", 0) / n_ops,
        "service.artifact_bytes": gauges.get("service.artifact_bytes", 0),
        "cli.self_s": spans["cli.main"]["self_s"] / n_ops if "cli.main" in spans else 0.0,
    }
    client = client or {}
    for name, unit, _ in PER_LAYER:
        if name in values:
            continue
        if name.startswith("client.") or name == "service.http_overhead_ms":
            values[name] = client.get(name, 0)
        elif unit == "us":
            values[name] = per_call_us(name[: -len("_us")])
        else:
            values[name] = per_op(name[: -len("_s")])
    return values


def span_table(summary: dict, top: int = 8) -> dict[str, list[dict]]:
    """Per root span (operation kind or request), the spans with the most self time."""
    tables = {}
    for root, spans in summary["by_root"].items():
        rows = sorted(spans.items(), key=lambda kv: -kv[1]["self_s"])
        tables[root] = [{"span": name, "calls": row["calls"], "total_s": round(row["total_s"], 6),
                         "self_s": round(row["self_s"], 6),
                         "median_call_us": round(row["median_call_us"], 2)}
                        for name, row in rows[:top]]
    return tables


def _by_kind(records: list[dict], traced: bool) -> dict[str, list[float]]:
    times: dict[str, list[float]] = {}
    for record in records:
        if record["traced"] == traced:
            times.setdefault(record["kind"], []).append(record["s"])
    return times


def _finish(run: Run, records, usages, items: int, fails, info) -> Outcome:
    """Metrics of a worker workload; one operation is one round of every kind."""
    plain = _by_kind(records, traced=False)
    if run.trace:
        traced = _by_kind(records, traced=True)
        untraced_s = sum(median(t) for t in plain.values())
        traced_s = sum(median(t) for t in traced.values())
        rounds = min(len(t) for t in traced.values())
        summary = spans.merge([r["trace"] for r in records if r["traced"]])
        info.update(traced=True, spans=span_table(summary), tracing_overhead={
            "untraced_op_s": untraced_s, "traced_op_s": traced_s,
            "overhead_s": traced_s - untraced_s, "traced_rounds": rounds})
        return Outcome(per_layer(summary, rounds), fails, info)
    info["op_s"] = {kind: {"fastest": min(t), "median": median(t), "all": t}
                    for kind, t in plain.items()}
    setups = [r["setup_s"] for r in records]
    info["setup_samples"] = len(setups)
    op_s = sum(median(t) for t in plain.values())
    return Outcome(end_to_end(setups, op_s, items / op_s, usages), fails, info)


# -- train ---------------------------------------------------------------------
def _check_same(fails: FailCount, ops: list[dict], keys: tuple[str, ...], what: str) -> None:
    """Every operation must succeed and reproduce the first one's output bytes."""
    first = ops[0]
    for op in ops:
        fails.check(op["status"] == "SERVING" and all(op[k] == first[k] for k in keys)
                    and all(code == 0 for code in op.get("exit_codes", [])),
                    f"{what}: status {op['status']}, exit codes {op.get('exit_codes')}, "
                    f"sha256 {[op[k] for k in keys]} vs first {[first[k] for k in keys]}")


def train(run: Run) -> Outcome:
    from aisoc.service import load_artifact

    chain_dir = run.workdir / "chain"
    specs = [{"op": "pipeline", "workdir": str(run.workdir),
              "config": inputs.pipeline_config(run.seed, run.sizes)},
             {"op": "cli", "chain_dir": str(chain_dir),
              "commands": inputs.cli_chain(run.seed, run.sizes, str(chain_dir))}]
    records, usages = run_ops(run, specs)
    runs = [r for r in records if r["kind"] == "pipeline"]
    chains = [r for r in records if r["kind"] == "cli"]
    fails = FailCount()
    _check_same(fails, runs, ("sha256",), "pipeline artifact")
    _check_same(fails, chains, ("sha256", "report_sha256"), "CLI chain")
    path = run.workdir / "artifact.json"
    described = runs[0]["inputs"]
    before, malware = described["records_before_dedup"], described["malware_rows"]
    after = runs[0]["records_after_dedup"]
    chain = chains[0]
    info = {"inputs": {
        "pipeline": {"records_before_dedup": before, "records_after_dedup": after,
                     "dedup_kept_ratio": after / before, "malware_rows": malware,
                     "forest_nodes": forest_nodes(load_artifact(path).forest),
                     "artifact_bytes": path.stat().st_size},
        "cli": {"log_records": chain.get("log_records"), "malware_rows": chain.get("malware_rows"),
                "forest_nodes": chain.get("forest_nodes"),
                "artifact_bytes": chain.get("artifact_bytes"),
                "commands": [argv[0] for argv in specs[1]["commands"]]}},
        "sha256": {"pipeline_artifact": runs[0]["sha256"], "artifact": chain["sha256"],
                   "cli_report": chain["report_sha256"]},
        "aliases": {"pipeline_s": "op_s.pipeline.median", "cli_chain_s": "op_s.cli.median"}}
    items = before + malware + (chain.get("log_records") or 0) + (chain.get("malware_rows") or 0)
    return _finish(run, records, usages, items, fails, info)


# -- batch ---------------------------------------------------------------------
def _scoring_inputs(run: Run):
    """Train and save the 100-tree scoring artifact; returns (experiment, path, loaded)."""
    from aisoc.service import load_artifact, save_artifact

    experiment = inputs.scoring_experiment(run.sizes)
    path = run.workdir / "artifact.json"
    save_artifact(experiment.artifact, path)
    return experiment, path, load_artifact(path)


def check_batch_output(text: str, requests: list[dict | None], scorer) -> tuple[int, str]:
    """Count output lines that differ from the per-request reference."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if len(lines) != len(requests):
        return len(requests), f"{len(lines)} output lines for {len(requests)} requests"
    bad, reason = 0, ""
    for lineno, (request, line) in enumerate(zip(requests, lines), start=1):
        try:
            got = json.loads(line)
        except json.JSONDecodeError:
            got = None
        if not isinstance(got, dict):
            ok = False
        elif request is None:
            ok = (set(got) == {"error", "line"} and got["line"] == lineno
                  and isinstance(got["error"], str))
        else:
            response = scorer.score_request(request)
            ok = got == {k: response[k] for k in BATCH_FIELDS if k in response}
        if not ok:
            bad += 1
            reason = reason or f"line {lineno}: {line[:120]}"
    return bad, reason


def batch(run: Run) -> Outcome:
    experiment, path, artifact = _scoring_inputs(run)
    lines, requests = inputs.batch_lines(experiment, run.seed, run.sizes)
    source, target = run.workdir / "requests.ndjson", run.workdir / "results.ndjson"
    source.write_text("\n".join(lines) + "\n", encoding="utf-8")
    spec = {"op": "batch", "artifact": str(path), "batch_in": str(source),
            "batch_out": str(target)}
    records, usages = run_ops(run, [spec])
    n = len(lines)
    fails = FailCount()
    scorer = artifact.to_scorer()
    bad, reason = check_batch_output(target.read_text(encoding="utf-8"), requests, scorer)
    final_sha = records[-1]["sha256"]
    for record in records:
        if record["sha256"] != final_sha:
            fails.fail(f"batch pass output {record['sha256'][:12]} differs from {final_sha[:12]}", n)
        else:
            fails.ok(n - bad)
            if bad:
                fails.fail(reason, bad)
    info = {"inputs": dict(inputs.request_properties(requests, artifact.vocabulary),
                           scoring_cost_us=inputs.modality_cost_us(scorer, requests),
                           forest_nodes=forest_nodes(artifact.forest),
                           artifact_bytes=path.stat().st_size),
            "sha256": {"artifact": file_sha256(path), "batch_output": final_sha},
            "aliases": {"batch_lines_per_s": "items_per_s"}}
    return _finish(run, records, usages, n, fails, info)


# -- serve ---------------------------------------------------------------------
def _default_sigint() -> None:
    """Undo an inherited SIG_IGN (a background shell job has one), which
    would keep Python from turning SIGINT into the server's clean stop."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class Server:
    """``aisoc serve`` (optionally under the span tracer) on 127.0.0.1, port 0."""

    def __init__(self, run: Run, artifact: Path, traced: bool):
        self.summary_path = run.workdir / "server-trace.json" if traced else None
        args = ["serve", "--artifact", str(artifact), "--bind", "127.0.0.1:0"]
        if traced:
            cmd = [sys.executable, "-m", "perfbench.traced_serve", str(run.src),
                   str(self.summary_path), *args]
        else:
            cmd = [sys.executable, "-m", "aisoc", *args]
        self.log = run.workdir / "server.log"
        self.port = 0
        start = time.perf_counter()
        with open(self.log, "ab") as fh:
            self.proc = subprocess.Popen(cmd, cwd=run.root, env=child_env(run),
                                         stdout=subprocess.PIPE, stderr=fh, text=True,
                                         preexec_fn=_default_sigint)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], SERVER_START_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else ""
            if not line.startswith("serving artifact"):
                raise ProgramError(f"server did not start: {line!r}\n{_log_tail(self.log)}")
            self.port = int(line.strip().rsplit(":", 1)[1])
            self._wait_healthy(start + SERVER_START_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _wait_healthy(self, deadline: float) -> None:
        import http.client

        while True:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                conn.request("GET", "/v1/health")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            if time.perf_counter() > deadline:
                raise ProgramError("server never answered /v1/health")
            time.sleep(0.01)

    def stop(self):
        """SIGINT, reap (rusage of this process only), and check nothing is left."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                _, usage = reap(self.proc, SERVER_STOP_TIMEOUT_S)
            except ProgramError as exc:
                raise ProgramError(f"{exc} after SIGINT:\n{_log_tail(self.log)}") from None
            finally:
                self.proc.stdout.close()
        else:
            usage = None
        if self.port:
            try:
                socket.create_connection(("127.0.0.1", self.port), timeout=1).close()
            except OSError:
                pass
            else:
                raise ProgramError(f"port {self.port} still accepts connections after shutdown")
        return usage

    def trace_summary(self) -> dict:
        if not self.summary_path.exists():
            raise ProgramError(f"traced server wrote no span summary:\n{_log_tail(self.log)}")
        return json.loads(self.summary_path.read_text(encoding="utf-8"))


def _phases(server: Server, bodies, expected, rate: float, seconds: float,
            connections: int) -> dict:
    a = loadgen.open_loop("127.0.0.1", server.port, bodies, expected, rate,
                          OPEN_LOOP_SHARE * seconds, connections)
    b, elapsed = loadgen.closed_loop("127.0.0.1", server.port, bodies, expected,
                                     (1 - OPEN_LOOP_SHARE) * seconds, connections,
                                     offset=len(a))
    return {"open": a, "closed": b, "closed_s": elapsed}


def _account(phases: dict, fails: FailCount) -> None:
    for sent in phases["open"] + phases["closed"]:
        if sent.ok:
            fails.ok()
        else:
            fails.fail(sent.reason)


def _tail_ms(values) -> dict:
    found = tail(values)
    if found is None:
        return {"level": "max", "ms": max(values) * 1e3, "n": len(values)}
    return {"level": f"p{found[0] * 100:g}", "ms": found[1] * 1e3, "n": len(values)}


def _finite(x: float) -> float:
    return x if x != float("inf") else 1e12  # a failed request: beyond every limit


def serve(run: Run) -> Outcome:
    experiment, path, artifact = _scoring_inputs(run)
    scorer = artifact.to_scorer()
    pool = inputs.serve_requests(experiment, run.seed, run.sizes)
    bodies = [json.dumps(r).encode("utf-8") for r in pool]
    expected, inproc_s = [], []
    for request in pool:
        t = time.perf_counter()
        response = scorer.score_request(request)
        inproc_s.append(time.perf_counter() - t)
        expected.append(json.dumps(response, ensure_ascii=False).encode("utf-8"))
    connections = min(2, loadgen.cpu_count())
    rate = run.sizes.serve_rate_per_s
    fails = FailCount()
    info = {"inputs": dict(inputs.request_properties(pool, artifact.vocabulary),
                           scoring_cost_us=inputs.modality_cost_us(scorer, pool),
                           forest_nodes=forest_nodes(artifact.forest),
                           artifact_bytes=path.stat().st_size, open_loop_rate_per_s=rate),
            "sha256": {"artifact": file_sha256(path)},
            "connections": connections,
            "aliases": {"http_p50_ms": "op_ms", "http_rps": "items_per_s"}}

    if not run.trace:
        setups = []

        def setup_samples(n: int) -> None:
            for _ in range(n):
                sample = Server(run, path, traced=False)
                setups.append(sample.setup_s)
                sample.stop()

        extra = run.sizes.serve_setup_samples - 1  # the measured server is one sample
        setup_samples(extra // 2)
        server = Server(run, path, traced=False)
        setups.append(server.setup_s)
        try:
            phases = _phases(server, bodies, expected, rate, run.seconds, connections)
        finally:
            usage = server.stop()
        setup_samples(extra - extra // 2)
        _account(phases, fails)
        client = info["client"] = _client_info(phases, inproc_s)
        info["inputs"]["sent_duplicate_message_share"] = _sent_duplicates(phases, pool)
        return Outcome({"setup_s": median(setups), "op_ms": client["http_p50_ms"],
                        "items_per_s": client["http_rps"], "peak_rss_mb": _rss_mb([usage])},
                       fails, info)

    half = run.seconds / 2
    plain = Server(run, path, traced=False)
    try:
        untraced = _phases(plain, bodies, expected, rate, half, connections)
    finally:
        plain.stop()
    traced_server = Server(run, path, traced=True)
    try:
        traced = _phases(traced_server, bodies, expected, rate, half, connections)
    finally:
        traced_server.stop()
    summary = traced_server.trace_summary()
    for phases in (untraced, traced):
        _account(phases, fails)
    client = info["client"] = _client_info(untraced, inproc_s)
    traced_p50 = _client_info(traced, inproc_s)["http_p50_ms"]
    layer_client = {
        "service.http_overhead_ms": client["http_overhead_ms"],
        "client.late_tail_ms": client["late_tail"]["ms"],
        "client.sent": fails.attempted,
        "client.ok": fails.attempted - fails.failed,
        "client.failed": fails.failed,
    }
    info.update(traced=True, spans=span_table(summary), tracing_overhead={
        "untraced_http_p50_ms": client["http_p50_ms"], "traced_http_p50_ms": traced_p50,
        "overhead_ms": traced_p50 - client["http_p50_ms"]})
    return Outcome(per_layer(summary, 1, layer_client), fails, info)


def _overhead_ms(sent: list, inproc_s: list[float]) -> float:
    """Median reply time minus the in-process ``score_request`` time, same request."""
    gaps = [s.service - inproc_s[s.index] for s in sent if s.ok]
    return median(gaps) * 1e3 if gaps else 0.0


def _client_info(phases: dict, inproc_s: list[float]) -> dict:
    opened, closed = phases["open"], phases["closed"]
    return {
        "open_loop_sent": len(opened),
        "http_p50_ms": _finite(median(s.latency for s in opened) * 1e3),
        "http_tail": _tail_ms([_finite(s.latency) for s in opened]),
        "late_tail": _tail_ms([s.sent - s.due for s in opened]),
        "open_loop_overhead_ms": _overhead_ms(opened, inproc_s),
        "closed_loop_sent": len(closed),
        "closed_loop_p50_ms": _finite(median(s.latency for s in closed) * 1e3),
        "http_overhead_ms": _overhead_ms(closed, inproc_s),
        "http_rps": sum(1 for s in closed if s.ok) / phases["closed_s"],
    }


def _sent_duplicates(phases: dict, pool: list[dict]) -> float:
    seen, repeats, total = set(), 0, 0
    for sent in phases["open"] + phases["closed"]:
        message = pool[sent.index].get("log_message")
        if message is None:
            continue
        total += 1
        repeats += message in seen
        seen.add(message)
    return repeats / total if total else 0.0


WORKLOADS = {"train": train, "batch": batch, "serve": serve}
