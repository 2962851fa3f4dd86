"""Self-tests for the benchmark: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from perfbench import inputs, spans, stats, workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def scratch():
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".perfbench"))
    yield path
    shutil.rmtree(path, ignore_errors=True)


# -- percentiles -------------------------------------------------------------
def test_percentile_needs_ten_samples_beyond():
    values = list(range(1, 1001))
    assert stats.percentile(values, 0.99) == 990
    with pytest.raises(ValueError):
        stats.percentile(values[:999], 0.99)
    assert stats.percentile(list(range(1, 201)), 0.95) == 190
    with pytest.raises(ValueError):
        stats.percentile(list(range(1, 200)), 0.95)


def test_tail_picks_highest_supported_level():
    assert stats.tail(list(range(1000))) == (0.99, 989.0)
    assert stats.tail(list(range(200)))[0] == 0.95
    assert stats.tail(list(range(100)))[0] == 0.9
    assert stats.tail(list(range(99))) is None


def test_failed_requests_exceed_every_limit():
    latencies = [0.001] * 300 + [math.inf] * 20
    assert stats.tail(latencies) == (0.95, math.inf)
    assert stats.median(latencies) == 0.001


def test_quartile_spread_is_share_of_median():
    assert stats.quartile_spread([10.0] * 10) == 0.0
    assert stats.quartile_spread([8, 9, 10, 11, 12]) == pytest.approx((11.5 - 8.5) / 10)


# -- fail accounting -----------------------------------------------------------
def test_fail_count():
    fails = stats.FailCount(keep=2)
    fails.ok(3)
    assert fails.check(False, "first") is False
    fails.fail("second", 4)
    fails.fail("third")
    assert (fails.attempted, fails.failed) == (9, 6)
    assert fails.reasons == ["first", "second"]
    assert fails.ratio == pytest.approx(6 / 9)
    other = stats.FailCount()
    other.ok()
    fails.merge(other)
    assert (fails.attempted, fails.failed) == (10, 6)
    assert stats.FailCount().ratio == 0.0


# -- spans -------------------------------------------------------------------
def test_self_time_from_nested_spans():
    ticks = iter([0, 1, 2, 3, 4, 5, 9, 10])
    tracer = spans.Tracer(clock=lambda: next(ticks) * 10**9)
    with tracer.span("a"):
        with tracer.span("b"):
            with tracer.span("c"):
                pass
        with tracer.span("d"):
            pass
    table = tracer.table()
    assert {k: v["self_s"] for k, v in table.items()} == {"a": 3, "b": 2, "c": 1, "d": 4}
    assert {k: v["total_s"] for k, v in table.items()} == {"a": 10, "b": 3, "c": 1, "d": 4}
    assert set(tracer.table(by_root=True)) == {"a"}
    assert tracer.table(by_root=True)["a"]["c"]["self_s"] == 1


def test_spans_on_other_threads_are_roots():
    import threading

    tracer = spans.Tracer()

    def work():
        with tracer.span("inner"):
            time.sleep(0.01)

    with tracer.span("outer"):
        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=5)
    assert not worker.is_alive()
    table = tracer.table()
    assert table["inner"]["calls"] == 1
    assert table["outer"]["self_s"] == table["outer"]["total_s"]
    assert set(tracer.table(by_root=True)) == {"outer", "inner"}


def test_install_wraps_every_reference_and_uninstall_restores():
    import aisoc
    from aisoc.corpus import splits

    original = splits.split
    tracer = spans.Tracer()
    spans.install_all(tracer)
    try:
        assert aisoc.pipeline.split is aisoc.corpus.split is splits.split
        assert splits.split is not original
        records = [r for r in aisoc.corpus.generate_corpus(aisoc.corpus.ScenarioConfig(
            benign_hosts=1, attack_sessions=1, duration_s=60.0, seed=1))]
        aisoc.pipeline.split(records, aisoc.corpus.SplitSpec(kind=aisoc.corpus.SplitKind.TIME_ORDERED))
    finally:
        tracer.uninstall()
    assert aisoc.pipeline.split is original and splits.split is original
    table = tracer.table()
    assert table["corpus.split"]["calls"] == 1
    assert table["corpus.generate"]["calls"] == 1


def test_merge_adds_processes_and_keeps_largest_gauge():
    def one(calls, total, median_us, nodes):
        row = {"calls": calls, "total_s": total, "self_s": total / 2, "median_call_us": median_us}
        return {"spans": {"a": dict(row)}, "by_root": {"op.x": {"a": dict(row)}},
                "counters": {"n": calls}, "gauges": {"learn.forest_nodes": nodes}}

    merged = spans.merge([one(2, 1.0, 10.0, 50), one(4, 3.0, 30.0, 900), one(1, 1.0, 20.0, 70)])
    assert merged["spans"]["a"] == {"calls": 7, "total_s": 5.0, "self_s": 2.5,
                                    "median_call_us": 20.0}
    assert merged["by_root"]["op.x"]["a"]["calls"] == 7
    assert merged["counters"] == {"n": 7}
    assert merged["gauges"] == {"learn.forest_nodes": 900}


# -- correctness gates -------------------------------------------------------
def test_batch_check_catches_changed_score_and_wrong_line(scratch):
    run = workloads.Run(root=ROOT, seed=3, seconds=0.1, trace=False, workdir=scratch,
                        sizes=inputs.TINY)
    experiment, _, artifact = workloads._scoring_inputs(run)
    lines, requests = inputs.batch_lines(experiment, 3, inputs.TINY)
    requests[0] = {"log_message": "sshd[1]: Accepted password for bob", "entity_id": "x"}
    requests[1] = None
    from aisoc.service import score_lines

    lines[0], lines[1] = json.dumps(requests[0]), "{not json"
    results = score_lines(artifact.to_scorer(), lines)
    good = "\n".join(json.dumps(r) for r in results) + "\n"
    scorer = artifact.to_scorer()
    assert workloads.check_batch_output(good, requests, scorer) == (0, "")
    changed = dict(results[0], s_l=results[0]["s_l"] + 1e-12)
    bad_score = "\n".join(json.dumps(r) for r in [changed] + results[1:]) + "\n"
    assert workloads.check_batch_output(bad_score, requests, scorer)[0] == 1
    moved = dict(results[1], line=7)
    bad_line = "\n".join(json.dumps(r) for r in [results[0], moved] + results[2:]) + "\n"
    assert workloads.check_batch_output(bad_line, requests, scorer)[0] == 1
    assert workloads.check_batch_output(good + "{}\n", requests, scorer)[0] == len(requests)


def test_crashing_operation_is_a_program_error(scratch):
    root = scratch / "broken"
    shutil.copytree(ROOT / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    batch_py = root / "src" / "aisoc" / "service" / "batch.py"
    batch_py.write_text(batch_py.read_text() + "\n\ndef score_batch(*args, **kwargs):\n"
                        "    raise RuntimeError('injected failure')\n")
    (root / "work").mkdir()
    run = workloads.Run(root=root, seed=3, seconds=0.1, trace=False, workdir=root / "work",
                        sizes=inputs.TINY)
    with pytest.raises(workloads.ProgramError, match="injected failure"):
        workloads.batch(run)


def test_server_stops_on_sigint_when_the_parent_ignores_it(scratch):
    import signal

    run = workloads.Run(root=ROOT, seed=3, seconds=0.1, trace=False, workdir=scratch,
                        sizes=inputs.TINY)
    _, path, _ = workloads._scoring_inputs(run)
    previous = signal.signal(signal.SIGINT, signal.SIG_IGN)  # as in a background shell job
    try:
        server = workloads.Server(run, path, traced=False)
    finally:
        signal.signal(signal.SIGINT, previous)
    assert server.stop().ru_maxrss > 0


def test_program_error_prints_a_failed_result(monkeypatch, capsys):
    from perfbench import run as run_py

    def broken(run):
        raise workloads.ProgramError("server did not start")

    monkeypatch.setitem(workloads.WORKLOADS, "serve", broken)
    code = run_py.main(["--workload", "serve", "--seed", "1", "--seconds", "1", "--trace", "0"])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert code == 1
    assert json.loads(last) == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def test_manifest_requests_are_fused_and_seeded(scratch):
    run = workloads.Run(root=ROOT, seed=3, seconds=0.1, trace=False, workdir=scratch,
                        sizes=inputs.TINY)
    experiment, _, artifact = workloads._scoring_inputs(run)
    lines, requests = inputs.batch_lines(experiment, 3, inputs.TINY)
    assert len(lines) == inputs.TINY.batch_lines
    props = inputs.request_properties(requests, artifact.vocabulary)
    assert set(props["modality_mix"]) <= {"fused", "malformed"}
    assert inputs.batch_lines(experiment, 3, inputs.TINY)[0] == lines
    assert inputs.batch_lines(experiment, 4, inputs.TINY)[0] != lines
    costs = inputs.modality_cost_us(artifact.to_scorer(), requests, limit=5)
    assert set(costs) == {"fused", "logs_only", "malware_only"}
    assert all(v > 0 for v in costs.values())


# -- BENCHMARK.json ------------------------------------------------------------
def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(workloads.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(scratch):
    shutil.copy(ROOT / "BENCHMARK.json", scratch / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", scratch / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "batch",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=scratch, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- smoke runs ----------------------------------------------------------------
@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run(name, trace, scratch):
    run = workloads.Run(root=ROOT, seed=2, seconds=0.5, trace=trace, workdir=scratch,
                        sizes=inputs.TINY)
    outcome = workloads.WORKLOADS[name](run)
    assert outcome.fails.failed == 0, outcome.fails.reasons
    assert outcome.fails.attempted > 0
    table = workloads.PER_LAYER if trace else workloads.END_TO_END
    assert set(outcome.metrics) == {row[0] for row in table}
    assert all(math.isfinite(v) for v in outcome.metrics.values())
    if not trace:
        assert all(v > 0 for v in outcome.metrics.values())
    assert outcome.info["sha256"]["artifact"]
