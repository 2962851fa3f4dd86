"""In-memory span tracer installed around the calls into each aisoc module.

The tracer never edits the package: ``install`` replaces a function with a
timing wrapper on every loaded ``aisoc`` module that holds a reference to
it (so ``aisoc.pipeline.split`` and ``aisoc.cli.split`` are both wrapped),
and ``uninstall`` puts the originals back. Each thread appends its spans
(name, parent, start, end) to its own compact arrays; a span's parent is
the span open on the same thread when it started, and the root span of a
tree identifies the operation or request it belongs to. Self time is a
span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import threading
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager


class _Buffer:
    __slots__ = ("names", "parents", "starts", "ends", "stack")

    def __init__(self):
        self.names = array("l")
        self.parents = array("l")
        self.starts = array("q")
        self.ends = array("q")
        self.stack: list[int] = []


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[_Buffer] = []
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.gauges: dict[str, float] = {}

    # -- recording ---------------------------------------------------------
    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> tuple[_Buffer, int]:
        buf = self._buffer()
        idx = len(buf.names)
        buf.names.append(nid)
        buf.parents.append(buf.stack[-1] if buf.stack else -1)
        buf.starts.append(self._clock())
        buf.ends.append(-1)
        buf.stack.append(idx)
        return buf, idx

    def _close(self, buf: _Buffer, idx: int) -> None:
        buf.ends[idx] = self._clock()
        buf.stack.pop()

    @contextmanager
    def span(self, name: str):
        buf, idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(buf, idx)

    def wrap(self, fn, name: str, on_result=None):
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf, idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(buf, idx)
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def count(self, key: str, n: float = 1) -> None:
        with self._lock:
            self.counters[key] += n

    # -- installation ------------------------------------------------------
    def install(self, targets) -> None:
        """Wrap each ``(module, attribute, span, hook)`` target in place.

        ``attribute`` may name a class method (``"Scorer.score_request"``).
        A plain function is re-bound on every loaded aisoc module that
        refers to the same object, so each call site goes through the span.
        """
        for module_name, attr, span_name, hook in targets:
            module = sys.modules.get(module_name)
            if module is None:  # never imported by this process: nothing calls it
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self.wrap(original, span_name, hook))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(original, span_name, hook)
            for mod in [m for name, m in sys.modules.items()
                        if name == "aisoc" or name.startswith("aisoc.")]:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)

    def install_json_proxy(self, module_names, span_name: str) -> None:
        """Trace ``json.loads``/``json.dumps`` as seen by the named modules."""
        import json

        proxy = _JsonProxy(self.wrap(json.loads, span_name), self.wrap(json.dumps, span_name))
        for module_name in module_names:
            if module_name in sys.modules:
                self._set(sys.modules[module_name], "json", proxy)

    def _set(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------
    def table(self, by_root: bool = False) -> dict:
        """Per span name: calls, inclusive and self seconds, call durations (ns).

        With ``by_root``, one such table per root span name (the operation
        or request a span belongs to).
        """
        out: dict = {}
        with self._lock:
            buffers = list(self._buffers)
        for buf in buffers:
            n = len(buf.names)
            child = [0] * n
            root = list(range(n))
            for i in range(n):  # a parent always precedes its children
                p = buf.parents[i]
                if p >= 0:
                    root[i] = root[p]
                    if buf.ends[i] >= 0:
                        child[p] += buf.ends[i] - buf.starts[i]
            for i in range(n):
                if buf.ends[i] < 0:  # still open: a thread cut off mid-call
                    continue
                dur = buf.ends[i] - buf.starts[i]
                rows = out.setdefault(self._names[buf.names[root[i]]], {}) if by_root else out
                row = rows.setdefault(self._names[buf.names[i]], {
                    "calls": 0, "total_s": 0.0, "self_s": 0.0, "durations_ns": []})
                row["calls"] += 1
                row["total_s"] += dur / 1e9
                row["self_s"] += (dur - child[i]) / 1e9
                row["durations_ns"].append(dur)
        return out


class _JsonProxy:
    """Stands in for the ``json`` module with traced ``loads``/``dumps``."""

    def __init__(self, loads, dumps):
        self.loads = loads
        self.dumps = dumps

    def __getattr__(self, name):
        import json

        return getattr(json, name)


def forest_nodes(forest) -> int:
    total = 0
    for tree in forest.trees:
        stack = [tree]
        while stack:
            node = stack.pop()
            total += 1
            if not node.is_leaf:
                stack.extend((node.left, node.right))
    return total


def _on_dedup(tracer, args, result):
    tracer.count("corpus.dedup_in", len(args[0]))
    tracer.count("corpus.dedup_out", len(result))


def _on_logistic(tracer, args, result):
    tracer.count("learn.logistic_trains")
    tracer.count("learn.logistic_iterations", result.training_meta["iterations"])


def _on_forest(tracer, args, result):
    tracer.gauges["learn.forest_nodes"] = forest_nodes(result)


def _on_grid(tracer, args, result):
    tracer.count("fusion.grid_cells", len(args[2]) * len(args[3]))


def _on_save(tracer, args, result):
    tracer.gauges["service.artifact_bytes"] = os.path.getsize(args[1])


def _on_load(tracer, args, result):
    tracer.gauges["service.artifact_bytes"] = os.path.getsize(args[0])
    if result.forest is not None:
        tracer.gauges["learn.forest_nodes"] = forest_nodes(result.forest)


# (module, attribute, span name, result hook): the boundary of each layer.
TARGETS = (
    ("aisoc.corpus.generate", "generate_corpus", "corpus.generate", None),
    ("aisoc.corpus.generate", "generate_malware", "corpus.generate", None),
    ("aisoc.corpus.dedup", "dedup_near_identical", "corpus.dedup", _on_dedup),
    ("aisoc.corpus.splits", "split", "corpus.split", None),
    ("aisoc.corpus.augment", "augment", "corpus.augment", None),
    ("aisoc.corpus.loaders", "load_log_ndjson", "corpus.loaders", None),
    ("aisoc.corpus.loaders", "load_malware_csv", "corpus.loaders", None),
    ("aisoc.corpus.loaders", "write_log_ndjson", "corpus.loaders", None),
    ("aisoc.corpus.loaders", "write_malware_csv", "corpus.loaders", None),
    ("aisoc.features", "fit_vocabulary", "features.fit_vocabulary", None),
    ("aisoc.features", "transform_text", "features.transform_text", None),
    ("aisoc.features", "fit_standardizer", "features.standardize", None),
    ("aisoc.features", "transform_dense", "features.standardize", None),
    ("aisoc.learn.logistic", "train_logistic", "learn.logistic_train", _on_logistic),
    ("aisoc.learn.logistic", "score_logistic", "learn.score_logistic", None),
    ("aisoc.learn.forest", "train_forest", "learn.forest_train", _on_forest),
    ("aisoc.learn.forest", "score_forest", "learn.score_forest", None),
    ("aisoc.calibrate", "fit_calibrator", "calibrate.fit", None),
    ("aisoc.calibrate", "apply", "calibrate.apply", None),
    ("aisoc.fusion", "tune_thresholds", "fusion.tune", None),
    ("aisoc.fusion", "macro_f1_grid", "fusion.grid", _on_grid),
    ("aisoc.fusion", "fuse_scores", "fusion.fuse", None),
    ("aisoc.evaluate", "build_manifest", "evaluate.manifest", None),
    ("aisoc.evaluate", "read_manifest", "evaluate.manifest", None),
    ("aisoc.evaluate", "write_manifest", "evaluate.manifest", None),
    ("aisoc.evaluate", "run_baselines", "evaluate.run_baselines", None),
    ("aisoc.metrics", "classification_report", "metrics.report", None),
    ("aisoc.metrics", "roc_auc", "metrics.report", None),
    ("aisoc.metrics", "pr_auc", "metrics.report", None),
    ("aisoc.pipeline", "run_experiment", "pipeline.run_experiment", None),
    ("aisoc.service.artifact", "save_artifact", "service.artifact_save", _on_save),
    ("aisoc.service.artifact", "load_artifact", "service.artifact_load", _on_load),
    ("aisoc.service.artifact", "ModelArtifact.to_scorer", "service.to_scorer", None),
    ("aisoc.service.scorer", "Scorer.score_request", "service.score_request", None),
    ("aisoc.service.batch", "score_batch", "service.score_batch", None),
    ("aisoc.service.http_api", "_Handler.do_POST", "service.http_handler", None),
    ("aisoc.cli", "main", "cli.main", None),
)
JSON_MODULES = ("aisoc.service.batch", "aisoc.service.http_api")


def install_all(tracer: Tracer) -> None:
    tracer.install(TARGETS)
    tracer.install_json_proxy(JSON_MODULES, "service.json_codec")


def _reduced(table: dict) -> dict:
    out = {}
    for name, row in sorted(table.items()):
        row["median_call_us"] = statistics.median(row.pop("durations_ns")) / 1e3
        out[name] = row
    return out


def summary(tracer: Tracer) -> dict:
    """JSON-ready span tables (durations reduced to a median) plus counters."""
    return {"spans": _reduced(tracer.table()),
            "by_root": {root: _reduced(t) for root, t in tracer.table(by_root=True).items()},
            "counters": dict(tracer.counters), "gauges": dict(tracer.gauges)}


def merge(summaries: list[dict]) -> dict:
    """One summary for several traced processes.

    Calls and times add up, ``median_call_us`` becomes the median of the
    per-process medians, counters add up and a gauge keeps its largest
    value (the CLI's 100-tree forest over the pipeline's smaller one).
    """
    def merge_tables(tables):
        out: dict = {}
        for table in tables:
            for name, row in table.items():
                acc = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                            "medians": []})
                for key in ("calls", "total_s", "self_s"):
                    acc[key] += row[key]
                acc["medians"].append(row["median_call_us"])
        for row in out.values():
            row["median_call_us"] = statistics.median(row.pop("medians"))
        return dict(sorted(out.items()))

    roots = sorted({root for s in summaries for root in s["by_root"]})
    counters: dict[str, float] = defaultdict(float)
    gauges: dict[str, float] = {}
    for s in summaries:
        for key, value in s["counters"].items():
            counters[key] += value
        for key, value in s["gauges"].items():
            gauges[key] = max(value, gauges.get(key, value))
    return {"spans": merge_tables([s["spans"] for s in summaries]),
            "by_root": {root: merge_tables([s["by_root"][root] for s in summaries
                                            if root in s["by_root"]]) for root in roots},
            "counters": dict(counters), "gauges": gauges}
