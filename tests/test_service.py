import dataclasses
import http.client
import itertools
import json
import math
import re
import select
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aisoc.errors import ArtifactError, LoadError
from aisoc.features import transform_dense
from aisoc.fusion import fuse_scores
from aisoc.pipeline import ExperimentConfig
from aisoc.service import (ModelArtifact, RequestError, Scorer, ScoringService, save_artifact,
                           score_lines, serve)
from aisoc.service import artifact as artifact_module
from aisoc.service import batch as batch_module
from aisoc.service.http_api import MAX_BODY_BYTES, _Handler
from aisoc.service.scorer import check_feature_row

CLIENT_TIMEOUT_S = 5.0  # every client socket: a regression fails instead of hanging
SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="module")
def service(demo_result):
    with serve(demo_result.artifact, ("127.0.0.1", 0)) as svc:
        yield svc


def _post(url, payload) -> tuple[int, dict]:
    request = urllib.request.Request(url, data=json.dumps(payload).encode("utf-8"),
                                     headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=CLIENT_TIMEOUT_S) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _get(url) -> dict:
    with urllib.request.urlopen(url, timeout=CLIENT_TIMEOUT_S) as response:
        return json.loads(response.read())


class TestHttpEndpoints:
    def test_health(self, service, demo_result):
        payload = _get(service.url + "/v1/health")
        assert payload == {"status": "ok",
                           "artifact_version": demo_result.artifact.version}

    def test_model_info(self, service, demo_result):
        payload = _get(service.url + "/v1/model-info")
        assert payload["format_version"] == "2"
        assert payload["thresholds"] == {"t_m": demo_result.fusion_config.t_m,
                                         "t_l": demo_result.fusion_config.t_l}
        assert set(payload["calibrators"]) == {"malware", "logs"}
        assert payload["fingerprints"] == demo_result.artifact.fingerprints

    def test_fused_scoring(self, service, demo_result):
        item = demo_result.test_items[0]
        status, payload = _post(service.url + "/v1/score", {
            "log_message": item.log.message,
            "malware_features": list(item.malware.features),
            "entity_id": item.entity_id,
        })
        assert status == 200
        assert payload["modality"] == "fused"
        assert payload["entity_id"] == item.entity_id
        cfg = demo_result.fusion_config
        expected = fuse_scores(payload["s_m"], payload["s_l"], cfg.t_m, cfg.t_l)
        assert payload["label"] == expected.name
        assert payload["artifact_version"] == demo_result.artifact.version

    def test_logs_only_scoring_treats_missing_malware_as_zero(self, service, demo_result):
        message = demo_result.test_items[0].log.message
        status, payload = _post(service.url + "/v1/score", {"log_message": message})
        assert status == 200
        assert payload["modality"] == "logs_only"
        assert "s_m" not in payload
        assert payload["label"] in ("NORMAL", "SUSPICIOUS")  # s_m=0 cannot reach HIGH

    def test_malware_only_scoring(self, service, demo_result):
        features = list(demo_result.test_items[0].malware.features)
        status, payload = _post(service.url + "/v1/score",
                                {"malware_features": features})
        assert status == 200
        assert payload["modality"] == "malware_only"
        assert "s_l" not in payload

    @pytest.mark.parametrize("bad_request", [
        {},
        {"log_message": 7},
        {"malware_features": "not a list"},
        {"malware_features": [1.0, 2.0], "extra": 1},
        {"unknown_field": True},
    ])
    def test_malformed_requests_get_400(self, service, bad_request):
        status, payload = _post(service.url + "/v1/score", bad_request)
        assert status == 400
        assert "error" in payload

    def test_wrong_dimension_features_get_400(self, service, demo_result):
        status, payload = _post(service.url + "/v1/score", {"malware_features": [1.0]})
        assert status == 400
        assert "error" in payload

    def test_invalid_json_body_gets_400(self, service):
        # not JSON; not UTF-8; an encoded surrogate, which strict UTF-8 refuses
        for body in (b"{truncated", b"\xff\xfe", b'"\xed\xa0\x80"'):
            request = urllib.request.Request(service.url + "/v1/score", data=body,
                                             headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=CLIENT_TIMEOUT_S)
            assert excinfo.value.code == 400

    def test_unknown_path_404(self, service):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(service.url + "/v1/nope", timeout=CLIENT_TIMEOUT_S)
        assert excinfo.value.code == 404

    def test_request_order_does_not_matter(self, service, demo_result):
        item = demo_result.test_items[3]
        request = {"log_message": item.log.message,
                   "malware_features": list(item.malware.features)}
        _, first = _post(service.url + "/v1/score", request)
        for other in demo_result.test_items[4:10]:
            _post(service.url + "/v1/score", {"log_message": other.log.message})
        _, again = _post(service.url + "/v1/score", request)
        assert first == again


def _raw_request(service, head: bytes, body: bytes = b"",
                 half_close: bool = False) -> tuple[int, dict] | None:
    """Send raw bytes on a fresh socket; (status, JSON body), or None if the
    server closed the connection without a reply."""
    with socket.create_connection(service.address, timeout=CLIENT_TIMEOUT_S) as sock:
        sock.sendall(head + body)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        response = http.client.HTTPResponse(sock)
        try:
            response.begin()
        except http.client.RemoteDisconnected:
            return None
        return response.status, json.loads(response.read())


def _post_head(length: str | None, extra: str = "") -> bytes:
    lines = ["POST /v1/score HTTP/1.1", "Host: test", "Content-Type: application/json"]
    if length is not None:
        lines.append(f"Content-Length: {length}")
    return ("\r\n".join(lines) + "\r\n" + extra + "\r\n").encode("ascii")


class TestHttpTransport:
    def test_keep_alive_requests_do_not_stall(self, service, demo_scorer, demo_result):
        requests = [{"log_message": item.log.message,
                     "malware_features": list(item.malware.features)}
                    for item in demo_result.test_items[:100]]
        host, port = service.address
        conn = http.client.HTTPConnection(host, port, timeout=CLIENT_TIMEOUT_S)
        try:
            start = time.perf_counter()
            replies = []
            for request in requests:
                conn.request("POST", "/v1/score", json.dumps(request),
                             {"Content-Type": "application/json"})
                response = conn.getresponse()
                replies.append((response.status, response.read()))
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
        # with a Nagle/delayed-ACK stall each reply waits ~40 ms: ~4 s in all
        assert elapsed < 1.0
        for request, (status, body) in zip(requests, replies):
            assert status == 200
            expected = json.dumps(demo_scorer.score_request(request), ensure_ascii=False)
            assert body == expected.encode("utf-8")

    def test_expect_100_continue_is_answered_before_the_body(self, service, demo_result):
        body = json.dumps({"log_message": demo_result.test_items[0].log.message}).encode()
        head = _post_head(str(len(body)), "Expect: 100-continue\r\n")
        with socket.create_connection(service.address, timeout=CLIENT_TIMEOUT_S) as sock:
            sock.sendall(head)
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                chunk = sock.recv(1)
                assert chunk, "connection closed before 100 Continue"
                interim += chunk
            assert interim.startswith(b"HTTP/1.1 100 ")
            sock.sendall(body)
            response = http.client.HTTPResponse(sock)
            response.begin()
            assert response.status == 200
            assert json.loads(response.read())["modality"] == "logs_only"

    @pytest.mark.parametrize("length,status", [("5000000", 413), (str(MAX_BODY_BYTES + 1), 413),
                                               pytest.param("9" * 5000, 413, id="9x5000-413"),
                                               ("-1", 400), ("abc", 400)])
    def test_expect_100_with_refused_length_gets_no_100(self, service, length, status):
        with socket.create_connection(service.address, timeout=CLIENT_TIMEOUT_S) as sock:
            sock.sendall(_post_head(length, "Expect: 100-continue\r\n"))
            reply = b""
            while chunk := sock.recv(4096):  # the refusal closes the connection
                reply += chunk
        assert reply.startswith(f"HTTP/1.1 {status} ".encode())
        assert b"HTTP/1.1 100" not in reply

    @pytest.mark.parametrize("length", ["-1", "abc", "1_0", "", None])
    def test_bad_content_length_gets_400(self, service, length):
        # no body: the headers alone decide, and no unread bytes turn the close into a reset
        status, payload = _raw_request(service, _post_head(length))
        assert status == 400
        assert "Content-Length" in payload["error"]

    def test_body_over_cap_gets_413_before_it_is_sent(self, service):
        status, payload = _raw_request(service, _post_head(str(MAX_BODY_BYTES + 1)))
        assert status == 413
        assert "error" in payload

    # past int()'s 4300-digit limit; leading zeros count as their value
    @pytest.mark.parametrize("length,status", [
        pytest.param("9" * 5000, 413, id="9x5000-413"),
        pytest.param("0" * 5000 + str(MAX_BODY_BYTES + 1), 413, id="0x5000+over_cap-413"),
        pytest.param("0" * 5000, 400, id="0x5000-400"),  # an empty body is not JSON
    ])
    def test_length_of_5000_digits_gets_a_typed_reply(self, service, capsys, length, status):
        reply = _raw_request(service, _post_head(length))
        assert reply is not None and reply[0] == status
        assert len(reply[1]["error"]) < 100
        assert "Traceback" not in capsys.readouterr().err

    # a refusal quotes at most 20 characters of the value it refuses, then its length
    @pytest.mark.parametrize("head,status", [
        pytest.param(_post_head("a" * 60_000), 400, id="content-length-a60000"),
        pytest.param(b"GET /" + b"x" * 59_999 + b" HTTP/1.1\r\nHost: test\r\n\r\n", 404,
                     id="get-path-60000"),
        pytest.param(b"POST /" + b"x" * 59_999 + b" HTTP/1.1\r\nHost: test\r\n"
                     b"Content-Length: 0\r\n\r\n", 404, id="post-path-60000"),
    ])
    def test_refusal_of_a_long_value_is_short(self, service, head, status):
        with socket.create_connection(service.address, timeout=CLIENT_TIMEOUT_S) as sock:
            sock.sendall(head)
            sock.shutdown(socket.SHUT_WR)
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        assert reply.startswith(f"HTTP/1.1 {status} ".encode())
        assert len(reply) < 300, reply
        assert reply.endswith(b'\xe2\x80\xa6 (60000 chars)"}'), reply

    def test_half_closed_short_body_gets_400(self, service):
        status, payload = _raw_request(service, _post_head("100"), b'{"log_', half_close=True)
        assert status == 400
        assert "ended after 6 of 100" in payload["error"]

    def test_silent_short_body_frees_the_handler(self, service, monkeypatch):
        assert _Handler.timeout is not None and _Handler.timeout > 0
        monkeypatch.setattr(_Handler, "timeout", 0.5)
        start = time.perf_counter()
        assert _raw_request(service, _post_head("100"), b'{"log_') is None
        assert time.perf_counter() - start < CLIENT_TIMEOUT_S

    def test_unexpected_exception_in_post_gets_500(self, service, demo_result, monkeypatch):
        def boom(self, request):
            raise RuntimeError("injected")

        monkeypatch.setattr(Scorer, "score_request", boom)
        status, payload = _post(service.url + "/v1/score",
                                {"log_message": demo_result.test_items[0].log.message})
        assert status == 500
        assert payload == {"error": "internal error: RuntimeError"}

    def test_unexpected_exception_in_get_gets_500(self, service, monkeypatch):
        monkeypatch.setattr(service, "artifact", None)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(service.url + "/v1/health", timeout=CLIENT_TIMEOUT_S)
        assert excinfo.value.code == 500
        assert "error" in json.loads(excinfo.value.read())


class TestServiceLifecycle:
    def test_partial_artifact_refused_at_startup(self, demo_result):
        partial = ModelArtifact(vocabulary=demo_result.artifact.vocabulary, created_at=0)
        with pytest.raises(ArtifactError, match="PARTIAL"):
            ScoringService(partial, port=0)

    def test_port_is_freed_when_the_with_block_ends(self, demo_result):
        with serve(demo_result.artifact, ("127.0.0.1", 0)) as service:
            assert _get(service.url + "/v1/health")["status"] == "ok"
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(service.address, timeout=CLIENT_TIMEOUT_S)

    def test_serve_command_stops_on_sigint_and_frees_the_port(self, demo_result, tmp_path):
        artifact = tmp_path / "artifact.json"
        save_artifact(demo_result.artifact, artifact)
        process = subprocess.Popen(
            [sys.executable, "-m", "aisoc", "serve", "--artifact", str(artifact),
             "--bind", "127.0.0.1:0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
        try:
            ready, _, _ = select.select([process.stdout], [], [], 30)
            assert ready, "no serving line within 30 s"
            line = process.stdout.readline()
            match = re.fullmatch(r"serving artifact \w+ on (http://([\d.]+):(\d+))\n", line)
            assert match, line
            url, address = match.group(1), (match.group(2), int(match.group(3)))
            with urllib.request.urlopen(url + "/v1/health", timeout=CLIENT_TIMEOUT_S) as reply:
                assert reply.status == 200
            process.send_signal(signal.SIGINT)
            assert process.wait(timeout=10) == 0, process.stderr.read()
        finally:
            process.kill()
            process.communicate()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(address, timeout=CLIENT_TIMEOUT_S)


class TestBatch:
    def test_empty_input(self, demo_scorer):
        assert score_lines(demo_scorer, []) == []

    def test_order_preserved_one_output_per_line(self, demo_scorer, demo_result):
        lines = [json.dumps({"log_message": item.log.message,
                             "entity_id": item.entity_id})
                 for item in demo_result.test_items[:12]]
        results = score_lines(demo_scorer, lines)
        assert len(results) == 12
        assert [r["entity_id"] for r in results] \
            == [item.entity_id for item in demo_result.test_items[:12]]

    def test_malformed_line_yields_error_object_in_place(self, demo_scorer):
        lines = ['{"log_message": "ok line"}', "{broken", '{"nope": 1}']
        results = score_lines(demo_scorer, lines)
        assert len(results) == 3
        assert "label" in results[0]
        assert results[1]["error"] and results[1]["line"] == 2
        assert results[2]["error"] and results[2]["line"] == 3

    def test_batch_equals_http(self, service, demo_scorer, demo_result):
        # each HTTP reply is the batch line, keys in order, then two fields
        requests, modalities = [], ("logs_only", "malware_only", "fused")
        for i, item in enumerate(demo_result.test_items[:30]):
            request = {"entity_id": item.entity_id}
            if i % 3 != 1:
                request["log_message"] = item.log.message
            if i % 3 != 0:
                request["malware_features"] = list(item.malware.features)
            requests.append(request)
        batch = score_lines(demo_scorer, [json.dumps(r) for r in requests])
        for i, (request, via_batch) in enumerate(zip(requests, batch)):
            assert via_batch["entity_id"] == request["entity_id"]
            _, via_http = _post(service.url + "/v1/score", request)
            expected = {**via_batch, "modality": modalities[i % 3],
                        "artifact_version": demo_result.artifact.version}
            assert list(via_http.items()) == list(expected.items())

    def test_score_batch_file_roundtrip(self, tmp_path, demo_scorer):
        from aisoc.service import score_batch
        src = tmp_path / "requests.ndjson"
        dst = tmp_path / "results.ndjson"
        src.write_text('{"log_message": "audit: execve /bin/bash -i pid=1 ppid=2 uid=0"}\n')
        results = score_batch(demo_scorer, src, dst)
        assert len(results) == 1
        on_disk = [json.loads(line) for line in dst.read_text().splitlines()]
        assert on_disk == results

    def test_unreadable_input_leaves_the_output_untouched(self, tmp_path, demo_scorer):
        from aisoc.service import score_batch
        dst = tmp_path / "results.ndjson"
        dst.write_text("previous\n")
        with pytest.raises(LoadError, match="cannot read batch input"):
            score_batch(demo_scorer, tmp_path / "missing.ndjson", dst)
        assert dst.read_text() == "previous\n"


def reference_score_lines(scorer, lines):
    """The line-at-a-time batch loop the block kernel replaced."""
    results = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            response = scorer.score_request(json.loads(line))
            results.append({k: response[k] for k in ("entity_id", "s_m", "s_l", "label")
                            if k in response})
        except (json.JSONDecodeError, RequestError) as exc:
            results.append({"error": str(exc), "line": lineno})
    return results


def malformed_lines(dim: int) -> list[str]:
    """One line of every malformed kind the request checks name."""
    return [
        '{"log_message": "cut sh',
        "[1, 2, 3]",
        '"just a string"',
        json.dumps({"log_message": "x y z", "priority": 1}),
        json.dumps({"entity_id": "no-modality"}),
        json.dumps({"log_message": None, "malware_features": None}),
        json.dumps({"log_message": 17}),
        json.dumps({"malware_features": "not a list"}),
        json.dumps({"malware_features": [True] * dim}),
        json.dumps({"malware_features": [0.5] * (dim - 1) + ["x"]}),
        '{"malware_features": [' + ", ".join(["NaN"] * dim) + "]}",
        '{"malware_features": [' + ", ".join(["Infinity"] * dim) + "]}",
        json.dumps({"malware_features": [0.5] * (dim + 1)}),
        json.dumps({"malware_features": []}),
        json.dumps({"log_message": "ok", "entity_id": 5}),
    ]


class TestBlockBatch:
    def test_mixed_file_equals_per_line_score_request(self, demo_scorer, demo_result):
        block = batch_module.BLOCK_LINES
        items = demo_result.test_items
        dim = len(items[0].malware.features)
        bad = malformed_lines(dim)
        valid = []
        for i in range(3 * block):
            item = items[i % len(items)]
            request = {"entity_id": f"r{i}", "log_message": item.log.message,
                       "malware_features": list(item.malware.features)}
            if i % 5 == 1:
                del request["malware_features"]
            elif i % 5 == 2:
                del request["log_message"]
            elif i % 7 == 3:
                del request["entity_id"]
            valid.append(json.dumps(request))
        lines = valid[:block - 1]
        lines += [bad[0], bad[1]]                   # the last line of block 1, first of block 2
        lines += valid[block:2 * block - 3]
        lines += ["", bad[2]]                       # the last two lines of block 2
        lines += ["   "] + [bad[k % len(bad)] for k in range(block)]  # block 3: no request
        lines += valid[2 * block:]
        assert len(lines) > 3 * block
        got = score_lines(demo_scorer, lines)
        assert got == reference_score_lines(demo_scorer, lines)
        assert sum("error" in r for r in got) == block + 3
        assert {r["line"] for r in got if "error" in r} >= {block, block + 1, 3 * block}
        errors = {r["error"] for r in got if "error" in r}
        assert any("standardizer expects" in e for e in errors)

    @pytest.mark.parametrize("n", [0, 1, 2, 127, 128, 129, 257, batch_module.BLOCK_LINES - 1,
                                   batch_module.BLOCK_LINES, batch_module.BLOCK_LINES + 1,
                                   2 * batch_module.BLOCK_LINES + 1])
    def test_every_block_size_edge(self, demo_scorer, demo_result, n):
        lines = [json.dumps({"log_message": item.log.message,
                             "malware_features": list(item.malware.features)})
                 for item in itertools.islice(itertools.cycle(demo_result.test_items), n)]
        assert len(lines) == n
        assert score_lines(demo_scorer, lines) == reference_score_lines(demo_scorer, lines)

    def test_integer_beyond_float_range_is_an_error_object(self, demo_scorer, demo_result):
        dim = len(demo_result.test_items[0].malware.features)
        huge = '{"malware_features": [' + ", ".join(["1" * 400] * dim) + "]}"
        assert score_lines(demo_scorer, [huge]) == [
            {"error": "malware_features must be finite", "line": 1}]
        with pytest.raises(RequestError, match="finite"):
            demo_scorer.score_request(json.loads(huge))

    def test_too_deeply_nested_line_is_an_error_object(self, demo_scorer, demo_result):
        message = demo_result.test_items[0].log.message
        lines = ["[" * 100_000 + "]" * 100_000, json.dumps({"log_message": message})]
        results = score_lines(demo_scorer, lines)
        assert results[0]["line"] == 1 and "recursion" in results[0]["error"]
        assert results[1]["s_l"] == demo_scorer.score_log(message)


def _request_lines(requests) -> list[str]:
    return [json.dumps(r, ensure_ascii=False) for r in requests]


class TestDistinctInputs:
    """A block scores each distinct message and feature row once; every reply
    must still equal the per-line ``score_request`` reply bit for bit."""

    def test_a_row_as_ints_floats_and_signed_zeros(self, demo_result):
        base = demo_result.artifact.standardizer
        scorer = dataclasses.replace(demo_result.artifact, standardizer=dataclasses.replace(
            base, mean=np.zeros_like(base.mean)))
        live = np.flatnonzero(base.std != 0)[:2]  # features the forest sees unchanged
        integral = [round(v) for v in demo_result.test_items[0].malware.features]
        for i in live:
            integral[i] = 0
        negated = [-0.0 if v == 0 else float(v) for v in integral]
        assert np.signbit(transform_dense(negated, scorer.standardizer)[live]).all()

        def big(value):
            return [value if i == live[0] else v for i, v in enumerate(integral)]

        rows = [integral, [float(v) for v in integral], negated, integral, negated,
                big(2**53 + 1), big(2.0**53), big(2**53 + 1)]
        lines = _request_lines({"malware_features": row} for row in rows)
        assert score_lines(scorer, lines) == reference_score_lines(scorer, lines)
        first_negated = lines[2::-1]  # the row the kernel sees is the first one of its key
        assert score_lines(scorer, first_negated) == reference_score_lines(scorer, first_negated)

    def test_the_block_kernel_gets_each_distinct_input_once(self, demo_scorer, demo_result,
                                                            monkeypatch):
        block = batch_module.BLOCK_LINES
        items = demo_result.test_items[:7]
        requests = [{"log_message": items[i % 7].log.message,
                     "malware_features": list(items[i % 4].malware.features)}
                    for i in range(block + 20)]
        calls = {"score_log": [], "score_malware": []}
        for name in calls:
            def counting(self, inputs, kernel=getattr(Scorer, name), seen=calls[name]):
                seen.append(sorted(x if isinstance(x, str) else tuple(x) for x in inputs))
                return kernel(self, inputs)
            monkeypatch.setattr(Scorer, name, counting)
        score_lines(demo_scorer, _request_lines(requests))
        for name, field in (("score_log", "log_message"), ("score_malware", "malware_features")):
            keys = [r[field] if isinstance(r[field], str) else tuple(r[field]) for r in requests]
            assert calls[name] == [sorted(set(keys[:block])), sorted(set(keys[block:]))]


class TestHealthVersion:
    def test_health_reads_the_version_hashed_at_start(self, service, demo_result,
                                                      monkeypatch):
        expected = demo_result.artifact.version
        calls = []
        original = artifact_module._checksum

        def counting(chunks):
            calls.append(1)
            return original(chunks)

        monkeypatch.setattr(artifact_module, "_checksum", counting)
        for _ in range(3):
            assert _get(service.url + "/v1/health") == {"status": "ok",
                                                       "artifact_version": expected}
        assert calls == []


class TestNestedBody:
    def test_too_deeply_nested_body_gets_400(self, service):
        body = b"[" * 100_000 + b"]" * 100_000
        status, payload = _raw_request(service, _post_head(str(len(body))), body)
        assert status == 400
        assert "recursion" in payload["error"]


SURROGATE_REQUEST = {"entity_id": "\ud800x", "log_message": "hi"}


class TestInvalidUnicode:
    def test_lone_surrogate_entity_id_is_a_batch_error_line(self, tmp_path, demo_scorer):
        from aisoc.service import score_batch
        src, dst = tmp_path / "requests.ndjson", tmp_path / "results.ndjson"
        src.write_text('{"log_message": "hi"}\n' + json.dumps(SURROGATE_REQUEST) + "\n",
                       encoding="utf-8")
        results = score_batch(demo_scorer, src, dst)
        assert results[1] == {"error": "entity_id must be valid Unicode", "line": 2}
        assert [json.loads(line) for line in dst.read_text(encoding="utf-8").splitlines()] \
            == results

    def test_lone_surrogate_entity_id_gets_400(self, service):
        body = json.dumps(SURROGATE_REQUEST).encode("ascii")
        status, payload = _raw_request(service, _post_head(str(len(body))), body)
        assert status == 400
        assert payload == {"error": "entity_id must be valid Unicode"}


# Any code point, lone surrogates included: JSON escapes can produce them.
_ANY_TEXT = st.text(st.characters() | st.characters(categories=["Cs"]), max_size=12)
_NUMBERS = st.integers() | st.floats()
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | _NUMBERS | _ANY_TEXT,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_ANY_TEXT, kids, max_size=4),
    max_leaves=10)
_DIM = ExperimentConfig().malware_features
_REQUESTS = st.fixed_dictionaries({}, optional={
    "entity_id": _ANY_TEXT | _JSON_VALUES,
    "log_message": _ANY_TEXT | _JSON_VALUES,
    "malware_features": st.lists(_NUMBERS, min_size=_DIM, max_size=_DIM) | _JSON_VALUES,
})


def _encodes(obj) -> None:
    """Raise if ``obj`` cannot go out as the UTF-8 JSON both paths write."""
    json.dumps(obj, ensure_ascii=False).encode("utf-8")


class _Int(int):
    pass


class _Float(float):
    pass


@pytest.mark.parametrize("row, reason", [
    ([], None), ([1, -2.5, 0], None), ((1, 2.0), None), ([_Int(3), _Float(0.5)], None),
    ([True, 1.0], "malware_features must be an array of numbers"),
    ([1.0, "2"], "malware_features must be an array of numbers"),
    ([None], "malware_features must be an array of numbers"),
    ({"a": 1}, "malware_features must be an array of numbers"),
    ("12", "malware_features must be an array of numbers"),
    ([1.0, float("nan")], "malware_features must be finite"),
    ([float("-inf")], "malware_features must be finite"),
    ([10 ** 400], "malware_features must be finite"),
    ([_Int(10 ** 400)], "malware_features must be finite"),
])
def test_feature_row_rule(row, reason):
    if reason is None:
        check_feature_row(row)
    else:
        with pytest.raises(RequestError, match=f"^{reason}$"):
            check_feature_row(row)


def per_value_feature_row_rule(features) -> None:
    """``check_feature_row`` as it was before it checked each value type once: the reference."""
    if (not isinstance(features, (list, tuple))
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       for v in features)):
        raise RequestError("malware_features must be an array of numbers")
    try:
        finite = all(map(math.isfinite, features))
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise RequestError("malware_features must be finite")


class _List(list):
    pass


def _rule_outcome(rule, row) -> str | None:
    try:
        rule(row)
    except RequestError as exc:
        return str(exc)
    return None


_ROW_VALUES = st.one_of(
    st.integers(), st.floats(), st.booleans(), st.floats().map(np.float64),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64), st.booleans().map(np.bool_),
    st.integers().map(_Int), st.floats().map(_Float), st.text(max_size=2), st.none(),
    st.sampled_from([math.inf, -math.inf, math.nan, 10 ** 400, _Int(10 ** 400)]))
_ROW_CONTAINERS = st.sampled_from([list, tuple, _List, lambda values: dict(enumerate(values)),
                                   lambda values: "".join(map(str, values))])


@settings(max_examples=300, deadline=None)
@given(values=st.lists(_ROW_VALUES, max_size=8), container=_ROW_CONTAINERS)
def test_per_type_number_rule_equals_the_per_value_rule(values, container):
    row = container(values)
    assert _rule_outcome(check_feature_row, row) == _rule_outcome(per_value_feature_row_rule, row)


class TestRequestFuzz:
    @settings(max_examples=200, deadline=None)
    @given(request=_REQUESTS | _JSON_VALUES)
    @example(request=SURROGATE_REQUEST)
    def test_score_request_gives_request_error_or_encodable_reply(self, demo_scorer, request):
        try:
            reply = demo_scorer.score_request(request)
        except RequestError:
            return
        _encodes(reply)

    @settings(max_examples=100, deadline=None)
    @given(lines=st.lists(_REQUESTS.map(json.dumps) | _JSON_VALUES.map(json.dumps) | _ANY_TEXT,
                          max_size=5))
    @example(lines=[json.dumps(SURROGATE_REQUEST)])
    @example(lines=["1" * 5000, '{"log_message": "x", "entity_id": ' + "9" * 5000 + "}"])
    def test_score_lines_gives_error_objects_or_encodable_replies(self, demo_scorer, lines):
        results = score_lines(demo_scorer, lines)
        assert len(results) == sum(1 for line in lines if line.strip())
        for result in results:
            _encodes(result)
