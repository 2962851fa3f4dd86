import http.client
import json
import socket
import time
import urllib.error
import urllib.request

import pytest

from aisoc.errors import ArtifactError
from aisoc.fusion import fuse_scores
from aisoc.service import ScoringService, build_artifact, score_lines, serve
from aisoc.service.http_api import MAX_BODY_BYTES, _Handler

CLIENT_TIMEOUT_S = 5.0  # every client socket: a regression fails instead of hanging


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
        assert payload["format_version"] == "1"
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
        request = urllib.request.Request(service.url + "/v1/score",
                                         data=b"{truncated",
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
        def boom(request):
            raise RuntimeError("injected")

        monkeypatch.setattr(service._server.scorer, "score_request", boom)
        status, payload = _post(service.url + "/v1/score",
                                {"log_message": demo_result.test_items[0].log.message})
        assert status == 500
        assert payload == {"error": "internal error: RuntimeError"}

    def test_unexpected_exception_in_get_gets_500(self, service, monkeypatch):
        monkeypatch.setattr(service._server, "artifact", None)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(service.url + "/v1/health", timeout=CLIENT_TIMEOUT_S)
        assert excinfo.value.code == 500
        assert "error" in json.loads(excinfo.value.read())


class TestServiceLifecycle:
    def test_partial_artifact_refused_at_startup(self, demo_result):
        partial = build_artifact(vocabulary=demo_result.artifact.vocabulary, created_at=0)
        with pytest.raises(ArtifactError, match="PARTIAL"):
            ScoringService(partial, port=0)


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
        requests = []
        for i, item in enumerate(demo_result.test_items[:30]):
            if i % 3 == 0:
                requests.append({"log_message": item.log.message})
            elif i % 3 == 1:
                requests.append({"malware_features": list(item.malware.features)})
            else:
                requests.append({"log_message": item.log.message,
                                 "malware_features": list(item.malware.features)})
        batch = score_lines(demo_scorer, [json.dumps(r) for r in requests])
        for request, via_batch in zip(requests, batch):
            _, via_http = _post(service.url + "/v1/score", request)
            for key in ("s_m", "s_l", "label"):
                assert via_batch.get(key) == via_http.get(key)

    def test_score_batch_file_roundtrip(self, tmp_path, demo_scorer):
        from aisoc.service import score_batch
        src = tmp_path / "requests.ndjson"
        dst = tmp_path / "results.ndjson"
        src.write_text('{"log_message": "audit: execve /bin/bash -i pid=1 ppid=2 uid=0"}\n')
        results = score_batch(demo_scorer, src, dst)
        assert len(results) == 1
        on_disk = [json.loads(line) for line in dst.read_text().splitlines()]
        assert on_disk == results
