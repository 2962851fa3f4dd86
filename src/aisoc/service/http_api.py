"""Stateless JSON-over-HTTP scoring service on the stdlib HTTP server.

Endpoints:

* ``POST /v1/score`` — score one request; response carries the modality
  scores, the fused label, the serving modality, and the artifact version.
* ``GET /v1/health`` — liveness plus artifact version.
* ``GET /v1/model-info`` — thresholds, calibration methods, fingerprints.

The loaded artifact is immutable, every request is scored independently,
and the threaded server keeps no cross-request state.

Connections are HTTP/1.1 keep-alive. A request body needs a valid
``Content-Length`` of at most ``MAX_BODY_BYTES`` (400 or 413 otherwise), a
client silent for ``_Handler.timeout`` seconds is disconnected, and an
unexpected failure is answered with a JSON 500 instead of a dropped
connection.
"""

from __future__ import annotations

import functools
import json
import threading
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..errors import ArtifactError
from .artifact import ModelArtifact
from .scorer import RequestError


MAX_BODY_BYTES = 1 << 20  # a request is one log line and one feature row: a few KB


def _answer_500(method):
    """Turn an unexpected exception in ``method`` into a JSON 500 reply.

    Socket errors (a timed-out read, a reset peer) propagate, so the stdlib
    server closes the connection it can no longer answer on.
    """
    @functools.wraps(method)
    def guarded(self: "_Handler") -> None:
        try:
            method(self)
        except OSError:
            raise
        except Exception as exc:  # noqa: BLE001 - the request boundary
            traceback.print_exc()
            self.close_connection = True
            self._send(500, {"error": f"internal error: {type(exc).__name__}"})

    return guarded


class _Handler(BaseHTTPRequestHandler):
    server_version = "aisoc-scoring/1"
    protocol_version = "HTTP/1.1"
    # Reply segments go out at once instead of waiting out the peer's
    # delayed ACK (about 40 ms per keep-alive request with Nagle on).
    disable_nagle_algorithm = True
    timeout = 10.0  # seconds a socket read or write may block: frees a silent client's thread

    def _send(self, status: int, payload: dict) -> None:
        # One write per response: the status line, headers and body leave
        # together, whatever the socket's buffering.
        body = json.dumps(payload, ensure_ascii=False).encode("utf-8")
        head = (f"{self.protocol_version} {status} {self.responses[status][0]}\r\n"
                f"Server: {self.version_string()}\r\n"
                f"Date: {self.date_time_string()}\r\n"
                "Content-Type: application/json; charset=utf-8\r\n"
                f"Content-Length: {len(body)}\r\n"
                + ("Connection: close\r\n" if self.close_connection else "")
                + "\r\n")
        self.wfile.write(head.encode("latin-1") + body)

    def _refuse(self, status: int, error: str) -> None:
        """Reply and close: the rest of this request's bytes cannot be framed."""
        self.close_connection = True
        self._send(status, {"error": error})

    @_answer_500
    def do_GET(self) -> None:  # noqa: N802 - stdlib handler naming
        artifact = self.server.artifact  # type: ignore[attr-defined]
        if self.path == "/v1/health":
            self._send(200, {"status": "ok", "artifact_version": artifact.version})
        elif self.path == "/v1/model-info":
            self._send(200, {
                "format_version": artifact.format_version,
                "thresholds": {"t_m": artifact.fusion.t_m, "t_l": artifact.fusion.t_l},
                "calibrators": {
                    "malware": artifact.calibrator_malware.method.value,
                    "logs": artifact.calibrator_logs.method.value,
                },
                "fingerprints": artifact.fingerprints,
            })
        else:
            self._send(404, {"error": f"unknown path {self.path}"})

    @_answer_500
    def do_POST(self) -> None:  # noqa: N802 - stdlib handler naming
        if self.path != "/v1/score":
            self._refuse(404, f"unknown path {self.path}")
            return
        declared = (self.headers.get("Content-Length") or "").strip()
        if not (declared.isascii() and declared.isdigit()):
            self._refuse(400, f"Content-Length must be a non-negative integer, got {declared!r}")
            return
        length = int(declared)
        if length > MAX_BODY_BYTES:
            self._refuse(413, f"request body of {length} bytes exceeds {MAX_BODY_BYTES}")
            return
        body = self.rfile.read(length)
        if len(body) < length:  # the client closed its side mid-body
            self._refuse(400, f"request body ended after {len(body)} of {length} bytes")
            return
        try:
            request = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            self._send(400, {"error": f"malformed JSON request: {exc}"})
            return
        try:
            self._send(200, self.server.scorer.score_request(request))  # type: ignore[attr-defined]
        except RequestError as exc:
            self._send(400, {"error": str(exc)})

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib signature
        pass  # keep the scoring path quiet; errors surface in responses


class ScoringService:
    """A running (or startable) scoring server bound to one artifact."""

    def __init__(self, artifact: ModelArtifact, host: str = "127.0.0.1", port: int = 0):
        if artifact.status != "SERVING":
            raise ArtifactError(
                "refusing to serve a PARTIAL artifact; missing components: "
                + ", ".join(artifact.missing_components()))
        self._server = ThreadingHTTPServer((host, port), _Handler)
        self._server.artifact = artifact  # type: ignore[attr-defined]
        self._server.scorer = artifact.to_scorer()  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ScoringService":
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._server.serve_forever()

    def shutdown(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self) -> "ScoringService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def serve(artifact: ModelArtifact, bind: tuple[str, int] = ("127.0.0.1", 8080)) -> ScoringService:
    """Create a service bound to ``bind``; call ``start()`` or ``serve_forever()``."""
    return ScoringService(artifact, host=bind[0], port=bind[1])
