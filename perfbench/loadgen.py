"""HTTP load generator: an open loop on a fixed schedule and a closed loop.

One thread per keep-alive connection, never more connections than CPUs,
so the client cannot take over the machine the server shares with it. In
the open loop, request ``i`` is due at ``start + i / rate`` and goes out on
connection ``i % connections``; its latency is measured from the due time,
so a stall also delays the requests queued behind it. In the closed loop
each connection sends its next request as soon as the previous reply
arrives. A reply counts as correct only when the status is 200 and the
body equals the expected bytes; anything else, a timeout included, is a
failure with infinite latency.
"""

from __future__ import annotations

import http.client
import math
import os
import threading
import time
from dataclasses import dataclass

TIMEOUT_S = 10.0


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class Sent:
    index: int      # position in the request pool
    due: float      # perf_counter when the schedule wanted it sent
    sent: float
    done: float
    ok: bool
    reason: str = ""

    @property
    def latency(self) -> float:
        """Seconds from due time to reply; a failure never meets a limit."""
        return self.done - self.due if self.ok else math.inf

    @property
    def service(self) -> float:
        return self.done - self.sent if self.ok else math.inf


class _Connection:
    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.conn = http.client.HTTPConnection(host, port, timeout=TIMEOUT_S)

    def post(self, body: bytes, expected: bytes) -> tuple[bool, str]:
        try:
            self.conn.request("POST", "/v1/score", body, {"Content-Type": "application/json"})
            response = self.conn.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self.conn.close()
            self.conn = http.client.HTTPConnection(self.host, self.port, timeout=TIMEOUT_S)
            return False, f"{type(exc).__name__}: {exc}"
        if response.status != 200:
            return False, f"HTTP {response.status}"
        if payload != expected:
            return False, "body differs from the in-process score"
        return True, ""

    def close(self) -> None:
        self.conn.close()


def _check_connections(connections: int) -> None:
    if not 1 <= connections <= cpu_count():
        raise ValueError(f"{connections} client connections; allowed 1..{cpu_count()} (nproc)")


def _run_threads(target, connections: int) -> None:
    threads = [threading.Thread(target=target, args=(k,), daemon=True)
               for k in range(connections)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def open_loop(host: str, port: int, bodies: list[bytes], expected: list[bytes],
              rate: float, duration: float, connections: int) -> list[Sent]:
    """Send ``rate * duration`` requests on a fixed schedule."""
    _check_connections(connections)
    n = int(rate * duration)
    out: list[list[Sent]] = [[] for _ in range(connections)]
    start = time.perf_counter() + 0.05

    def worker(k: int) -> None:
        conn = _Connection(host, port)
        try:
            for i in range(k, n, connections):
                due = start + i / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                idx = i % len(bodies)
                sent = time.perf_counter()
                ok, reason = conn.post(bodies[idx], expected[idx])
                out[k].append(Sent(idx, due, sent, time.perf_counter(), ok, reason))
        finally:
            conn.close()

    _run_threads(worker, connections)
    return sorted((s for part in out for s in part), key=lambda s: s.due)


def closed_loop(host: str, port: int, bodies: list[bytes], expected: list[bytes],
                duration: float, connections: int, offset: int = 0) -> tuple[list[Sent], float]:
    """Back-to-back requests per connection for ``duration``; returns (sent, elapsed).

    Requests are taken from the pool from ``offset`` on, so a closed loop
    that follows an open loop does not resend the same requests.
    """
    _check_connections(connections)
    out: list[list[Sent]] = [[] for _ in range(connections)]
    start = time.perf_counter()
    stop = start + duration

    def worker(k: int) -> None:
        conn = _Connection(host, port)
        try:
            j = 0
            while time.perf_counter() < stop:
                idx = (offset + k + connections * j) % len(bodies)
                sent = time.perf_counter()
                ok, reason = conn.post(bodies[idx], expected[idx])
                out[k].append(Sent(idx, sent, sent, time.perf_counter(), ok, reason))
                j += 1
        finally:
            conn.close()

    _run_threads(worker, connections)
    elapsed = time.perf_counter() - start
    return [s for part in out for s in part], elapsed
