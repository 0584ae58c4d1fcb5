"""The load generator: stdlib ``http.client``, closed loop, two clients.

Deliberately independent of the program's own HTTP client, so a change
to that client cannot move the benchmark.  Each client thread sends its
next request only after the previous one completed, either over one
persistent keep-alive connection or over a fresh ``Connection: close``
connection per request.  Every request carries an ``X-Bench-Id`` header
(the traced run joins client latency to the server's handler span
through it); every completed request becomes one :class:`Sample` with
its parsed body, for the oracle.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Request:
    kind: str  # "get" or "post"
    key: str  # the queried or interacted-on video id
    payload: bytes = b""
    deadline_ms: float | None = None


@dataclass
class Sample:
    kind: str
    client: int
    key: str
    bench_id: str  # the X-Bench-Id header sent
    sent: float  # monotonic instant the request was sent
    done: float  # monotonic instant the body was read
    status: int  # HTTP status, 0 on a connection error
    body: dict | None = None
    error: str = ""


@dataclass
class Load:
    samples: list[Sample] = field(default_factory=list)
    connections: int = 0  # TCP connections opened
    threads: int = 0


class _Client:
    def __init__(self, host: str, port: int, keepalive: bool, opened) -> None:
        self.host, self.port, self.keepalive = host, port, keepalive
        self.conn: http.client.HTTPConnection | None = None
        self._opened = opened

    def send(self, request: Request, bench_id: str, client: int) -> Sample:
        headers = {"X-Bench-Id": bench_id}
        if not self.keepalive:
            headers["Connection"] = "close"
        if request.deadline_ms is not None:
            headers["X-Deadline-Ms"] = f"{request.deadline_ms:g}"
        if request.kind == "get":
            method, path, body = "GET", f"/recommend/{request.key}?top_k=10", None
        else:
            method, path, body = "POST", "/interaction", request.payload
            headers["Content-Type"] = "application/json"
        if self.conn is None:
            self.conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
            self._opened()
        sent = time.monotonic()
        sample = Sample(request.kind, client, request.key, bench_id, sent, sent, 0)
        try:
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as error:
            self.close()
            sample.done = time.monotonic()
            sample.error = repr(error)
            return sample
        sample.done = time.monotonic()
        sample.status = response.status
        if not self.keepalive or response.will_close:
            self.close()
        try:
            sample.body = json.loads(raw)
        except ValueError:
            sample.body = None
        return sample

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def closed_loop(host, port, streams, keepalive: bool, end: float) -> Load:
    """One client thread per stream; each sends until *end*.

    *streams* is a list of iterators of :class:`Request` (one per client;
    they may share a locked iterator).  A stream that runs dry ends its
    client early.
    """
    load = Load(threads=len(streams))
    lock = threading.Lock()

    def opened():
        with lock:
            load.connections += 1

    def client(index: int, stream) -> None:
        conn = _Client(host, port, keepalive, opened)
        mine: list[Sample] = []
        try:
            while time.monotonic() < end:
                request = next(stream, None)
                if request is None:
                    break
                mine.append(conn.send(request, f"{index}-{len(mine)}", index))
        finally:
            conn.close()
            with lock:
                load.samples.extend(mine)

    threads = [
        threading.Thread(target=client, args=(i, s), daemon=True)
        for i, s in enumerate(streams)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return load
