"""Verification harness: sequential orchestrator and toy services over real HTTP.

execute_workflow drives a workflow over real HTTP from the local process:
fetch each source payload with GET, then push payloads hop by hop with POST
over one kept-alive connection per service host, timing whole runs into run
statistics (``stats.ExecutionStats``). The bundled transform service stands
in for the remote processing services a deployment would talk to; byte
reversal replaces image rotation so no imaging stack is needed. The bundled
services hand each accepted connection to an idle handler thread, parked
after its last connection, and start a daemon thread only when none is
idle; closing a service retires the parked threads.
"""

from __future__ import annotations

import math
import queue
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from .errors import ConnectionPool, RegionRankError, http_body, load_http_client
# ComparisonStats and compare_stats are re-exported: the run statistics live in
# .stats so that verify --mode sim can summarise without loading http.server
from .stats import DEFAULT_RUNS, ComparisonStats, ExecutionStats, HarnessError, compare_stats  # noqa: F401
from .workflow import ROLE_SOURCE, WorkflowSpec

DEFAULT_RUN_TIMEOUT_S = 30.0
# the largest request body the transform service reads
BODY_CAP = 64 * 1024 * 1024
# how often serve_forever checks for shutdown; close() waits up to one interval
_SHUTDOWN_POLL_S = 0.05


class WorkflowRunError(RegionRankError):
    """A single workflow run failed; the batch may still continue."""


def run_workflow_once(
    spec: WorkflowSpec, timeout: float = DEFAULT_RUN_TIMEOUT_S
) -> tuple[float, dict[str, bytes]]:
    """Execute one run; returns (elapsed seconds, last output bytes per node).

    The run keeps one connection per service scheme and host:port, and closes
    them all when it ends, so every run pays for its own connection set-up.
    """
    load_http_client()  # before the clock, so a first run does not time the import
    with ConnectionPool() as pool:
        start = time.perf_counter()
        endpoints = {node.id: node.endpoint for node in spec.nodes}
        outputs: dict[str, bytes] = {}
        for node in spec.nodes:
            if node.role == ROLE_SOURCE:
                outputs[node.id] = http_body(node.endpoint, timeout, WorkflowRunError, pool=pool)
        for u, v in spec.hop_order:
            if u not in outputs:
                raise WorkflowRunError(f"hop source {u!r} produced no payload")
            outputs[v] = http_body(endpoints[v], timeout, WorkflowRunError, outputs[u], pool=pool)
        return time.perf_counter() - start, outputs


def execute_workflow(
    spec: WorkflowSpec,
    runs: int = DEFAULT_RUNS,
    timeout: float = DEFAULT_RUN_TIMEOUT_S,
) -> ExecutionStats:
    """Run the workflow `runs` times; failed runs are counted, not fatal."""
    if runs < 1:
        raise HarnessError("runs must be at least 1")
    samples = []
    failures = 0
    for _ in range(runs):
        try:
            elapsed, _ = run_workflow_once(spec, timeout)
            samples.append(elapsed)
        except WorkflowRunError:
            failures += 1
    if not samples:
        raise HarnessError(f"all {runs} workflow runs failed")
    return ExecutionStats(workflow=spec.name, runs=tuple(samples), failures=failures)


class _ServiceHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: a reply's head and body go out in two writes, and on a
    # kept-alive connection the second would wait for the client's delayed ACK
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def _reply(self, status: int, body: bytes = b""):
        self.send_response(status)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _refuse(self, status: int):
        # refuse without reading; the unread body makes the connection
        # unusable, so tell the client and drop it
        self.close_connection = True
        self.send_response(status)
        self.send_header("Connection", "close")
        self.send_header("Content-Length", "0")
        self.end_headers()

    def _body_length(self) -> Optional[int]:
        """The request's Content-Length, or None after refusing it: 411 for a Transfer-Encoding, 400 if malformed."""
        if "Transfer-Encoding" in self.headers:
            self._refuse(411)
            return None
        raw = self.headers.get("Content-Length", "0").strip()
        if not (raw.isascii() and raw.isdigit()):
            self._refuse(400)
            return None
        return int(raw)


class _TransformHandler(_ServiceHandler):
    def _simulated_compute(self):
        # time.sleep(0) still costs tens of microseconds a call
        if self.server.delay_ms > 0:
            time.sleep(self.server.delay_ms / 1000.0)

    def do_GET(self):
        self._simulated_compute()
        if self.path == "/":
            self._reply(200)
        else:
            self._reply(404)

    def do_POST(self):
        length = self._body_length()
        if length is None:
            return
        if length > BODY_CAP:
            self._refuse(413)
            return
        body = bytearray(length)
        del body[self.rfile.readinto(body):]  # a short read leaves no zero padding
        self._simulated_compute()
        if self.server.mode == "rotate":
            body.reverse()
        self._reply(200, body)


class _PayloadHandler(_ServiceHandler):
    def do_GET(self):
        self._reply(200, self.server.payload)

    def do_POST(self):
        if self._body_length() is not None:
            self._refuse(405)


# Inboxes of the handler threads parked between connections, shared by every
# service in the process (a stack per service keeps more threads, each with
# its malloc arena, alive); the most recently parked thread is reused first.
_PARKED: list[queue.SimpleQueue] = []
_PARKED_LOCK = threading.Lock()


def _handle_connections(inbox: queue.SimpleQueue, job) -> None:
    """A handler thread's life: serve a connection, park, serve the next one handed over."""
    while job is not None:
        server, request, address = job
        server.process_request_thread(request, address)
        with _PARKED_LOCK:
            # checked under the lock that server_close takes, so no thread
            # parks once its server has woken the parked ones
            if server.closed:
                return
            _PARKED.append(inbox)
        job = inbox.get()


class _Server(ThreadingHTTPServer):
    """A bundled service on 127.0.0.1, served on a daemon thread from creation until close().

    The handler reads its settings (delay_ms, mode, payload) from the server.
    """

    # a TCP-connect latency probe opens its k connections back to back; past
    # socketserver's default backlog of 5 they would wait on 1 s SYN retries
    request_queue_size = socket.SOMAXCONN
    closed = False

    def __init__(self, port: int, handler, delay_ms: float = 0.0, mode: str = "echo", payload: bytes = b""):
        if not 0 <= port <= 65535:
            raise HarnessError(f"port {port} is outside 0-65535")
        super().__init__(("127.0.0.1", port), handler)
        self.delay_ms = delay_ms
        self.mode = mode
        self.payload = payload
        self._serve_thread = threading.Thread(target=self.serve_forever, args=(_SHUTDOWN_POLL_S,), daemon=True)
        self._serve_thread.start()

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}/"

    def close(self):
        """Stop serving, close the listening socket and wait for the serve thread."""
        self.shutdown()
        self.server_close()
        self._serve_thread.join(timeout=5)

    def __exit__(self, *exc_info):
        # socketserver's __exit__ only calls server_close, which leaves serve_forever running
        self.close()

    def process_request(self, request, client_address):
        """Hand the connection to a parked handler thread, or start one if none is idle."""
        job = (self, request, client_address)
        with _PARKED_LOCK:
            inbox = _PARKED.pop() if _PARKED else None
        if inbox is None:
            threading.Thread(target=_handle_connections, args=(queue.SimpleQueue(), job), daemon=True).start()
        else:
            inbox.put(job)

    def server_close(self):
        """Close the listening socket and retire every parked handler thread.

        Like ThreadingHTTPServer's daemon threads, a handler still serving a
        connection is not waited for; it exits when that connection ends.
        """
        super().server_close()
        with _PARKED_LOCK:
            self.closed = True
            parked = _PARKED[:]
            _PARKED.clear()
        for inbox in parked:
            inbox.put(None)


def transform_service(port: int = 0, delay_ms: float = 0.0, mode: str = "rotate") -> _Server:
    """Start the toy processing service; port 0 lets the OS pick one.

    POST / applies the transform (rotate = byte reversal, echo = identity)
    after delay_ms of simulated compute; GET / answers 200 as a probe target.
    A body over BODY_CAP bytes gets 413.
    """
    if mode not in ("rotate", "echo"):
        raise HarnessError(f"unknown transform mode {mode!r}")
    delay_ms = float(delay_ms)
    if not math.isfinite(delay_ms) or delay_ms < 0:
        raise HarnessError(f"delay must be a finite non-negative number of ms, not {delay_ms}")
    return _Server(port, _TransformHandler, delay_ms=delay_ms, mode=mode)


def payload_source(payload: bytes = b"sample payload", port: int = 0) -> _Server:
    """Start a loopback data source serving `payload` to any GET."""
    return _Server(port, _PayloadHandler, payload=bytes(payload))
