"""Verification harness: sequential orchestrator and toy services over real HTTP.

execute_workflow drives a workflow over real HTTP from the local process:
fetch each source payload with GET, then push payloads hop by hop with POST,
timing whole runs into run statistics (``stats.ExecutionStats``). The bundled
transform service stands in for the remote processing services a deployment
would talk to; byte reversal replaces image rotation so no imaging stack is
needed.
"""

from __future__ import annotations

import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from .errors import RegionRankError, http_body, load_http_client
# ComparisonStats and compare_stats are re-exported: the run statistics live in
# .stats so that verify --mode sim can summarise without loading http.server
from .stats import DEFAULT_RUNS, ComparisonStats, ExecutionStats, HarnessError, compare_stats  # noqa: F401
from .workflow import ROLE_SOURCE, WorkflowSpec

DEFAULT_RUN_TIMEOUT_S = 30.0
DEFAULT_BODY_CAP = 64 * 1024 * 1024


class WorkflowRunError(RegionRankError):
    """A single workflow run failed; the batch may still continue."""


def run_workflow_once(
    spec: WorkflowSpec, timeout: float = DEFAULT_RUN_TIMEOUT_S
) -> tuple[float, dict[str, bytes]]:
    """Execute one run; returns (elapsed seconds, last output bytes per node)."""
    load_http_client()  # before the clock, so a first run does not time the import
    start = time.perf_counter()
    endpoints = {node.id: node.endpoint for node in spec.nodes}
    outputs: dict[str, bytes] = {}
    for node in spec.nodes:
        if node.role == ROLE_SOURCE:
            outputs[node.id] = http_body(node.endpoint, timeout, WorkflowRunError)
    for u, v in spec.hop_order:
        if u not in outputs:
            raise WorkflowRunError(f"hop source {u!r} produced no payload")
        outputs[v] = http_body(endpoints[v], timeout, WorkflowRunError, outputs[u])
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
        """The request's Content-Length, or None after refusing a malformed one with 400."""
        raw = self.headers.get("Content-Length", "0").strip()
        if not (raw.isascii() and raw.isdigit()):
            self._refuse(400)
            return None
        return int(raw)


class _TransformHandler(_ServiceHandler):
    def do_GET(self):
        time.sleep(self.server.delay_ms / 1000.0)
        if self.path == "/":
            self._reply(200)
        else:
            self._reply(404)

    def do_POST(self):
        length = self._body_length()
        if length is None:
            return
        if length > self.server.body_cap:
            self._refuse(413)
            return
        body = self.rfile.read(length)
        time.sleep(self.server.delay_ms / 1000.0)
        out = body[::-1] if self.server.mode == "rotate" else body
        self._reply(200, out)


class _PayloadHandler(_ServiceHandler):
    def do_GET(self):
        self._reply(200, self.server.payload)

    def do_POST(self):
        if self._body_length() is not None:
            self._refuse(405)


class _LocalService:
    """A loopback HTTP service running on a daemon thread."""

    def __init__(self, server: ThreadingHTTPServer):
        self._server = server
        self._thread = threading.Thread(target=server.serve_forever, daemon=True)
        self._thread.start()

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}/"

    def close(self):
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False


def _loopback_server(port: int, handler) -> ThreadingHTTPServer:
    if not 0 <= port <= 65535:
        raise HarnessError(f"port {port} is outside 0-65535")
    return ThreadingHTTPServer(("127.0.0.1", port), handler)


def transform_service(
    port: int = 0,
    delay_ms: float = 0.0,
    mode: str = "rotate",
    body_cap: int = DEFAULT_BODY_CAP,
) -> _LocalService:
    """Start the toy processing service; port 0 lets the OS pick one.

    POST / applies the transform (rotate = byte reversal, echo = identity)
    after delay_ms of simulated compute; GET / answers 200 as a probe target.
    """
    if mode not in ("rotate", "echo"):
        raise HarnessError(f"unknown transform mode {mode!r}")
    delay_ms = float(delay_ms)
    if not math.isfinite(delay_ms) or delay_ms < 0:
        raise HarnessError(f"delay must be a finite non-negative number of ms, not {delay_ms}")
    server = _loopback_server(port, _TransformHandler)
    server.delay_ms = delay_ms
    server.mode = mode
    server.body_cap = int(body_cap)
    return _LocalService(server)


def payload_source(payload: bytes = b"sample payload", port: int = 0) -> _LocalService:
    """Start a loopback data source serving `payload` to any GET."""
    server = _loopback_server(port, _PayloadHandler)
    server.payload = bytes(payload)
    return _LocalService(server)
