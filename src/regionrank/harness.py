"""Verification harness: the package's HTTP client, and a sequential orchestrator and toy services over real HTTP.

http_body is the package's one HTTP client: the live rtt probe and every
workflow hop go through it, and it reads no reply body past BODY_CAP bytes.
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

import encodings.idna  # noqa: F401 - socket.getaddrinfo encodes host names with it
import http.client
import math
import queue
import select
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import urlsplit

from .errors import RegionRankError
# ComparisonStats and compare_stats are re-exported: the run statistics live in
# .stats so that verify --mode sim can summarise without loading http.server
from .stats import DEFAULT_RUNS, ComparisonStats, ExecutionStats, HarnessError, compare_stats  # noqa: F401
from .workflow import ROLE_SOURCE, WorkflowSpec

DEFAULT_RUN_TIMEOUT_S = 30.0
# the largest body the transform service reads from a request, and http_body from a reply
BODY_CAP = 64 * 1024 * 1024
# how often serve_forever checks for shutdown; close() waits up to one interval
_SHUTDOWN_POLL_S = 0.05


class ErrorStatus(Exception):
    """A reply with a status outside 2xx, its body read whole.

    http_body raises the caller's error from it, so it is that error's
    __cause__.
    """


class ConnectionPool:
    """Open HTTP/1.1 connections by (scheme, host:port), which http_body reuses.

    close() closes every one, and so does leaving a `with` block.
    """

    def __init__(self):
        self._open = {}

    def take(self, key: tuple[str, str]):
        """The pooled connection for key, removed from the pool; None if there
        is none, or if it is closed or its peer has hung up, in which case it
        is closed."""
        connection = self._open.pop(key, None)
        if connection is None:
            return None
        # an idle connection's socket polls with an event only once its peer
        # has closed it (or sent bytes nobody asked for); one without a socket
        # was closed after a reply that announced it, and would connect anew.
        # poll, not select: select cannot take a descriptor past 1023
        if connection.sock is not None:
            idle = select.poll()
            idle.register(connection.sock, select.POLLIN)
            if not idle.poll(0):
                return connection
        connection.close()
        return None

    def put(self, key: tuple[str, str], connection) -> None:
        self._open[key] = connection

    def close(self) -> None:
        while self._open:
            self._open.popitem()[1].close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False


def http_body(
    url: str,
    timeout: float,
    error: type[RegionRankError],
    payload: bytes | None = None,
    *,
    pool: ConnectionPool | None = None,
) -> bytes:
    """GET url, or POST payload to it when one is given; the reply body.

    With a pool, the request goes over its connection to the URL's scheme and
    host:port, and a new one is opened and left in the pool when there is
    none; without one, over a new connection closed before returning.
    Redirects are not followed, and proxies from the environment are not used.

    Pooled requests are the harness's workflow hops, which are treated as
    idempotent transforms (RFC 9112 section 9.3.1): when a pooled connection
    fails with a ConnectionError before the reply's head arrives (its peer
    reset it, or hung up just as the request went out), it is closed and the
    request is sent once more, on a new connection. A request on a new
    connection, and one that timed out, is never sent again.

    Every failure raises `error`: transport, unparsable reply, a reply body
    over BODY_CAP bytes, unencodable host name, a status outside 2xx (3xx
    included). An error status's body
    is read first, so only a whole one leaves an ErrorStatus as the raised
    error's __cause__. A connection that fails is closed, not pooled.
    """
    method = "GET" if payload is None else "POST"
    headers = {} if payload is None else {"Content-Type": "application/octet-stream"}
    try:
        parts = urlsplit(url)
        key = (parts.scheme, parts.netloc)
        selector = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        connection = pool.take(key) if pool is not None else None
        resend = connection is not None
        while True:
            if connection is None:
                if parts.scheme == "http":
                    connection = http.client.HTTPConnection(parts.netloc, timeout=timeout)
                elif parts.scheme == "https":
                    connection = http.client.HTTPSConnection(parts.netloc, timeout=timeout)
                else:
                    raise http.client.InvalidURL(f"unknown url type: {parts.scheme!r}")
            try:
                try:
                    connection.request(method, selector, payload, headers)
                    response = connection.getresponse()
                except ConnectionError:  # RemoteDisconnected, ConnectionResetError, BrokenPipeError
                    if not resend:
                        raise
                    connection.close()
                    connection, resend = None, False
                    continue
                with response:
                    if response.length is None:  # chunked, or ended by the peer's close
                        body = response.read(BODY_CAP + 1)
                    elif response.length <= BODY_CAP:
                        body = response.read()  # read(amt) would copy the body once more
                    else:  # read() would allocate the whole announced length first
                        body = None
                    if body is None or len(body) > BODY_CAP:
                        raise error(f"{method} {url} failed: reply body over {BODY_CAP} bytes")
            except BaseException:
                connection.close()
                raise
            break
    # ValueError includes UnicodeError and a URL urlsplit rejects
    except (OSError, http.client.HTTPException, ValueError) as exc:
        raise error(f"{method} {url} failed: {exc}") from exc
    if pool is None:
        connection.close()
    else:
        pool.put(key, connection)
    if not 200 <= response.status < 300:
        status = ErrorStatus(f"HTTP Error {response.status}: {response.reason}")
        raise error(f"{method} {url} failed: {status}") from status
    return body



class WorkflowRunError(RegionRankError):
    """A single workflow run failed; the batch may still continue."""


def run_workflow_once(
    spec: WorkflowSpec, timeout: float = DEFAULT_RUN_TIMEOUT_S
) -> tuple[float, dict[str, bytes]]:
    """Execute one run; returns (elapsed seconds, last output bytes per node).

    The run keeps one connection per service scheme and host:port, and closes
    them all when it ends, so every run pays for its own connection set-up.
    """
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
