"""Shared exception base, and the one HTTP call and one JSON decoder, each raising the caller's error class."""

from __future__ import annotations

import json
from urllib.parse import urlsplit

_KIND_NAMES = {list: "an array", dict: "an object"}


class RegionRankError(Exception):
    """Base class for every error raised by this package."""


def decode_json(text: str | bytes, what: str, error: type[RegionRankError], kind: type | None = None):
    """Decode a JSON input document, raising `error` if it is malformed.

    `what` names the input in the message. Nesting too deep for the decoder
    and integers past the digit limit count as malformed too. When `kind`
    (list or dict) is given, the top-level value must be of that type.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError includes JSONDecodeError
        raise error(f"malformed {what}: {exc}") from exc
    if kind is not None and not isinstance(doc, kind):
        raise error(f"malformed {what}: top-level value must be {_KIND_NAMES[kind]}")
    return doc


class ErrorStatus(Exception):
    """A reply with a status outside 2xx, its body read whole.

    http_body raises the caller's error from it, so it is that error's
    __cause__.
    """

    def __init__(self, status: int, reason: str):
        super().__init__(f"HTTP Error {status}: {reason}")
        self.status = status


class ConnectionPool:
    """Open HTTP/1.1 connections by (scheme, host:port), which http_body reuses.

    close() closes every one, and so does leaving a `with` block.
    """

    def __init__(self):
        self._open = {}

    def take(self, key: tuple[str, str]):
        """The pooled connection for key, removed from the pool; None if there
        is none, or if its peer has hung up, in which case it is closed."""
        import select  # deferred, as in http_body

        connection = self._open.pop(key, None)
        # an idle connection's socket reads as ready only once its peer has
        # closed it (or sent bytes nobody asked for)
        if connection is not None and connection.sock is not None and select.select([connection.sock], [], [], 0)[0]:
            connection.close()
            return None
        return connection

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


def load_http_client() -> None:
    """Import what a first http_body call would, so a caller that times
    requests can load it before its clock starts."""
    import encodings.idna  # noqa: F401 - socket.getaddrinfo encodes host names with it
    import http.client  # noqa: F401 - with socket, ssl and email
    import select  # noqa: F401 - ConnectionPool.take checks idle sockets with it


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

    Every failure raises `error`: transport, unparsable reply, unencodable
    host name, a status outside 2xx (3xx included). An error status's body
    is read first, so only a whole one leaves an ErrorStatus as the raised
    error's __cause__. A connection that fails is closed, not pooled.
    """
    # deferred: the HTTP client (with ssl and email) is about half of the
    # package's import time, and no simulated command makes a request;
    # callers that time a request call load_http_client first
    import http.client

    method = "GET" if payload is None else "POST"
    headers = {} if payload is None else {"Content-Type": "application/octet-stream"}
    try:
        parts = urlsplit(url)
        key = (parts.scheme, parts.netloc)
        connection = pool.take(key) if pool is not None else None
        if connection is None:
            if parts.scheme == "http":
                connection = http.client.HTTPConnection(parts.netloc, timeout=timeout)
            elif parts.scheme == "https":
                connection = http.client.HTTPSConnection(parts.netloc, timeout=timeout)
            else:
                raise http.client.InvalidURL(f"unknown url type: {parts.scheme!r}")
        try:
            selector = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
            connection.request(method, selector, payload, headers)
            with connection.getresponse() as response:
                body = response.read()
        except BaseException:
            connection.close()
            raise
    # ValueError includes UnicodeError and a URL urlsplit rejects
    except (OSError, http.client.HTTPException, ValueError) as exc:
        raise error(f"{method} {url} failed: {exc}") from exc
    if pool is None:
        connection.close()
    else:
        pool.put(key, connection)
    if not 200 <= response.status < 300:
        status = ErrorStatus(response.status, response.reason)
        raise error(f"{method} {url} failed: {status}") from status
    return body
