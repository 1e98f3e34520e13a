"""Shared exception and value bases, and the one HTTP call and one JSON decoder, each raising the caller's error class."""

from __future__ import annotations

import json
from urllib.parse import urlsplit

_KIND_NAMES = {list: "an array", dict: "an object"}


class RegionRankError(Exception):
    """Base class for every error raised by this package."""


def decode_json(text: str, what: str, error: type[RegionRankError], kind: type | None = None):
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


class Record:
    """Base of the package's immutable values.

    A subclass's fields are the parameters of its __init__, in order, and
    make up its _fields. Its __init__ validates them and stores them, with
    any values it derives from them, through self.__dict__.update. ==, hash
    and repr cover the fields alone, in order; values of two classes are
    never equal. Assigning or deleting an attribute raises AttributeError.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount + code.co_kwonlyargcount]

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A copy with `changes` to its fields, made and validated by __init__."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__qualname__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__qualname__} is immutable")


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
        is none, or if it is closed or its peer has hung up, in which case it
        is closed."""
        import select  # deferred, as in http_body

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


def load_http_client() -> None:
    """Import what a first http_body call would, so a caller that times
    requests can load it before its clock starts."""
    import encodings.idna  # noqa: F401 - socket.getaddrinfo encodes host names with it
    import http.client  # noqa: F401 - with socket, ssl and email
    import select  # noqa: F401 - ConnectionPool.take polls idle sockets with it


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
                    body = response.read()
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
        status = ErrorStatus(response.status, response.reason)
        raise error(f"{method} {url} failed: {status}") from status
    return body
