"""Shared exception base, and the one HTTP call and one JSON decoder, each raising the caller's error class."""

from __future__ import annotations

import http.client
import json
import urllib.error
import urllib.request

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


def http_body(url: str, timeout: float, error: type[RegionRankError], payload: bytes | None = None) -> bytes:
    """GET url, or POST payload to it when one is given; the reply body.

    Every failure raises `error`: transport, unparsable reply, unencodable
    host name, error status. An error status's body is read first, so only
    a whole one leaves its HTTPError as the raised error's __cause__.
    """
    method = "GET" if payload is None else "POST"
    headers = {} if payload is None else {"Content-Type": "application/octet-stream"}
    try:
        try:
            with urllib.request.urlopen(urllib.request.Request(url, payload, headers), timeout=timeout) as response:
                return response.read()
        except urllib.error.HTTPError as status:
            with status:
                status.read()
            raise
    except (OSError, http.client.HTTPException, UnicodeError) as exc:  # OSError includes URLError
        raise error(f"{method} {url} failed: {exc}") from exc
