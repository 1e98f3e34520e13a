"""Shared exception base, and the JSON decoding every input loader goes through."""

from __future__ import annotations

import json

_KIND_NAMES = {list: "an array", dict: "an object"}


class RegionRankError(Exception):
    """Base class for every error raised by this package."""


def decode_json(text: str, what: str, error: type[RegionRankError], kind: type | None = None):
    """Decode a JSON input document, raising `error` if it is malformed.

    `what` names the input in the message. When `kind` (list or dict) is
    given, the top-level value must be of that type.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"malformed {what}: {exc}") from exc
    if kind is not None and not isinstance(doc, kind):
        raise error(f"malformed {what}: top-level value must be {_KIND_NAMES[kind]}")
    return doc
