"""The package's error base, its one JSON decoder (raising the caller's error class) and the base of its immutable values."""

from __future__ import annotations

import json

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
