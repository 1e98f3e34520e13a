"""Access to data files shipped inside the package."""

from __future__ import annotations

from pathlib import Path

_DATA = Path(__file__).with_name("data")


def fixture_path(name: str) -> Path:
    return _DATA / name


def fixture_text(name: str) -> str:
    return fixture_path(name).read_text(encoding="utf-8")
