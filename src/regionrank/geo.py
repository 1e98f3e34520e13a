"""Great-circle distance and host geolocation behind a pluggable resolver.

Distances use the haversine formula on a sphere with the mean Earth radius;
good to a fraction of a percent, which is plenty for ranking data centers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Protocol

from .errors import RegionRankError, decode_json

# Mean Earth radius in kilometers.
EARTH_RADIUS_KM = 6371.0


class GeoResolutionError(RegionRankError):
    """No location is known for a host."""

    def __init__(self, host: str):
        super().__init__(f"no location known for host {host!r}")
        self.host = host


class GeoFixtureError(RegionRankError):
    """A geolocation fixture file could not be parsed."""


@dataclass(frozen=True)
class GeoPoint:
    """A point on Earth in decimal degrees."""

    lat: float
    lon: float

    def __post_init__(self):
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat} out of range [-90, 90]")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude {self.lon} out of range [-180, 180]")


def parse_point(entry) -> GeoPoint:
    """The point of a decoded {"lat": num, "lon": num}; JSON true and false are not numbers."""
    lat, lon = entry["lat"], entry["lon"]
    if type(lat) not in (int, float) or type(lon) not in (int, float):
        raise TypeError(f"lat and lon must be numbers, not {lat!r} and {lon!r}")
    return GeoPoint(float(lat), float(lon))


def parse_locations(doc) -> dict[str, GeoPoint]:
    """Locations from a decoded JSON object of the form {host: {"lat": num, "lon": num}}."""
    if not isinstance(doc, dict):
        raise GeoFixtureError("locations must be a JSON object of {host: {lat, lon}}")
    locations = {}
    for host, entry in doc.items():
        try:
            locations[str(host)] = parse_point(entry)
        except (TypeError, KeyError, ValueError, OverflowError) as exc:
            raise GeoFixtureError(f"bad location for host {host!r}: {exc}") from exc
    return locations


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points in kilometers.

    Symmetric and non-negative; bounded by pi * EARTH_RADIUS_KM.
    """
    lat1 = math.radians(a.lat)
    lat2 = math.radians(b.lat)
    dlat = math.radians(b.lat - a.lat)
    dlon = math.radians(b.lon - a.lon)

    h = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    # Guard against tiny floating excursions above 1.0 near antipodes.
    return EARTH_RADIUS_KM * 2 * math.asin(min(1.0, math.sqrt(h)))


class GeoResolver(Protocol):
    """Maps a host key to its location; raises GeoResolutionError if unknown."""

    def resolve(self, host: str) -> GeoPoint: ...


class FixtureResolver:
    """Resolver backed by a static host -> coordinates mapping.

    The default fixture keeps every lookup offline and deterministic; a live
    geolocation client can be swapped in anywhere a GeoResolver is accepted.
    """

    def __init__(self, locations: Mapping[str, GeoPoint]):
        self._locations = dict(locations)

    @classmethod
    def from_json(cls, text: str) -> "FixtureResolver":
        """Parse a fixture of the form {host: {"lat": num, "lon": num}}."""
        return cls(parse_locations(decode_json(text, "geolocation fixture", GeoFixtureError)))

    def resolve(self, host: str) -> GeoPoint:
        try:
            return self._locations[host]
        except KeyError:
            raise GeoResolutionError(host) from None

