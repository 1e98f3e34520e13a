"""Great-circle distance and host geolocation from a fixture.

Distances use the haversine formula on a sphere with the mean Earth radius;
good to a fraction of a percent, which is plenty for ranking data centers.
There is one formula: haversine_row computes the distances from one origin
to many points, and haversine_km, a single pair, is a row of one.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

from .errors import Record, RegionRankError, decode_json
from .workflow import check_host_key

# Mean Earth radius in kilometers.
EARTH_RADIUS_KM = 6371.0
# the factor math.radians multiplies by
_RADIANS_PER_DEGREE = math.pi / 180


class GeoResolutionError(RegionRankError):
    """No location is known for a host."""

    def __init__(self, host: str):
        super().__init__(f"no location known for host {host!r}")
        self.host = host


class GeoFixtureError(RegionRankError):
    """A geolocation fixture file could not be parsed."""


class GeoPoint(Record):
    """A point on Earth in decimal degrees."""

    def __init__(self, lat: float, lon: float):
        for value in (lat, lon):
            # JSON true and false decode to bools, which are ints but not numbers here
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError(f"lat and lon must be numbers, not {lat!r} and {lon!r}")
        lat, lon = float(lat), float(lon)
        if not -90.0 <= lat <= 90.0:
            raise ValueError(f"latitude {lat} out of range [-90, 90]")
        if not -180.0 <= lon <= 180.0:
            raise ValueError(f"longitude {lon} out of range [-180, 180]")
        self.__dict__.update(lat=lat, lon=lon)


def parse_locations(doc) -> dict[str, GeoPoint]:
    """Locations from a decoded JSON object of the form {host: {"lat": num, "lon": num}}.

    Only the points are built here; FixtureResolver and SimEnvironment check
    the hosts when they are given the map.
    """
    if not isinstance(doc, dict):
        raise GeoFixtureError("locations must be a JSON object of {host: {lat, lon}}")
    locations = {}
    for host, entry in doc.items():
        try:
            locations[host] = GeoPoint(entry["lat"], entry["lon"])
        except (TypeError, KeyError, ValueError, OverflowError) as exc:
            raise GeoFixtureError(f"bad location for host {host!r}: {exc}") from exc
    return locations


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points in kilometers.

    Symmetric and non-negative; bounded by pi * EARTH_RADIUS_KM.
    """
    return haversine_row(a, (b,))[0]


def haversine_row(origin: GeoPoint, points: Iterable[GeoPoint]) -> list[float]:
    """haversine_km(origin, p) for each of points, in order: one row of distances.

    The origin's cosine is taken once per row. Every other operation is the
    one the single-pair formula has always made, in the same order, with
    `x * _RADIANS_PER_DEGREE` for math.radians(x) (the product CPython's
    math.radians computes), so each value is the same float to the last bit.
    """
    sin, cos, asin, sqrt = math.sin, math.cos, math.asin, math.sqrt
    per_degree, diameter = _RADIANS_PER_DEGREE, EARTH_RADIUS_KM * 2
    lat_a, lon_a = origin.lat, origin.lon
    cos_a = cos(lat_a * per_degree)
    row = []
    for p in points:
        root = sqrt(sin((p.lat - lat_a) * per_degree / 2) ** 2
                    + cos_a * cos(p.lat * per_degree) * sin((p.lon - lon_a) * per_degree / 2) ** 2)
        # min(1.0, root) without the call: guards against tiny floating
        # excursions above 1.0 near antipodes
        row.append(diameter * asin(root if root < 1.0 else 1.0))
    return row


class FixtureResolver:
    """Maps a host key to its location, from a static host -> coordinates mapping.

    Every host must be a canonical host key (workflow.check_host_key) and every
    location a GeoPoint. The default fixture keeps lookups offline and deterministic.
    """

    def __init__(self, locations: Mapping[str, GeoPoint]):
        self._locations = dict(locations)
        for host, point in self._locations.items():
            check_host_key(host, "locations", GeoFixtureError)
            if not isinstance(point, GeoPoint):
                raise GeoFixtureError(f"bad location for host {host!r}: {point!r} is not a GeoPoint")

    @classmethod
    def from_json(cls, text: str) -> "FixtureResolver":
        """Parse a fixture of the form {host: {"lat": num, "lon": num}}."""
        return cls(parse_locations(decode_json(text, "geolocation fixture", GeoFixtureError)))

    def resolve(self, host: str) -> GeoPoint:
        try:
            return self._locations[host]
        except KeyError:
            raise GeoResolutionError(host) from None

