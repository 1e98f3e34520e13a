"""Candidate deployment regions and the catalog that holds them."""

from __future__ import annotations

from dataclasses import dataclass

from .bundled import fixture_text
from .errors import RegionRankError, decode_json
from .geo import GeoPoint, parse_point


class CatalogError(RegionRankError):
    """A region catalog file is malformed."""


@dataclass(frozen=True)
class Region:
    """One candidate deployment region.

    probe_host is the in-region endpoint used for latency and HTTP probing;
    location anchors the geographic prefilter.
    """

    id: str
    probe_host: str
    location: GeoPoint

    def __post_init__(self):
        if not self.id:
            raise CatalogError("region id must be non-empty")
        if not self.probe_host:
            raise CatalogError(f"region {self.id!r} has an empty probe_host")


@dataclass(frozen=True)
class RegionCatalog:
    regions: tuple[Region, ...]

    def __post_init__(self):
        object.__setattr__(self, "regions", tuple(self.regions))
        if not self.regions:
            raise CatalogError("region catalog is empty")
        seen = set()
        for region in self.regions:
            if region.id in seen:
                raise CatalogError(f"duplicate region id {region.id!r}")
            seen.add(region.id)

    def __iter__(self):
        return iter(self.regions)

    def __len__(self):
        return len(self.regions)

    def by_id(self, region_id: str) -> Region:
        for region in self.regions:
            if region.id == region_id:
                return region
        raise CatalogError(f"unknown region id {region_id!r}")


def load_catalog(text: str) -> RegionCatalog:
    """Parse a catalog file: a JSON array of {id: str, probe_host: str, lat: num, lon: num}."""
    regions = []
    for entry in decode_json(text, "catalog file", CatalogError, list):
        try:
            region_id, probe_host = entry["id"], entry["probe_host"]
            if not (isinstance(region_id, str) and isinstance(probe_host, str)):
                raise TypeError("id and probe_host must be strings")
            location = parse_point(entry)
        except (TypeError, KeyError) as exc:
            raise CatalogError(f"malformed catalog entry {entry!r}") from exc
        except (ValueError, OverflowError) as exc:
            raise CatalogError(f"region {region_id!r}: {exc}") from exc
        regions.append(Region(region_id, probe_host, location))
    return RegionCatalog(tuple(regions))


def load_default_catalog() -> RegionCatalog:
    """The catalog of eight EC2-style regions shipped with the package."""
    return load_catalog(fixture_text("regions.json"))
