"""Candidate deployment regions and the catalog that holds them."""

from __future__ import annotations

from .bundled import fixture_text
from .errors import Record, RegionRankError, decode_json
from .geo import GeoPoint
from .workflow import check_host_key


class CatalogError(RegionRankError):
    """A region catalog file is malformed."""


class Region(Record):
    """One candidate deployment region.

    probe_host is the in-region endpoint used for latency and HTTP probing,
    a canonical host key (workflow.check_host_key); location anchors the
    geographic prefilter.
    """

    def __init__(self, id: str, probe_host: str, location: GeoPoint):
        if not id:
            raise CatalogError("region id must be non-empty")
        if not probe_host:
            raise CatalogError(f"region {id!r} has an empty probe_host")
        check_host_key(probe_host, f"region {id!r} probe_host", CatalogError)
        self.__dict__.update(id=id, probe_host=probe_host, location=location)


class RegionCatalog(Record):
    def __init__(self, regions: tuple[Region, ...]):
        regions = tuple(regions)
        if not regions:
            raise CatalogError("region catalog is empty")
        seen = set()
        for region in regions:
            if region.id in seen:
                raise CatalogError(f"duplicate region id {region.id!r}")
            seen.add(region.id)
        self.__dict__.update(regions=regions)

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
            location = GeoPoint(entry["lat"], entry["lon"])
        except (TypeError, KeyError) as exc:
            raise CatalogError(f"malformed catalog entry {entry!r}") from exc
        except (ValueError, OverflowError) as exc:
            raise CatalogError(f"region {region_id!r}: {exc}") from exc
        regions.append(Region(region_id, probe_host, location))
    return RegionCatalog(tuple(regions))


def load_default_catalog() -> RegionCatalog:
    """The catalog of eight EC2-style regions shipped with the package."""
    return load_catalog(fixture_text("regions.json"))
