import json

import pytest

from regionrank.geo import GeoPoint
from regionrank.regions import (
    CatalogError,
    Region,
    RegionCatalog,
    load_catalog,
    load_default_catalog,
)


def test_default_catalog_has_eight_regions(catalog8):
    assert len(catalog8) == 8
    assert catalog8.by_id("us-east-1").probe_host == "ec2.us-east-1.amazonaws.com"


def test_default_catalog_matches_bundled_loader(catalog8):
    assert load_default_catalog() == catalog8


def test_load_catalog_parses_entries():
    catalog = load_catalog('[{"id": "r1", "probe_host": "p.example", "lat": 1, "lon": 2}]')
    assert catalog.by_id("r1").location == GeoPoint(1.0, 2.0)


@pytest.mark.parametrize("region_id, probe_host, match", [
    ("", "p.example", "region id must be non-empty"),
    ("r1", "", "region 'r1' has an empty probe_host"),
])
def test_region_rejects_an_empty_id_or_probe_host(region_id, probe_host, match):
    with pytest.raises(CatalogError, match=match):
        Region(region_id, probe_host, GeoPoint(0, 0))


def test_catalog_rejects_duplicate_ids():
    region = Region("r1", "p.example", GeoPoint(0, 0))
    with pytest.raises(CatalogError, match="duplicate"):
        RegionCatalog((region, region))


def test_catalog_rejects_empty():
    with pytest.raises(CatalogError, match="empty"):
        RegionCatalog(())


def test_unknown_region_id():
    catalog = RegionCatalog((Region("r1", "p.example", GeoPoint(0, 0)),))
    with pytest.raises(CatalogError, match="r2"):
        catalog.by_id("r2")


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        '{"id": "x"}',
        '[{"id": "r", "probe_host": "p", "lat": 95, "lon": 0}]',
        '[{"id": "r", "lat": 0, "lon": 0}]',
        '[{"id": "r", "probe_host": "", "lat": 0, "lon": 0}]',
        '[{"id": null, "probe_host": "p", "lat": 0, "lon": 0}]',
        '[{"id": "r", "probe_host": null, "lat": 0, "lon": 0}]',
        '[{"id": ["a"], "probe_host": "p", "lat": 0, "lon": 0}]',
        '[{"id": 7, "probe_host": "p", "lat": 0, "lon": 0}]',
        '[{"id": "r", "probe_host": "p", "lat": true, "lon": 0}]',
        '[{"id": "r", "probe_host": "p", "lat": 0, "lon": "0"}]',
        '[{"id": "r", "probe_host": "p", "lat": 0, "lon": null}]',
        pytest.param('[{"id": "r", "probe_host": "p", "lat": 1%s, "lon": 0}]' % ("0" * 400),
                     id="lat-too-large-for-a-float"),
        '["r"]',
        '[{"id": "r", "probe_host": "P.test", "lat": 0, "lon": 0}]',
        '[{"id": "r", "probe_host": "p.test:80", "lat": 0, "lon": 0}]',
        '[{"id": "r", "probe_host": "p/", "lat": 0, "lon": 0}]',
    ],
)
def test_load_catalog_rejects_malformed(text):
    with pytest.raises(CatalogError):
        load_catalog(text)


@pytest.mark.parametrize("probe_host, message", [
    ("R1.test", "region 'r' probe_host: host key 'R1.test' is not canonical; write 'r1.test'"),
    ("r1.test:80", "region 'r' probe_host: host key 'r1.test:80' is not canonical; write 'r1.test'"),
    ("r1/", "region 'r' probe_host: 'r1/' is not a host key"),
])
def test_region_refuses_a_non_canonical_probe_host_as_a_catalog_does(probe_host, message):
    with pytest.raises(CatalogError) as built:
        Region("r", probe_host, GeoPoint(0, 0))
    assert str(built.value) == message
    with pytest.raises(CatalogError) as loaded:
        load_catalog(json.dumps([{"id": "r", "probe_host": probe_host, "lat": 0, "lon": 0}]))
    assert str(loaded.value) == message


def test_region_refuses_a_probe_host_that_is_not_a_string():
    with pytest.raises(CatalogError, match=r"^region 'r' probe_host: \('r1.test',\) is not a host key$"):
        Region("r", ("r1.test",), GeoPoint(0, 0))


def test_catalog_names_an_empty_probe_host_as_the_region_does():
    with pytest.raises(CatalogError, match="^region 'r' has an empty probe_host$"):
        load_catalog('[{"id": "r", "probe_host": "", "lat": 0, "lon": 0}]')
