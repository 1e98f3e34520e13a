import re

import pytest

from conftest import DEEP_JSON
from regionrank.errors import RegionRankError, http_body
from regionrank.geo import FixtureResolver, GeoFixtureError
from regionrank.regions import CatalogError, load_catalog
from regionrank.simulator import SimulationError, load_env
from regionrank.workflow import WorkflowError, parse_workflow

TRUNCATED = '[{"id": '
TRUNCATED_REASON = "Expecting value: line 1 column 9 (char 8)"


def parse_dag(text):
    return parse_workflow(text, format="dag")


@pytest.mark.parametrize("loader, error, text, message", [
    (load_catalog, CatalogError, TRUNCATED, f"malformed catalog file: {TRUNCATED_REASON}"),
    (load_catalog, CatalogError, "{}", "malformed catalog file: top-level value must be an array"),
    (load_env, SimulationError, TRUNCATED, f"malformed environment file: {TRUNCATED_REASON}"),
    (load_env, SimulationError, "[]", "malformed environment file: top-level value must be an object"),
    (parse_dag, WorkflowError, TRUNCATED, f"malformed dag file: {TRUNCATED_REASON}"),
    (parse_dag, WorkflowError, "[]", "malformed dag file: top-level value must be an object"),
    (FixtureResolver.from_json, GeoFixtureError, TRUNCATED,
     f"malformed geolocation fixture: {TRUNCATED_REASON}"),
    # the fixture's top-level check belongs to parse_locations, shared with node_locations
    (FixtureResolver.from_json, GeoFixtureError, "[]",
     "locations must be a JSON object of {host: {lat, lon}}"),
])
def test_loaders_report_malformed_json_exactly(loader, error, text, message):
    with pytest.raises(error) as info:
        loader(text)
    assert str(info.value) == message


@pytest.mark.parametrize("loader, error, what", [
    (load_catalog, CatalogError, "catalog file"),
    (load_env, SimulationError, "environment file"),
    (parse_dag, WorkflowError, "dag file"),
    (FixtureResolver.from_json, GeoFixtureError, "geolocation fixture"),
])
@pytest.mark.parametrize("text", [DEEP_JSON, "[" + "1" * 5000 + "]"], ids=["deep", "too-many-digits"])
def test_loaders_report_undecodable_json_as_malformed(loader, error, what, text):
    # the decoder's own message varies across Python versions; the prefix does not
    with pytest.raises(error, match=f"^malformed {what}: "):
        loader(text)


class _CallerError(RegionRankError):
    pass


def test_http_body_raises_the_callers_error_for_a_host_name_idna_cannot_encode():
    url = f"http://{'a' * 64}.test/"
    with pytest.raises(_CallerError, match=f"^GET {re.escape(url)} failed: ") as info:
        http_body(url, 1.0, _CallerError)
    assert isinstance(info.value.__cause__, UnicodeError)
