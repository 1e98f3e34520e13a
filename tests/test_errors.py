import pytest

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
