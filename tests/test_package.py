"""Package-wide checks: a standard-library-only runtime, a public API that
resolves, and immutable values that compare, hash and print by their fields."""

import ast
import sys
from pathlib import Path

import pytest

import regionrank
from regionrank import (
    ComparisonStats,
    ExecutionStats,
    GeoPoint,
    MetricMatrix,
    RankingReport,
    Region,
    RegionCatalog,
    ServiceNode,
    SimEnvironment,
    WorkflowSpec,
)
from regionrank.workflow import WorkflowError

SOURCES = sorted(Path(regionrank.__file__).parent.glob("*.py"))


def _absolute_imports(path):
    """Top-level module name of every absolute import in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_runtime_imports_only_the_standard_library():
    assert "metrics.py" in {path.name for path in SOURCES}
    outside = sorted(
        (path.name, name)
        for path in SOURCES
        for name in _absolute_imports(path)
        if name not in sys.stdlib_module_names
    )
    assert outside == []


# urlopen, the http.client classes that open an HTTP connection, and the
# socket calls that open any other
CONNECTION_OPENERS = {"urlopen", "HTTPConnection", "HTTPSConnection", "socket", "create_connection"}


def _connection_openers(path):
    """(function, name) of every call in one source file to a name in CONNECTION_OPENERS,
    whether by module path or by imported name; function is the innermost def around it."""
    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in CONNECTION_OPENERS:
                yield function, name
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    yield from visit(ast.parse(path.read_text(), str(path)), None)


def test_the_package_opens_its_connections_at_two_sites():
    # harness.http_body is the one exception boundary for every HTTP client,
    # and LiveProbe._tcp_once the one timed connect of a latency probe
    sites = sorted((path.name, function, name) for path in SOURCES for function, name in _connection_openers(path))
    assert sites == [
        ("harness.py", "http_body", "HTTPConnection"),
        ("harness.py", "http_body", "HTTPSConnection"),
        ("metrics.py", "_tcp_once", "socket"),
    ]


def test_every_public_name_resolves_on_the_package():
    assert [name for name in regionrank.__all__ if not hasattr(regionrank, name)] == []
    assert len(set(regionrank.__all__)) == len(regionrank.__all__)


def _values():
    """One value of each immutable class of the package, new ones on every call."""
    point = GeoPoint(1.5, -2.0)
    region = Region("r1", "probe.test", point)
    source = ServiceNode("a", "http://a.test/", "source")
    node = ServiceNode("b", "http://b.test:8080/x", "processor")
    return [
        point,
        region,
        RegionCatalog((region,)),
        source,
        WorkflowSpec("wf", (source, node), (("a", "b"),)),
        MetricMatrix(("a.test",), {"distance": {"r1": [1.0]}, "latency": {"r1": [None]}, "rtt": {"r1": [2.5]}}),
        SimEnvironment({"a.test": point}, {"b.test|a.test": 4}, seed=3),
        RankingReport("r1", ("r1",), (("r1", 1.0),), (("r1", 2.0),), (("r1", 3.0),), (("r1", 2.5),)),
        ExecutionStats("wf", (1, 2.5)),
        ComparisonStats(12.5, None),
    ]


# the repr of each of _values() when every one of these classes was a frozen dataclass
POINT = "GeoPoint(lat=1.5, lon=-2.0)"
REGION = f"Region(id='r1', probe_host='probe.test', location={POINT})"
SOURCE = "ServiceNode(id='a', endpoint='http://a.test/', role='source')"
REPRS = [
    POINT,
    REGION,
    f"RegionCatalog(regions=({REGION},))",
    SOURCE,
    f"WorkflowSpec(name='wf', nodes=({SOURCE}, ServiceNode(id='b', endpoint='http://b.test:8080/x', "
    "role='processor')), hops=(('a', 'b'),))",
    "MetricMatrix(hosts=('a.test',), rows={'distance': {'r1': [1.0]}, 'latency': {'r1': [None]}, "
    "'rtt': {'r1': [2.5]}})",
    f"SimEnvironment(node_locations={{'a.test': {POINT}}}, latency_overrides={{('a.test', 'b.test'): 4.0}}, "
    "base_latency_per_km=0.02, bandwidth_mbps=100.0, service_overhead_ms=3.0, processing_s=0.0, "
    "noise_sigma_ms=0.0, seed=3)",
    "RankingReport(recommended='r1', prefiltered_regions=('r1',), distance_table=(('r1', 1.0),), "
    "latency_table=(('r1', 2.0),), rtt_table=(('r1', 3.0),), final_table=(('r1', 2.5),))",
    "ExecutionStats(workflow='wf', runs=(1.0, 2.5), failures=0)",
    "ComparisonStats(speedup_pct=12.5, delta_sigma_pct=None)",
]
# their fields hold dicts
UNHASHABLE = (MetricMatrix, SimEnvironment)


@pytest.mark.parametrize("index", range(len(REPRS)), ids=[type(value).__name__ for value in _values()])
def test_a_value_is_immutable_and_compares_hashes_and_prints_by_its_fields(index):
    value, same = _values()[index], _values()[index]
    field = value._fields[0]
    for change in (lambda: setattr(value, field, None), lambda: delattr(value, field),
                   lambda: setattr(value, "extra", None)):
        with pytest.raises(AttributeError):
            change()
    assert value == same and not value != same
    if isinstance(value, UNHASHABLE):
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(same)
    assert [other for other in _values() if other == value] == [value]
    assert value != tuple(getattr(value, name) for name in value._fields)
    assert repr(value) == REPRS[index]
    copy = value.replace()
    assert copy == value and copy is not value


def test_replace_makes_a_copy_that_init_validates():
    assert GeoPoint(0.0, 0.0).replace(lat=45.0) == GeoPoint(45.0, 0.0)
    with pytest.raises(ValueError, match="latitude 91.0"):
        GeoPoint(0.0, 0.0).replace(lat=91.0)
    spec = _values()[4]
    with pytest.raises(WorkflowError, match="cycle"):
        spec.replace(hops=spec.hops + (("b", "a"),))
    with pytest.raises(TypeError):
        spec.replace(hop_order=())
