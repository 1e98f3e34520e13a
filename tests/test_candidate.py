import json

import pytest
from hypothesis import given, strategies as st

from conftest import dag_specs
from regionrank.candidate import build_candidate_graph, total_weight
from regionrank.geo import GeoPoint
from regionrank.metrics import FAILURE_SENTINEL_MS, MetricMatrix
from regionrank.regions import Region
from regionrank.workflow import parse_workflow, generate_random_workflow

REGION = Region("r-east", "probe.r-east.test", GeoPoint(0, 0))

CHAIN3 = parse_workflow(
    "http://s.test/\nhttp://p1.test/\nhttp://p2.test/\n", format="lines"
)


def latency_matrix(values, region_id="r-east"):
    distances = {(region_id, host): 1.0 for host in values}
    probes = {(region_id, host): (ms, 2 * ms) for host, ms in values.items()}
    return MetricMatrix.from_pairs(distances, probes)


def test_sequential_chain_star_shape():
    # s -> R, R -> p1, p1 -> R, R -> p2, then p2's return edge p2 -> R
    assert CHAIN3.edge_peers == ("s.test", "p1.test", "p1.test", "p2.test", "p2.test")
    assert CHAIN3.host_weights == {"s.test": 1, "p1.test": 2, "p2.test": 2}


def test_source_only_single_return_edge():
    spec = parse_workflow("http://s.test/\n", format="lines")
    assert spec.edge_peers == ("s.test",)
    assert spec.host_weights == {"s.test": 1}


def test_two_source_join_counts_inbound_per_hop():
    doc = {
        "sources": ["http://s1.test/", "http://s2.test/"],
        "nodes": [
            {"id": "s1", "url": "http://s1.test/"},
            {"id": "s2", "url": "http://s2.test/"},
            {"id": "p", "url": "http://p.test/"},
        ],
        "hops": [["s1", "p"], ["s2", "p"]],
    }
    spec = parse_workflow(json.dumps(doc), format="dag")
    assert spec.edge_peers == ("s1.test", "p.test", "s2.test", "p.test", "p.test")
    assert spec.host_weights == {"s1.test": 1, "s2.test": 1, "p.test": 3}


def test_edge_count_is_two_hops_plus_terminals():
    pool = [f"http://svc{i}.test/" for i in range(4)]
    for seed in range(10):
        spec = generate_random_workflow(pool, length=6, seed=seed, source="http://src.test/")
        terminals = len(spec.nodes) - len({u for u, _ in spec.hops})
        assert len(spec.edge_peers) == 2 * len(spec.hops) + terminals


def test_invocations_count_processor_targets():
    assert CHAIN3.invocations == 2
    spec = parse_workflow("http://s.test/\n", format="lines")
    assert spec.invocations == 0


def test_total_weight_sequential_example():
    matrix = latency_matrix({"s.test": 10.0, "p1.test": 20.0, "p2.test": 30.0})
    graph = build_candidate_graph(CHAIN3, REGION)
    assert total_weight(graph, "latency", matrix) == pytest.approx(110.0)
    assert total_weight(graph, "rtt", matrix) == pytest.approx(220.0)
    assert total_weight(graph, "distance", matrix) == pytest.approx(5.0)


def test_total_weight_source_only():
    spec = parse_workflow("http://s.test/\n", format="lines")
    matrix = latency_matrix({"s.test": 7.0})
    assert total_weight(build_candidate_graph(spec, REGION), "latency", matrix) == 7.0


def test_total_weight_all_zero():
    matrix = latency_matrix({"s.test": 0.0, "p1.test": 0.0, "p2.test": 0.0})
    graph = build_candidate_graph(CHAIN3, REGION)
    assert total_weight(graph, "latency", matrix) == 0.0


def test_total_weight_failed_channel_uses_sentinel():
    probes = {
        ("r-east", "s.test"): (None, 1.0),
        ("r-east", "p1.test"): (5.0, 1.0),
        ("r-east", "p2.test"): (5.0, 1.0),
    }
    matrix = MetricMatrix.from_pairs(dict.fromkeys(probes, 1.0), probes)
    graph = build_candidate_graph(CHAIN3, REGION)
    assert total_weight(graph, "latency", matrix) == pytest.approx(FAILURE_SENTINEL_MS + 5.0 * 4)


def test_total_weight_missing_entry_raises_coverage_error():
    matrix = latency_matrix({"s.test": 10.0, "p1.test": 20.0})
    graph = build_candidate_graph(CHAIN3, REGION)
    with pytest.raises(Exception, match="p2.test"):
        total_weight(graph, "latency", matrix)


def test_score_invariant_under_node_relabeling():
    doc = {
        "name": "relabeled",
        "sources": ["http://s.test/"],
        "nodes": [
            {"id": "alpha", "url": "http://s.test/"},
            {"id": "beta", "url": "http://p1.test/"},
            {"id": "gamma", "url": "http://p2.test/"},
        ],
        "hops": [["alpha", "beta"], ["beta", "gamma"]],
    }
    relabeled = parse_workflow(json.dumps(doc), format="dag")
    matrix = latency_matrix({"s.test": 10.0, "p1.test": 20.0, "p2.test": 30.0})
    original = total_weight(build_candidate_graph(CHAIN3, REGION), "latency", matrix)
    renamed = total_weight(build_candidate_graph(relabeled, REGION), "latency", matrix)
    assert renamed == original


@given(
    st.dictionaries(
        st.sampled_from(["s.test", "p1.test", "p2.test"]),
        st.floats(min_value=0.1, max_value=1e4),
        min_size=3,
    ),
    st.floats(min_value=0.01, max_value=100.0),
)
def test_scaling_all_values_scales_score(values, c):
    graph = build_candidate_graph(CHAIN3, REGION)
    base = total_weight(graph, "latency", latency_matrix(values))
    scaled = total_weight(
        graph, "latency", latency_matrix({h: v * c for h, v in values.items()})
    )
    assert scaled == pytest.approx(base * c, rel=1e-9)


def test_monotonicity_in_single_entry():
    graph = build_candidate_graph(CHAIN3, REGION)
    base = total_weight(graph, "latency", latency_matrix({"s.test": 10.0, "p1.test": 20.0, "p2.test": 30.0}))
    bumped = total_weight(graph, "latency", latency_matrix({"s.test": 10.0, "p1.test": 21.0, "p2.test": 30.0}))
    assert bumped > base


@given(dag_specs())
def test_host_weights_count_two_per_hop_plus_terminals(spec):
    terminals = len(spec.nodes) - len({u for u, _ in spec.hops})
    assert sum(spec.host_weights.values()) == 2 * len(spec.hops) + terminals


@given(
    dag_specs(),
    st.sampled_from(["distance", "latency", "rtt"]),
    st.dictionaries(
        st.sampled_from([f"h{i}.test" for i in range(4)]),
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=1e6)),
        min_size=4,
    ),
)
def test_total_weight_equals_per_edge_sum(spec, channel, values):
    # None is a failed channel: it costs the sentinel once per edge
    distances = {("r-east", host): v for host, v in values.items()}
    matrix = MetricMatrix.from_pairs(distances, {key: (v, v) for key, v in distances.items()})
    per_edge = sum(
        FAILURE_SENTINEL_MS if values[peer] is None else values[peer] for peer in spec.edge_peers
    )
    score = total_weight(build_candidate_graph(spec, REGION), channel, matrix)
    assert score == pytest.approx(per_edge, rel=1e-9)
