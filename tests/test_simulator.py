import functools
import json
import math
import operator

import pytest
from hypothesis import given, strategies as st

import regionrank.simulator
from conftest import dag_specs, gather_sim, make_consistent_case
from regionrank.candidate import build_candidate_graph, total_weight
from regionrank.geo import EARTH_RADIUS_KM, GeoPoint, haversine_km, haversine_row
from regionrank.regions import Region, RegionCatalog
from regionrank.simulator import (
    SimEnvironment,
    SimulatedProbe,
    SimulationError,
    best_region_oracle,
    load_env,
    sim_execution_time,
    sim_latency,
)
from regionrank.workflow import parse_workflow

ORIGIN = GeoPoint(0.0, 0.0)
# a pure meridian arc of exactly 1000 km on the model sphere
KM1000 = GeoPoint(math.degrees(1000.0 / EARTH_RADIUS_KM), 0.0)


def test_same_host_zero_latency():
    env = SimEnvironment(node_locations={"a.test": ORIGIN})
    assert sim_latency(env, "a.test", "a.test") == 0.0


def test_latency_linear_in_distance():
    env = SimEnvironment(node_locations={"a.test": ORIGIN, "b.test": KM1000})
    assert sim_latency(env, "a.test", "b.test") == pytest.approx(20.0, abs=1e-9)


def test_override_beats_distance():
    env = SimEnvironment(
        node_locations={"a.test": ORIGIN, "b.test": KM1000},
        latency_overrides={("a.test", "b.test"): 500.0},
    )
    assert sim_latency(env, "a.test", "b.test") == 500.0
    assert sim_latency(env, "b.test", "a.test") == 500.0


def test_override_requires_located_hosts():
    env = SimEnvironment(
        node_locations={"a.test": ORIGIN},
        latency_overrides={("a.test", "ghost.test"): 1.0},
    )
    with pytest.raises(SimulationError, match="ghost.test"):
        sim_latency(env, "a.test", "ghost.test")


def test_symmetry_without_noise():
    env = SimEnvironment(
        node_locations={"a.test": GeoPoint(10, 20), "b.test": GeoPoint(-30, 40)}
    )
    assert sim_latency(env, "a.test", "b.test") == sim_latency(env, "b.test", "a.test")


def test_noise_is_symmetric_and_sample_keyed():
    env = SimEnvironment(
        node_locations={"a.test": GeoPoint(10, 20), "b.test": GeoPoint(-30, 40)},
        noise_sigma_ms=2.0,
        seed=123,
    )
    v1 = sim_latency(env, "a.test", "b.test", sample=3)
    assert v1 == sim_latency(env, "b.test", "a.test", sample=3)
    assert v1 == sim_latency(env, "a.test", "b.test", sample=3)
    assert v1 != sim_latency(env, "a.test", "b.test", sample=4)


def test_noise_depends_on_seed():
    def make(seed):
        return SimEnvironment(
            node_locations={"a.test": ORIGIN, "b.test": KM1000},
            noise_sigma_ms=1.0,
            seed=seed,
        )

    assert sim_latency(make(1), "a.test", "b.test") != sim_latency(make(2), "a.test", "b.test")


@given(st.integers(min_value=0, max_value=500))
def test_noise_truncated_at_zero(sample):
    env = SimEnvironment(
        node_locations={"a.test": ORIGIN, "b.test": ORIGIN},
        noise_sigma_ms=50.0,
        seed=9,
    )
    assert sim_latency(env, "a.test", "b.test", sample=sample) >= 0.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"base_latency_per_km": -0.1},
        {"bandwidth_mbps": 0.0},
        {"bandwidth_mbps": -5.0},
        {"noise_sigma_ms": -1.0},
        {"processing_s": -1.0},
        {"bandwidth_mbps": math.nan},
        {"bandwidth_mbps": math.inf},
        {"base_latency_per_km": math.nan},
        {"service_overhead_ms": math.inf},
        {"processing_s": math.inf},
        {"noise_sigma_ms": math.nan},
        {"seed": math.nan},
        {"latency_overrides": {"a|b": math.nan}},
        {"latency_overrides": {"a|b": math.inf}},
        {"latency_overrides": {"a|b": -1.0}},
        # a host key no workflow host can have, in either form of key
        {"latency_overrides": {("A.test", "b.test"): 1.0}},
        {"latency_overrides": {"a.test|b.test:80": 1.0}},
        {"latency_overrides": {("a.test", "::1"): 1.0}},
    ],
)
def test_environment_rejects_bad_parameters(kwargs):
    with pytest.raises(SimulationError):
        SimEnvironment(node_locations={}, **kwargs)


def test_conflicting_override_spellings_rejected():
    with pytest.raises(SimulationError, match="conflicting"):
        SimEnvironment(
            node_locations={},
            latency_overrides={("a", "b"): 1.0, ("b", "a"): 2.0},
        )


def test_string_override_keys_normalised():
    env = SimEnvironment(
        node_locations={"a.test": ORIGIN, "b.test": ORIGIN},
        latency_overrides={"b.test|a.test": 7.0},
    )
    assert sim_latency(env, "a.test", "b.test") == 7.0


# --- execution time model ---


CHAIN1 = parse_workflow("http://s.test/\nhttp://p.test/\n", format="lines")


def test_bandwidth_only_execution_time():
    env = SimEnvironment(
        node_locations={"orch.test": ORIGIN, "s.test": ORIGIN, "p.test": ORIGIN},
        bandwidth_mbps=100.0,
    )
    # 3 edges, 12.5 MB each at 100 Mbps = 1 s per edge
    t = sim_execution_time(env, CHAIN1, "orch.test", data_mb=12.5)
    assert t == pytest.approx(3.0)


def test_zero_data_leaves_latency_and_processing():
    env = SimEnvironment(
        node_locations={"orch.test": ORIGIN, "s.test": ORIGIN, "p.test": KM1000},
        processing_s=0.5,
    )
    # edges s->R (0 km), R->p (1000 km), p->R (1000 km); one processor hop
    t = sim_execution_time(env, CHAIN1, "orch.test", data_mb=0.0)
    assert t == pytest.approx(0.020 + 0.020 + 0.5, abs=1e-9)


def test_two_processor_pipeline_at_published_scale():
    # 2 processing nodes moving 37 MB per hop at 20 Mbps with slow links
    spec = parse_workflow("http://s.test/\nhttp://p1.test/\nhttp://p2.test/\n", format="lines")
    env = SimEnvironment(
        node_locations={h: ORIGIN for h in ("orch.test", "s.test", "p1.test", "p2.test")},
        latency_overrides={
            ("orch.test", "s.test"): 50.0,
            ("orch.test", "p1.test"): 50.0,
            ("orch.test", "p2.test"): 50.0,
        },
        bandwidth_mbps=20.0,
        processing_s=2.0,
    )
    t = sim_execution_time(env, spec, "orch.test", data_mb=37.0)
    assert t == pytest.approx(5 * (0.05 + 37.0 * 8 / 20.0) + 2 * 2.0)
    assert 48.0 <= t <= 125.0


def test_execution_time_rejects_negative_data():
    env = SimEnvironment(node_locations={"orch.test": ORIGIN, "s.test": ORIGIN, "p.test": ORIGIN})
    with pytest.raises(SimulationError):
        sim_execution_time(env, CHAIN1, "orch.test", data_mb=-1.0)


# --- oracle ---


def test_oracle_single_region_catalog():
    spec, catalog, env = make_consistent_case(seed=0)
    solo = RegionCatalog((catalog.regions[0],))
    best, table = best_region_oracle(env, spec, solo)
    assert best == catalog.regions[0].id
    assert len(table) == 1


def test_oracle_reads_host_keys_without_parsing_urls(
    worked_spec, catalog8, worked_env, urlsplit_calls
):
    # each node's host key was fixed when the workflow was parsed
    best_region_oracle(worked_env, worked_spec, catalog8)
    assert urlsplit_calls == []


def test_oracle_order_matches_distance_order_in_consistent_env():
    spec, catalog, env = make_consistent_case(seed=17)
    _, table = best_region_oracle(env, spec, catalog)
    matrix = gather_sim(spec, catalog, env)
    by_distance = sorted(
        (total_weight(build_candidate_graph(spec, r), "distance", matrix), r.id)
        for r in catalog
    )
    assert [rid for _, rid in by_distance] == [rid for rid, _ in table]


def test_oracle_table_is_ascending_and_complete():
    spec, catalog, env = make_consistent_case(seed=3)
    best, table = best_region_oracle(env, spec, catalog)
    times = [t for _, t in table]
    assert times == sorted(times)
    assert {rid for rid, _ in table} == {r.id for r in catalog}
    assert best == table[0][0]


def test_oracle_determinism():
    spec, catalog, env = make_consistent_case(seed=5)
    assert best_region_oracle(env, spec, catalog) == best_region_oracle(env, spec, catalog)


def test_adversarial_override_beats_geography(worked_spec, catalog8, adversarial_env):
    best, _ = best_region_oracle(adversarial_env, worked_spec, catalog8)
    assert best == "sa-east-1"
    # and sa-east-1 is nowhere near the top geographically
    region = catalog8.by_id("sa-east-1")
    matrix = gather_sim(worked_spec, catalog8, adversarial_env)
    distances = sorted(
        (total_weight(build_candidate_graph(worked_spec, r), "distance", matrix), r.id)
        for r in catalog8
    )
    assert [rid for _, rid in distances].index(region.id) >= 3


def per_edge_execution_time(env, spec, orchestrator_host, data_mb, run):
    """The execution-time model as a plain loop: one sim_latency call per candidate edge."""
    transfer_s = data_mb * 8.0 / env.bandwidth_mbps
    total = 0.0
    for i, peer in enumerate(spec.edge_peers):
        total += sim_latency(env, orchestrator_host, peer, sample=f"run{run}/edge{i}") / 1000.0 + transfer_s
    total += env.processing_s * spec.invocations
    return total


@st.composite
def chain_specs(draw):
    """Random lines-format chains over the hosts h0..h3.test, hosts repeating."""
    hosts = draw(st.lists(st.integers(0, 3), min_size=1, max_size=8))
    return parse_workflow("".join(f"http://h{h}.test/n{i}\n" for i, h in enumerate(hosts)), format="lines")


_SIM_HOSTS = [f"h{i}.test" for i in range(4)] + ["p0.test", "p1.test"]
_points = st.builds(GeoPoint, st.floats(-90.0, 90.0), st.floats(-180.0, 180.0))


@st.composite
def sim_worlds(draw):
    """(environment, catalog): regions probe from p0, p1 or a workflow host, overrides may be 0 ms."""
    locations = {host: draw(_points) for host in _SIM_HOSTS}
    pairs = [(a, b) for i, a in enumerate(_SIM_HOSTS) for b in _SIM_HOSTS[i:]]
    overrides = draw(st.dictionaries(
        st.sampled_from(pairs), st.one_of(st.just(0.0), st.floats(0.0, 500.0)), max_size=8,
    ))
    env = SimEnvironment(
        node_locations=locations,
        latency_overrides=overrides,
        base_latency_per_km=draw(st.floats(0.0, 0.05)),
        bandwidth_mbps=draw(st.floats(1.0, 1000.0)),
        processing_s=draw(st.floats(0.0, 2.0)),
        # 0 takes the noise-free path; 500 ms clamps many samples at 0
        noise_sigma_ms=draw(st.sampled_from([0.0, 2.0, 500.0])),
        seed=draw(st.integers(0, 2**32)),
    )
    probe_hosts = draw(st.lists(st.sampled_from(["p0.test", "p1.test", "h0.test"]), min_size=1, max_size=4))
    catalog = RegionCatalog(tuple(
        Region(f"r{j}", host, locations[host]) for j, host in enumerate(probe_hosts)
    ))
    return env, catalog


@given(st.one_of(chain_specs(), dag_specs()), sim_worlds(),
       st.sampled_from([0.0, 1.0, 3.7]), st.integers(0, 3))
def test_execution_time_equals_the_per_edge_sum(spec, world, data_mb, run):
    env, catalog = world
    for region in catalog:
        assert (sim_execution_time(env, spec, region.probe_host, data_mb, run=run)
                == per_edge_execution_time(env, spec, region.probe_host, data_mb, run))
    times = sorted((per_edge_execution_time(env, spec, r.probe_host, data_mb, 0), r.id) for r in catalog)
    table = tuple((region_id, t) for t, region_id in times)
    assert best_region_oracle(env, spec, catalog, data_mb) == (table[0][0], table)


@given(sim_worlds(), st.sampled_from(_SIM_HOSTS), st.integers(1, 5))
def test_probe_latency_is_the_mean_of_per_sample_latencies(world, host, k):
    env, catalog = world
    for region in catalog:
        samples = [sim_latency(env, region.probe_host, host, sample=f"lat{i}") for i in range(k)]
        # added left to right: sum() of floats is compensated from Python 3.12 on
        expected = functools.reduce(operator.add, samples, 0.0) / len(samples)
        assert SimulatedProbe(env).measure_latency(region, f"http://{host}/", k).hex() == expected.hex()


@given(sim_worlds())
def test_every_base_latency_is_the_pinned_value_or_the_distance(world):
    """The simulator's one override rule, against the rule spelled out pair by pair."""
    env, _ = world
    quiet = env.replace(noise_sigma_ms=0.0)
    located = {host: env.locate(host) for host in _SIM_HOSTS}
    for a in _SIM_HOSTS:
        expected = {}
        for b in _SIM_HOSTS:
            pair = (a, b) if a <= b else (b, a)
            expected[b] = (env.latency_overrides[pair] if pair in env.latency_overrides
                           else env.base_latency_per_km * haversine_km(located[a], located[b]))
            assert sim_latency(quiet, a, b) == expected[b]
        assert regionrank.simulator._base_row(env, a, located[a], located) == [expected[b] for b in located]


def test_pinned_is_derived_from_the_overrides():
    env = SimEnvironment(latency_overrides={"b.test|a.test": 7.0, ("a.test", "a.test"): 0.0})
    assert env.pinned == {"a.test": {"b.test": 7.0, "a.test": 0.0}, "b.test": {"a.test": 7.0}}
    assert env == SimEnvironment(latency_overrides={("a.test", "b.test"): 7.0, "a.test|a.test": 0.0})
    assert env.replace(latency_overrides={}).pinned == {}
    with pytest.raises(SimulationError, match="unknown"):
        load_env('{"pinned": {}}')


@pytest.fixture
def haversines(monkeypatch):
    """(origin, point) of each distance the simulator computes from now on."""
    pairs = []

    def counting_row(origin, points):
        points = list(points)
        pairs.extend((origin, point) for point in points)
        return haversine_row(origin, points)

    monkeypatch.setattr(regionrank.simulator, "haversine_row", counting_row)
    return pairs


def test_oracle_sweep_computes_each_pair_once(haversines, derivations):
    spec, catalog, env = make_consistent_case(seed=11)
    best_region_oracle(env, spec, catalog)

    hosts = len(set(spec.edge_peers))
    assert hosts < len(spec.edge_peers)  # hosts repeat, so per-edge work would cost more
    assert len(haversines) == len(catalog.regions) * hosts
    assert len(derivations) == 1 and derivations[0] is spec  # when the spec was made
    # each region's row is used once, so the sweep keeps none
    assert env.base_rows == {}


def test_runs_from_one_vantage_compute_its_row_once(haversines):
    spec, catalog, env = make_consistent_case(seed=13)
    hosts = len(spec.host_weights)
    vantage_a, vantage_b = (region.probe_host for region in catalog.regions[:2])
    for run in range(5):
        sim_execution_time(env, spec, vantage_a, run=run)
    assert len(haversines) == hosts
    for run in range(5):
        sim_execution_time(env, spec, vantage_b, run=run)
        sim_execution_time(env, spec, vantage_a, data_mb=2.0, run=run)
    assert len(haversines) == 2 * hosts
    assert set(env.base_rows) == {(vantage, tuple(spec.host_weights)) for vantage in (vantage_a, vantage_b)}


@given(st.lists(st.one_of(chain_specs(), dag_specs()), min_size=2, max_size=2), sim_worlds(),
       st.lists(st.tuples(st.integers(0, 1), st.sampled_from(_SIM_HOSTS),
                          st.sampled_from([0.0, 1.0, 3.7]), st.integers(0, 3)), min_size=1, max_size=12))
def test_a_warm_environment_runs_as_a_cold_copy(specs, world, calls):
    """Runs that read remembered rows equal runs on a copy that remembers nothing."""
    env, _ = world
    for which, vantage, data_mb, run in calls:
        warm = sim_execution_time(env, specs[which], vantage, data_mb, run=run)
        cold = sim_execution_time(env.replace(), specs[which], vantage, data_mb, run=run)
        assert warm.hex() == cold.hex()


def test_the_row_memo_is_not_part_of_the_environment_value():
    env = SimEnvironment(node_locations={"orch.test": ORIGIN, "s.test": ORIGIN, "p.test": KM1000})
    before = repr(env)
    sim_execution_time(env, CHAIN1, "orch.test")
    assert env.base_rows == {("orch.test", ("s.test", "p.test")): [0.0, pytest.approx(20.0)]}
    cold = env.replace()
    assert cold.base_rows == {}
    assert cold == env and repr(env) == repr(cold) == before
    with pytest.raises(SimulationError, match="unknown"):
        load_env('{"base_rows": {}}')


@pytest.mark.parametrize("orchestrator_host,located", [
    ("ghost.test", {"s.test", "p.test"}),
    ("orch.test", {"orch.test", "s.test"}),
], ids=["orchestrator", "workflow-host"])
def test_an_unknown_host_fails_every_run(orchestrator_host, located):
    env = SimEnvironment(node_locations={host: ORIGIN for host in located})
    for run in range(3):
        with pytest.raises(SimulationError, match="no location"):
            sim_execution_time(env, CHAIN1, orchestrator_host, run=run)
    assert env.base_rows == {}


def test_sweep_then_runs_derive_the_workflow_once(derivations):
    spec, catalog, env = make_consistent_case(seed=12)
    best_region_oracle(env, spec, catalog)
    for run in range(5):
        sim_execution_time(env, spec, catalog.regions[0].probe_host, run=run)
    assert len(derivations) == 1 and derivations[0] is spec


# --- env file round-trip ---


def test_env_json_round_trip():
    env = SimEnvironment(
        node_locations={"a.test": GeoPoint(1.5, -2.5), "b.test": GeoPoint(3.0, 4.0)},
        latency_overrides={("b.test", "a.test"): 12.0},
        base_latency_per_km=0.03,
        bandwidth_mbps=50.0,
        service_overhead_ms=1.0,
        processing_s=0.25,
        noise_sigma_ms=0.5,
        seed=99,
    )
    doc = {
        "node_locations": {"a.test": {"lat": 1.5, "lon": -2.5}, "b.test": {"lat": 3.0, "lon": 4.0}},
        "latency_overrides": {"a.test|b.test": 12.0},
        "base_latency_per_km": 0.03,
        "bandwidth_mbps": 50.0,
        "service_overhead_ms": 1.0,
        "processing_s": 0.25,
        "noise_sigma_ms": 0.5,
        "seed": 99,
    }
    assert load_env(json.dumps(doc)) == env


def test_load_env_rejects_unknown_fields():
    with pytest.raises(SimulationError, match="unknown"):
        load_env('{"node_locations": {}, "bandwith_mbps": 10}')


def test_load_env_rejects_bad_override_key():
    with pytest.raises(SimulationError, match="hostA|hostB"):
        load_env('{"node_locations": {}, "latency_overrides": {"no-separator": 1.0}}')


def test_load_env_rejects_bad_location():
    with pytest.raises(SimulationError, match="x.test"):
        load_env('{"node_locations": {"x.test": {"lat": 120, "lon": 0}}}')


@pytest.mark.parametrize("lat", ["true", '"5"', "null"])
def test_load_env_rejects_location_that_is_not_a_number(lat):
    # the same coordinate rule as the region catalog: JSON numbers, not booleans
    with pytest.raises(SimulationError) as err:
        load_env('{"node_locations": {"x.test": {"lat": %s, "lon": 0}}}' % lat)
    value = {"true": "True", '"5"': "'5'", "null": "None"}[lat]
    assert str(err.value) == (
        f"bad environment field 'node_locations': bad location for host 'x.test': "
        f"lat and lon must be numbers, not {value} and 0"
    )


@pytest.mark.parametrize("doc, message", [
    ('{"bandwidth_mbps": "100"}', "bad environment field 'bandwidth_mbps': value must be a JSON number, not '100'"),
    ('{"processing_s": true}', "bad environment field 'processing_s': value must be a JSON number, not True"),
    ('{"seed": 1.7}', "bad environment field 'seed': value must be a JSON integer, not 1.7"),
    ('{"seed": 1.0}', "bad environment field 'seed': value must be a JSON integer, not 1.0"),
    ('{"seed": false}', "bad environment field 'seed': value must be a JSON integer, not False"),
    ('{"latency_overrides": {"a|b": true}}',
     "bad environment field 'latency_overrides': value must be a JSON number, not True"),
    ('{"latency_overrides": {"a|b": "3"}}',
     "bad environment field 'latency_overrides': value must be a JSON number, not '3'"),
    ('{"bandwidth_mbps": 1%s}' % ("0" * 400),
     "bad environment field 'bandwidth_mbps': int too large to convert to float"),
])
def test_load_env_rejects_wrong_json_types(doc, message):
    with pytest.raises(SimulationError) as err:
        load_env(doc)
    assert str(err.value) == message


def test_load_env_accepts_integers_for_numbers_and_a_huge_seed():
    env = load_env('{"bandwidth_mbps": 100, "seed": 1%s}' % ("0" * 400))
    assert env.bandwidth_mbps == 100.0 and type(env.bandwidth_mbps) is float
    assert env.seed == 10 ** 400


def test_bundled_envs_parse(worked_env, adversarial_env):
    assert worked_env.processing_s == 0.5
    assert adversarial_env.latency_overrides
    assert all(v == 0.5 for v in adversarial_env.latency_overrides.values())
