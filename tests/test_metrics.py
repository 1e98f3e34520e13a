import json
import re
import socket
import threading
from collections.abc import MutableSet
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

import pytest
from hypothesis import given, settings, strategies as st

from conftest import raw_peer
from regionrank.geo import FixtureResolver, GeoPoint, haversine_km
from regionrank.harness import transform_service
from regionrank.metrics import (
    CHANNELS,
    CoverageError,
    LiveProbe,
    MetricMatrix,
    ProbeError,
    RemoteAgentProbe,
    _split_host,
    gather_metric_matrix,
)
from regionrank.regions import Region
from regionrank.simulator import SimEnvironment, SimulatedProbe
from regionrank.workflow import endpoint_host, parse_workflow, distinct_nodes

REGION = Region("r-test", "probe.test", GeoPoint(10.0, 20.0))


def env_with_override(latency_ms, **kwargs):
    return SimEnvironment(
        node_locations={"probe.test": GeoPoint(10.0, 20.0), "node.test": GeoPoint(11.0, 21.0)},
        latency_overrides={("probe.test", "node.test"): latency_ms},
        **kwargs,
    )


def test_simulated_latency_mean_of_constant_samples():
    probe = SimulatedProbe(env_with_override(12.5))
    assert probe.measure_latency(REGION, "node.test", 4) == pytest.approx(12.5)


def test_simulated_rtt_is_twice_latency_plus_overhead():
    probe = SimulatedProbe(env_with_override(10.0, service_overhead_ms=3.0))
    assert probe.measure_http_rtt(REGION, "http://node.test/path") == pytest.approx(23.0)


def test_simulated_noise_is_reproducible_per_seed():
    a = SimulatedProbe(env_with_override(12.5, noise_sigma_ms=1.0, seed=5))
    b = SimulatedProbe(env_with_override(12.5, noise_sigma_ms=1.0, seed=5))
    c = SimulatedProbe(env_with_override(12.5, noise_sigma_ms=1.0, seed=6))
    va = a.measure_latency(REGION, "node.test", 4)
    assert va == b.measure_latency(REGION, "node.test", 4)
    assert va != c.measure_latency(REGION, "node.test", 4)
    assert va != 12.5


def test_simulated_probe_unknown_host_is_probe_error():
    probe = SimulatedProbe(env_with_override(1.0))
    with pytest.raises(ProbeError):
        probe.measure_latency(REGION, "ghost.test", 1)


def test_probe_latency_rejects_zero_samples():
    probe = SimulatedProbe(env_with_override(1.0))
    nodes = distinct_nodes(parse_workflow("http://node.test/\n", format="lines"))
    with pytest.raises(ValueError, match="sample count"):
        gather_metric_matrix(probe, FixtureResolver({}), [REGION], nodes, k=0)


@pytest.mark.parametrize("host, split", [
    ("example.com", ("example.com", None)),
    ("example.com:8080", ("example.com", 8080)),
    ("[::1]", ("::1", None)),
    ("[::1]:8080", ("::1", 8080)),
])
def test_split_host_parses_bracketed_ipv6(host, split):
    assert _split_host(host) == split


# --- live probe on loopback ---


def test_live_http_rtt_includes_injected_delay():
    with transform_service(delay_ms=50.0) as svc:
        probe = LiveProbe()
        # min of three shots filters scheduler noise; 25 ms local slack bound
        rtt = min(probe.measure_http_rtt(REGION, svc.url) for _ in range(3))
        assert 50.0 <= rtt <= 75.0


def test_live_http_rtt_times_error_responses_too():
    with transform_service() as svc:
        probe = LiveProbe()
        rtt = probe.measure_http_rtt(REGION, svc.url + "missing")
        assert rtt > 0.0


def test_live_http_rtt_connection_refused_is_probe_error():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    probe = LiveProbe(deadline_s=1.0)
    with pytest.raises(ProbeError):
        probe.measure_http_rtt(REGION, f"http://127.0.0.1:{port}/")


def test_live_http_rtt_reply_no_client_parses_is_probe_error(hostile_peer):
    with pytest.raises(ProbeError, match=f"^GET {re.escape(hostile_peer)} failed: "):
        LiveProbe(deadline_s=2.0).measure_http_rtt(REGION, hostile_peer)


def test_live_http_rtt_truncated_error_body_is_probe_error():
    # an error status completes the round trip only once its whole body is read
    with raw_peer(b"HTTP/1.1 404 Not Found\r\nContent-Length: 100\r\n\r\nshort") as url:
        with pytest.raises(ProbeError, match=f"^GET {re.escape(url)} failed: "):
            LiveProbe(deadline_s=2.0).measure_http_rtt(REGION, url)


def test_live_latency_host_name_idna_cannot_encode_is_probe_error():
    host = "a" * 64 + ".test"  # one label past the 63-character limit
    with pytest.raises(ProbeError, match="^cannot resolve"):
        LiveProbe(deadline_s=1.0).measure_latency(REGION, host, k=1)


def test_live_latency_tcp_fallback_on_explicit_port():
    with transform_service() as svc:
        probe = LiveProbe()
        ms = probe.measure_latency(REGION, f"127.0.0.1:{svc.port}", k=3)
        assert 0.0 < ms < 1000.0


def test_live_latency_over_ipv6_uses_tcp():
    try:
        server = socket.create_server(("::1", 0), family=socket.AF_INET6)
    except OSError:
        pytest.skip("no IPv6 loopback")
    with server:
        host = endpoint_host(f"http://[::1]:{server.getsockname()[1]}/")
        ms = LiveProbe(deadline_s=1.0).measure_latency(REGION, host, k=2)
    assert 0.0 < ms < 1000.0


def test_live_latency_unreachable_port_is_probe_error():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    probe = LiveProbe(deadline_s=1.0)
    with pytest.raises(ProbeError):
        probe.measure_latency(REGION, f"127.0.0.1:{port}", k=1)


def test_live_latency_unresolvable_host_is_probe_error():
    probe = LiveProbe(deadline_s=1.0)
    with pytest.raises(ProbeError):
        probe.measure_latency(REGION, "definitely-not-a-real-host.invalid", k=1)


# --- remote agent probe ---


# rtt bodies the test agent returns for these probed hosts: valid JSON, but
# no finite, non-negative number of ms
_HOSTILE_RTT_BODIES = {
    "nan.test": b'{"rtt_ms": NaN}',
    "infinity.test": b'{"rtt_ms": Infinity}',
    "negative.test": b'{"rtt_ms": -5}',
    "boolean.test": b'{"rtt_ms": true}',
    "string.test": b'{"rtt_ms": "84"}',
}
# valid JSON nested deeper than the decoder goes
_NESTED_BODY = b"[" * 200_000 + b"]" * 200_000


class _AgentHandler(BaseHTTPRequestHandler):
    def log_message(self, format, *args):
        pass

    def do_GET(self):
        parts = urlsplit(self.path)
        query = parse_qs(parts.query)
        if parts.path == "/probe":
            target = query["target"][0]
            if target == "broken.test":
                self.send_error(500)
                return
            body = json.dumps({"latency_ms": 42.0, "k": int(query["k"][0])}).encode()
        elif parts.path == "/probe_http":
            host = urlsplit(query["url"][0]).hostname
            if "garbage" in query["url"][0]:
                body = b"not json"
            elif host == "nested.test":
                body = _NESTED_BODY
            elif host == "array.test":
                body = b"[84.0]"
            elif host in _HOSTILE_RTT_BODIES:
                body = _HOSTILE_RTT_BODIES[host]
            elif host == "zero.test":
                body = b'{"rtt_ms": 0}'
            else:
                body = json.dumps({"rtt_ms": 84.0}).encode()
        else:
            self.send_error(404)
            return
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture()
def agent_url():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _AgentHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


def test_remote_agent_probe_roundtrip(agent_url):
    probe = RemoteAgentProbe({"r-test": agent_url})
    assert probe.measure_latency(REGION, "node.test", k=4) == 42.0
    assert probe.measure_http_rtt(REGION, "http://node.test/") == 84.0


def test_remote_agent_probe_missing_agent(agent_url):
    probe = RemoteAgentProbe({"other-region": agent_url})
    with pytest.raises(ProbeError, match="r-test"):
        probe.measure_latency(REGION, "node.test", k=1)


def test_remote_agent_probe_server_error(agent_url):
    probe = RemoteAgentProbe({"r-test": agent_url})
    with pytest.raises(ProbeError):
        probe.measure_latency(REGION, "broken.test", k=1)


def _assert_gather_fails_only_rtt(probe, host):
    nodes = distinct_nodes(parse_workflow(f"http://{host}/\n", format="lines"))
    matrix = gather_metric_matrix(probe, FixtureResolver({host: GeoPoint(1, 1)}), [REGION], nodes)
    assert matrix.probes == {("r-test", host): (42.0, None)}
    assert matrix.failed_channels() == [("r-test", host, "rtt")]


@pytest.mark.parametrize("host", ["garbage.test", "nested.test", "array.test"])
def test_remote_agent_probe_malformed_body(agent_url, host):
    probe = RemoteAgentProbe({"r-test": agent_url})
    with pytest.raises(ProbeError, match="malformed body from agent call"):
        probe.measure_http_rtt(REGION, f"http://{host}/")
    # only that channel fails; the gather goes on
    _assert_gather_fails_only_rtt(probe, host)


@pytest.mark.parametrize("host", _HOSTILE_RTT_BODIES)
def test_remote_agent_probe_rejects_a_value_that_is_no_duration(agent_url, host):
    probe = RemoteAgentProbe({"r-test": agent_url})
    with pytest.raises(ProbeError, match="returned a malformed body") as info:
        probe.measure_http_rtt(REGION, f"http://{host}/")
    assert "not a finite, non-negative JSON number" in str(info.value.__cause__)
    # only that channel fails; the gather goes on
    _assert_gather_fails_only_rtt(probe, host)


def test_remote_agent_probe_accepts_an_integer_zero(agent_url):
    rtt = RemoteAgentProbe({"r-test": agent_url}).measure_http_rtt(REGION, "http://zero.test/")
    assert rtt == 0.0
    assert type(rtt) is float


def test_remote_agent_probe_reply_no_client_parses_fails_both_channels(hostile_peer):
    probe = RemoteAgentProbe({"r-test": hostile_peer})
    with pytest.raises(ProbeError, match="^GET "):
        probe.measure_latency(REGION, "node.test", k=1)
    with pytest.raises(ProbeError, match="^GET "):
        probe.measure_http_rtt(REGION, "http://node.test/")
    nodes = distinct_nodes(parse_workflow("http://node.test/\n", format="lines"))
    matrix = gather_metric_matrix(probe, FixtureResolver({"node.test": GeoPoint(1, 1)}), [REGION], nodes)
    assert matrix.probes == {("r-test", "node.test"): (None, None)}


# --- matrix gathering ---


WORKFLOW = parse_workflow(
    "http://node00.test/a\nhttp://node01.test/\nhttp://node02.test/\n", format="lines"
)


def sim_setup(n_regions=8):
    locations = {f"node{i:02d}.test": GeoPoint(float(i), float(i)) for i in range(3)}
    regions = []
    for j in range(n_regions):
        point = GeoPoint(float(10 + j), float(10 + j))
        host = f"probe-{j}.test"
        locations[host] = point
        regions.append(Region(f"region-{j}", host, point))
    env = SimEnvironment(node_locations=locations)
    return regions, env


def test_gather_eight_regions_three_nodes_is_24_entries():
    regions, env = sim_setup()
    matrix = gather_metric_matrix(
        SimulatedProbe(env), env.resolver(), regions, distinct_nodes(WORKFLOW)
    )
    assert len(matrix.entries) == 24
    assert matrix.failed_channels() == []


def test_gather_single_pair():
    regions, env = sim_setup(n_regions=1)
    spec = parse_workflow("http://node00.test/\n", format="lines")
    matrix = gather_metric_matrix(
        SimulatedProbe(env), env.resolver(), regions, distinct_nodes(spec)
    )
    key = ("region-0", "node00.test")
    assert matrix.distances[key] is not None
    latency, rtt = matrix.probes[key]
    assert latency is not None
    assert rtt is not None


class _StaticProbe:
    def measure_latency(self, region, host, k):
        return 5.0

    def measure_http_rtt(self, region, url):
        return 11.0


def test_gather_missing_geolocation_fails_distance_only():
    region = Region("r", "p.test", GeoPoint(0, 0))
    spec = parse_workflow("http://located.test/\nhttp://unknown.test/\n", format="lines")
    resolver = FixtureResolver({"located.test": GeoPoint(1, 1)})
    matrix = gather_metric_matrix(_StaticProbe(), resolver, [region], distinct_nodes(spec))
    assert matrix.distances["r", "unknown.test"] is None
    assert matrix.probes["r", "unknown.test"] == (5.0, 11.0)
    assert matrix.failed_channels() == [("r", "unknown.test", "distance")]


class _CountingProbe:
    def __init__(self):
        self.latency_calls = []
        self.rtt_calls = []
        self.lock = threading.Lock()

    def measure_latency(self, region, host, k):
        with self.lock:
            self.latency_calls.append((region.id, host))
        return 1.0

    def measure_http_rtt(self, region, url):
        with self.lock:
            self.rtt_calls.append((region.id, url))
        return 2.0


def test_gather_probes_each_host_once_despite_repeats():
    region = Region("r", "p.test", GeoPoint(0, 0))
    spec = parse_workflow(
        "http://a.test/\nhttp://b.test/\nhttp://a.test/extra\n", format="lines"
    )
    probe = _CountingProbe()
    resolver = FixtureResolver({"a.test": GeoPoint(1, 1), "b.test": GeoPoint(2, 2)})
    gather_metric_matrix(probe, resolver, [region], distinct_nodes(spec))
    assert sorted(probe.latency_calls) == [("r", "a.test"), ("r", "b.test")]
    # rtt is probed against the first URL seen for the host
    assert sorted(probe.rtt_calls) == [("r", "http://a.test/"), ("r", "http://b.test/")]


def test_gather_parallelism_does_not_change_results():
    regions, env = sim_setup()
    nodes = distinct_nodes(WORKFLOW)
    serial = gather_metric_matrix(SimulatedProbe(env), env.resolver(), regions, nodes,
                                  parallelism=1)
    parallel = gather_metric_matrix(SimulatedProbe(env), env.resolver(), regions, nodes,
                                    parallelism=8)
    assert list(serial.distances.items()) == list(parallel.distances.items())
    assert list(serial.probes.items()) == list(parallel.probes.items())


class _FailingProbe(_StaticProbe):
    def measure_latency(self, region, host, k):
        if host == "down.test":
            raise ProbeError("down")
        return 5.0


class _Picker:
    """A probe_regions function that returns `regions` and keeps each matrix it is given."""

    def __init__(self, regions):
        self.regions = regions
        self.seen = []

    def __call__(self, distances):
        self.seen.append(distances)
        return self.regions


def test_gather_probes_only_the_named_regions():
    regions, env = sim_setup(n_regions=4)
    probe = _CountingProbe()
    nodes = distinct_nodes(WORKFLOW)
    pick = _Picker(regions[1:3])
    matrix = gather_metric_matrix(probe, env.resolver(), regions, nodes, parallelism=1,
                                  probe_regions=pick)
    # called once, with the distance-only matrix whose distances are returned
    [seen] = pick.seen
    assert seen.probes == {}
    assert seen.distances == matrix.distances
    assert sorted({region for region, _ in probe.latency_calls}) == ["region-1", "region-2"]
    assert len(probe.rtt_calls) == 2 * 3
    assert len(matrix.entries) == 4 * 3
    full = gather_metric_matrix(SimulatedProbe(env), env.resolver(), regions, nodes)
    assert matrix.distances == full.distances
    assert list(matrix.probes) == [
        (region_id, node.host) for region_id in ("region-1", "region-2") for node in nodes
    ]
    assert matrix.failed_channels() == []
    assert matrix.attempted_channels() == 4 * 3 + 2 * 2 * 3


def test_gather_with_no_probe_regions_issues_no_probe():
    regions, env = sim_setup(n_regions=2)
    probe = _CountingProbe()
    matrix = gather_metric_matrix(probe, env.resolver(), regions, distinct_nodes(WORKFLOW),
                                  probe_regions=lambda _: ())
    assert probe.latency_calls == probe.rtt_calls == []
    assert matrix.probes == {}
    assert matrix.attempted_channels() == 2 * 3


def test_gather_rejects_probe_regions_outside_regions():
    regions, env = sim_setup(n_regions=2)
    with pytest.raises(ValueError, match="region-1"):
        gather_metric_matrix(_CountingProbe(), env.resolver(), regions[:1],
                             distinct_nodes(WORKFLOW), probe_regions=lambda _: regions[1:])


def test_failed_channels_never_lists_unprobed_channels():
    distances = {("r1", "a.test"): None, ("r1", "b.test"): 1.0}
    matrix = MetricMatrix(distances=distances, probes={("r1", "b.test"): (None, 2.0)})
    assert matrix.failed_channels() == [("r1", "a.test", "distance"), ("r1", "b.test", "latency")]
    assert matrix.attempted_channels() == 1 + 3


def test_matrix_entries_is_a_read_only_view_of_the_gathered_pairs():
    distances = {("r1", "a.test"): 3.0, ("r1", "b.test"): None}
    matrix = MetricMatrix(distances=distances, probes={("r1", "a.test"): (4.0, None)})
    assert list(matrix.entries) == [("r1", "a.test"), ("r1", "b.test")]
    assert not isinstance(matrix.entries, MutableSet)
    with pytest.raises(TypeError):
        matrix.entries[("r1", "c.test")] = 1.0
    distances["r1", "c.test"] = 1.0  # a view of the keys, not a copy
    assert ("r1", "c.test") in matrix.entries


def test_matrix_rejects_a_probed_pair_without_distance():
    with pytest.raises(ValueError, match="distance"):
        MetricMatrix(distances={}, probes={("r1", "a.test"): (1.0, 2.0)})


def test_matrix_column_reads_one_channel_and_names_what_is_missing():
    distances = {("r1", "a.test"): 3.0, ("r1", "b.test"): None}
    matrix = MetricMatrix(distances=distances, probes={("r1", "a.test"): (4.0, None)})
    assert matrix.column("r1", ["b.test", "a.test"], "distance") == [None, 3.0]
    assert matrix.column("r1", ["a.test"], "rtt") == [None]
    with pytest.raises(CoverageError, match="latency.*not probed"):
        matrix.column("r1", ["a.test", "b.test"], "latency")
    with pytest.raises(CoverageError, match="r1.*ghost.test"):
        matrix.column("r1", ["ghost.test"], "distance")
    with pytest.raises(ValueError, match="bogus"):
        matrix.column("r1", [], "bogus")


@pytest.mark.parametrize("channel", CHANNELS)
def test_matrix_column_missing_pair_names_it(channel):
    matrix = MetricMatrix(distances={}, probes={})
    with pytest.raises(CoverageError, match="no entry for region 'r9' and host 'ghost.test'"):
        matrix.column("r9", ["ghost.test"], channel)


def test_matrix_column_names_the_first_missing_host():
    distances = {("r1", "failed.test"): None, ("r1", "unprobed.test"): 2.0}
    matrix = MetricMatrix(distances=distances, probes={("r1", "failed.test"): (None, None)})
    hosts = ["failed.test", "unprobed.test", "ghost.test"]
    for channel in ("latency", "rtt"):
        with pytest.raises(CoverageError,
                           match=f"the {channel} channel of region 'r1' and host 'unprobed.test' was not probed"):
            matrix.column("r1", hosts, channel)
    with pytest.raises(CoverageError, match="no entry for region 'r1' and host 'ghost.test'"):
        matrix.column("r1", hosts, "distance")
    with pytest.raises(CoverageError, match="no entry for region 'r1' and host 'ghost.test'"):
        matrix.column("r1", hosts[::-1], "latency")


class _ScriptedProbe:
    """Answers from the pair's names; raises ProbeError for the (region, host, channel) in failing."""

    def __init__(self, failing):
        self.failing = failing

    def measure_latency(self, region, host, k):
        if (region.id, host, "latency") in self.failing:
            raise ProbeError("scripted latency failure")
        return float(len(region.id) + len(host))

    def measure_http_rtt(self, region, url):
        host = endpoint_host(url)
        if (region.id, host, "rtt") in self.failing:
            raise ProbeError("scripted rtt failure")
        return float(len(region.id) * len(host))


def _attempted(distance, measured):
    """(channel, value) of each channel of a pair that was measured or tried.

    measured is the pair's (latency, rtt), or None if it was not probed.
    """
    if measured is None:
        return (("distance", distance),)
    return (("distance", distance), ("latency", measured[0]), ("rtt", measured[1]))


def _bits(distances):
    """(key, hex of km or None) of each pair, in order: equal only if every float is bit-identical."""
    return [(key, None if km is None else km.hex()) for key, km in distances.items()]


_POINTS = st.builds(GeoPoint, st.floats(-90.0, 90.0), st.floats(-180.0, 180.0))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_gathered_matrix_matches_haversine_and_edge_semantics(data):
    regions = [
        Region(f"region-{j}", f"probe-{j}.test", data.draw(_POINTS))
        for j in range(data.draw(st.integers(1, 5)))
    ]
    hosts = [f"h{i}.test" for i in range(data.draw(st.integers(1, 5)))]
    located = data.draw(st.lists(st.sampled_from(hosts), unique=True))
    locations = {host: data.draw(_POINTS) for host in located}
    failing = data.draw(st.sets(st.tuples(
        st.sampled_from([region.id for region in regions]),
        st.sampled_from(hosts),
        st.sampled_from(["latency", "rtt"]),
    )))
    probe_regions = data.draw(st.lists(st.sampled_from(regions), unique_by=lambda r: r.id))
    probe = _ScriptedProbe(failing)
    nodes = distinct_nodes(parse_workflow("".join(f"http://{host}/\n" for host in hosts)))

    pick = _Picker(probe_regions)
    matrix = gather_metric_matrix(probe, FixtureResolver(locations), regions, nodes,
                                  parallelism=2, probe_regions=pick)
    [seen] = pick.seen
    assert seen.probes == {}
    assert _bits(seen.distances) == _bits(matrix.distances)

    probed_ids = {region.id for region in probe_regions}
    distances, probes = {}, {}
    for region in regions:
        for host in hosts:
            key = (region.id, host)
            distances[key] = haversine_km(region.location, locations[host]) if host in locations else None
            if region.id not in probed_ids:
                for channel in ("latency", "rtt"):
                    with pytest.raises(CoverageError, match=f"{channel} channel .* not probed"):
                        matrix.column(region.id, [host], channel)
                continue
            latency = None if key + ("latency",) in failing else probe.measure_latency(region, host, 1)
            rtt = None if key + ("rtt",) in failing else probe.measure_http_rtt(region, f"http://{host}/")
            probes[key] = (latency, rtt)

    assert _bits(matrix.distances) == _bits(distances)
    assert matrix.probes == probes
    attempted = {key: _attempted(distance, probes.get(key)) for key, distance in distances.items()}
    assert matrix.failed_channels() == sorted(
        key + (channel,) for key, channels in attempted.items() for channel, value in channels if value is None
    )
    assert matrix.attempted_channels() == sum(len(channels) for channels in attempted.values())


def test_gather_survives_probe_failures():
    region = Region("r", "p.test", GeoPoint(0, 0))
    spec = parse_workflow("http://ok.test/\nhttp://down.test/\n", format="lines")
    resolver = FixtureResolver({"ok.test": GeoPoint(1, 1), "down.test": GeoPoint(2, 2)})
    matrix = gather_metric_matrix(_FailingProbe(), resolver, [region], distinct_nodes(spec))
    assert matrix.column("r", ["down.test", "ok.test"], "latency") == [None, 5.0]
