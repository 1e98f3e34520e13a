import re
import socket
import threading
from collections.abc import MutableSet

import pytest
from hypothesis import given, settings, strategies as st

from conftest import count_accepts, raw_peer
from regionrank.geo import FixtureResolver, GeoPoint, haversine_km
from regionrank.harness import transform_service
from regionrank.metrics import (
    CHANNELS,
    FAILURE_SENTINEL_MS,
    CoverageError,
    LiveProbe,
    MetricMatrix,
    ProbeError,
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
    assert probe.measure_latency(REGION, "http://node.test/", 4) == pytest.approx(12.5)


def test_simulated_rtt_is_twice_latency_plus_overhead():
    probe = SimulatedProbe(env_with_override(10.0, service_overhead_ms=3.0))
    assert probe.measure_http_rtt(REGION, "http://node.test/path") == pytest.approx(23.0)


def test_simulated_noise_is_reproducible_per_seed():
    a = SimulatedProbe(env_with_override(12.5, noise_sigma_ms=1.0, seed=5))
    b = SimulatedProbe(env_with_override(12.5, noise_sigma_ms=1.0, seed=5))
    c = SimulatedProbe(env_with_override(12.5, noise_sigma_ms=1.0, seed=6))
    va = a.measure_latency(REGION, "http://node.test/", 4)
    assert va == b.measure_latency(REGION, "http://node.test/", 4)
    assert va != c.measure_latency(REGION, "http://node.test/", 4)
    assert va != 12.5


def test_simulated_probe_unknown_host_is_probe_error():
    probe = SimulatedProbe(env_with_override(1.0))
    with pytest.raises(ProbeError):
        probe.measure_latency(REGION, "http://ghost.test/", 1)


def test_probe_latency_rejects_zero_samples():
    probe = SimulatedProbe(env_with_override(1.0))
    nodes = distinct_nodes(parse_workflow("http://node.test/\n", format="lines"))
    with pytest.raises(ValueError, match="sample count"):
        gather_metric_matrix(probe, FixtureResolver({}), [REGION], nodes, k=0)


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


def test_live_http_rtt_times_a_redirect_without_following_it():
    reply = b"HTTP/1.1 302 Found\r\nLocation: http://127.0.0.1:9/\r\nContent-Length: 0\r\n\r\n"
    requests = []
    with raw_peer(reply, requests) as url:
        assert LiveProbe(deadline_s=2.0).measure_http_rtt(REGION, url) > 0.0
    assert requests == [b"GET / HTTP/1.1"]


def test_live_http_rtt_opens_a_new_connection_for_each_probe():
    with transform_service() as svc:
        accepted = count_accepts(svc)
        probe = LiveProbe()
        for _ in range(3):
            probe.measure_http_rtt(REGION, svc.url)
    assert len(accepted) == 3


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


def _live_gather(url):
    """The matrix of a one-region, one-host live gather of the workflow that is url alone."""
    host = endpoint_host(url)
    nodes = distinct_nodes(parse_workflow(f"{url}\n", format="lines"))
    probe = LiveProbe(deadline_s=2.0)
    return host, gather_metric_matrix(probe, FixtureResolver({host: GeoPoint(1, 1)}), [REGION], nodes,
                                      k=1, parallelism=1)


def test_live_gather_fails_only_the_rtt_of_a_peer_whose_reply_no_client_parses(hostile_peer):
    # the peer accepts the latency probe's connect, so only the GET fails; the gather goes on
    host, matrix = _live_gather(hostile_peer)
    [latency] = matrix.rows["latency"]["r-test"]
    assert latency > 0.0
    assert matrix.rows["rtt"] == {"r-test": [None]}
    assert matrix.failed_channels() == [("r-test", host, "rtt")]


def test_live_gather_counts_an_error_status_as_a_measured_rtt():
    with raw_peer(b"HTTP/1.1 500 Internal Server Error\r\nContent-Length: 5\r\n\r\nbroke") as url:
        _, matrix = _live_gather(url)
    [rtt] = matrix.rows["rtt"]["r-test"]
    assert rtt > 0.0
    assert matrix.failed_channels() == []


def test_live_latency_host_name_idna_cannot_encode_is_probe_error():
    host = "a" * 64 + ".test"  # one label past the 63-character limit
    with pytest.raises(ProbeError, match="^cannot resolve"):
        LiveProbe(deadline_s=1.0).measure_latency(REGION, f"http://{host}/", k=1)


def test_live_latency_tcp_fallback_on_explicit_port():
    with transform_service() as svc:
        probe = LiveProbe()
        ms = probe.measure_latency(REGION, svc.url, k=3)
        assert 0.0 < ms < 1000.0


def icmp_refused(monkeypatch, probe):
    """The (address, seq) pings and (address, port) connects of `probe`, whose ICMP is refused.

    Linux refuses an unprivileged ICMP socket with EACCES when
    net.ipv4.ping_group_range excludes the caller. The n-th connect takes n ms.
    """
    pings, connects = [], []

    def refused_ping(address, seq):
        pings.append((address, seq))
        raise PermissionError(13, "Permission denied")

    def timed_connect(family, sockaddr):
        connects.append(sockaddr[:2])
        return float(len(connects))

    monkeypatch.setattr(probe, "_ping_once", refused_ping)
    monkeypatch.setattr(probe, "_tcp_once", timed_connect)
    return pings, connects


def test_live_latency_falls_back_to_tcp_port_80_when_icmp_is_refused(monkeypatch):
    probe = LiveProbe()
    pings, connects = icmp_refused(monkeypatch, probe)
    assert probe.measure_latency(REGION, "http://127.0.0.1/", k=3) == pytest.approx(2.0)  # mean of 1, 2, 3
    assert pings == [("127.0.0.1", 0)]
    assert connects == [("127.0.0.1", 80)] * 3


@pytest.mark.parametrize("url, port", [
    ("https://127.0.0.1/", 443),
    ("https://[::1]/", 443),
    ("http://127.0.0.1/", 80),
    ("https://127.0.0.1:8443/", 8443),
])
def test_live_latency_tcp_fallback_connects_to_the_endpoint_port(monkeypatch, url, port):
    probe = LiveProbe()
    _, connects = icmp_refused(monkeypatch, probe)
    probe.measure_latency(REGION, url, k=3)
    assert [connected for _, connected in connects] == [port] * 3


def test_live_latency_tcp_fallback_keeps_the_ipv6_flowinfo_and_scope_id(monkeypatch):
    probe = LiveProbe()
    connects = []
    monkeypatch.setattr(probe, "_tcp_once", lambda family, sockaddr: connects.append((family, sockaddr)) or 1.0)
    monkeypatch.setattr(socket, "getaddrinfo", lambda *args, **kwargs: [
        (socket.AF_INET6, socket.SOCK_STREAM, 6, "", ("fe80::1%eth0", 0, 5, 2))])
    probe.measure_latency(REGION, "http://link-local.test:8080/", k=2)
    assert connects == [(socket.AF_INET6, ("fe80::1%eth0", 8080, 5, 2))] * 2


@pytest.mark.parametrize("family, host", [(socket.AF_INET, "127.0.0.1"), (socket.AF_INET6, "::1")],
                         ids=["ipv4", "ipv6"])
def test_live_latency_tcp_fallback_resolves_the_host_once(monkeypatch, family, host):
    try:
        server = socket.create_server((host, 0), family=family)
    except OSError:
        pytest.skip(f"no loopback address {host}")
    lookups, resolve = [], socket.getaddrinfo

    def counted(*args, **kwargs):
        lookups.append(args[0])
        return resolve(*args, **kwargs)

    monkeypatch.setattr(socket, "getaddrinfo", counted)
    with server:
        netloc = f"[{host}]" if family == socket.AF_INET6 else host
        ms = LiveProbe(deadline_s=1.0).measure_latency(REGION, f"http://{netloc}:{server.getsockname()[1]}/", k=4)
    assert 0.0 < ms < 1000.0
    # the name is resolved for the probe, not again for each of its 4 connects
    assert lookups == [host]


@pytest.mark.parametrize("url", ["http://[::1/", "http://127.0.0.1:port/", "ftp://127.0.0.1/"])
def test_live_latency_of_a_url_that_is_no_http_endpoint_is_probe_error(url):
    with pytest.raises(ProbeError, match="^not an http"):
        LiveProbe(deadline_s=1.0).measure_latency(REGION, url, k=1)


def test_live_latency_uses_icmp_alone_when_it_answers(monkeypatch):
    probe = LiveProbe()
    monkeypatch.setattr(probe, "_ping_once", lambda address, seq: 10.0 * (seq + 1))
    monkeypatch.setattr(probe, "_tcp_once", lambda family, sockaddr: pytest.fail("TCP connect after ICMP answered"))
    assert probe.measure_latency(REGION, "http://127.0.0.1/", k=3) == pytest.approx(20.0)


def test_live_latency_over_ipv6_uses_tcp():
    try:
        server = socket.create_server(("::1", 0), family=socket.AF_INET6)
    except OSError:
        pytest.skip("no IPv6 loopback")
    with server:
        url = f"http://[::1]:{server.getsockname()[1]}/"
        ms = LiveProbe(deadline_s=1.0).measure_latency(REGION, url, k=2)
    assert 0.0 < ms < 1000.0


def test_live_latency_unreachable_port_is_probe_error():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    probe = LiveProbe(deadline_s=1.0)
    with pytest.raises(ProbeError):
        probe.measure_latency(REGION, f"http://127.0.0.1:{port}/", k=1)


def test_live_latency_unresolvable_host_is_probe_error():
    probe = LiveProbe(deadline_s=1.0)
    with pytest.raises(ProbeError):
        probe.measure_latency(REGION, "http://definitely-not-a-real-host.invalid/", k=1)


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
    assert matrix.hosts == ("node00.test",)
    for channel in CHANNELS:
        [value] = matrix.rows[channel]["region-0"]
        assert value is not None


class _StaticProbe:
    def measure_latency(self, region, url, k):
        return 5.0

    def measure_http_rtt(self, region, url):
        return 11.0


def test_gather_missing_geolocation_fails_distance_only():
    region = Region("r", "p.test", GeoPoint(0, 0))
    spec = parse_workflow("http://located.test/\nhttp://unknown.test/\n", format="lines")
    resolver = FixtureResolver({"located.test": GeoPoint(1, 1)})
    matrix = gather_metric_matrix(_StaticProbe(), resolver, [region], distinct_nodes(spec))
    assert matrix.hosts == ("located.test", "unknown.test")
    assert matrix.rows["distance"]["r"][1] is None
    assert matrix.rows["latency"]["r"] == [5.0, 5.0]
    assert matrix.rows["rtt"]["r"] == [11.0, 11.0]
    assert matrix.failed_channels() == [("r", "unknown.test", "distance")]


class _CountingProbe:
    def __init__(self):
        self.latency_calls = []
        self.rtt_calls = []
        self.lock = threading.Lock()

    def measure_latency(self, region, url, k):
        with self.lock:
            self.latency_calls.append((region.id, url))
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
    # each host is probed through the first URL seen for it
    assert sorted(probe.latency_calls) == [("r", "http://a.test/"), ("r", "http://b.test/")]
    assert sorted(probe.rtt_calls) == [("r", "http://a.test/"), ("r", "http://b.test/")]


def test_gather_parallelism_does_not_change_results():
    regions, env = sim_setup()
    nodes = distinct_nodes(WORKFLOW)
    serial = gather_metric_matrix(SimulatedProbe(env), env.resolver(), regions, nodes,
                                  parallelism=1)
    parallel = gather_metric_matrix(SimulatedProbe(env), env.resolver(), regions, nodes,
                                    parallelism=8)
    for channel in CHANNELS:
        assert list(serial.rows[channel].items()) == list(parallel.rows[channel].items())


def test_gather_of_one_thread_probes_in_the_calling_thread():
    regions, env = sim_setup()
    threads = set()

    class _ThreadNotingProbe(SimulatedProbe):
        def measure_latency(self, region, url, k):
            threads.add(threading.get_ident())
            return super().measure_latency(region, url, k)

    gather_metric_matrix(_ThreadNotingProbe(env), env.resolver(), regions, distinct_nodes(WORKFLOW),
                         parallelism=1)
    assert threads == {threading.get_ident()}


class _FailingProbe(_StaticProbe):
    def measure_latency(self, region, url, k):
        if endpoint_host(url) == "down.test":
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
    assert seen.rows["latency"] == seen.rows["rtt"] == {}
    assert seen.rows["distance"] == matrix.rows["distance"]
    assert sorted({region for region, _ in probe.latency_calls}) == ["region-1", "region-2"]
    assert len(probe.rtt_calls) == 2 * 3
    assert len(matrix.entries) == 4 * 3
    full = gather_metric_matrix(SimulatedProbe(env), env.resolver(), regions, nodes)
    assert matrix.rows["distance"] == full.rows["distance"]
    assert matrix.hosts == tuple(node.host for node in nodes)
    assert list(matrix.rows["latency"]) == list(matrix.rows["rtt"]) == ["region-1", "region-2"]
    assert matrix.failed_channels() == []
    assert matrix.attempted_channels() == 4 * 3 + 2 * 2 * 3


def test_gather_with_no_probe_regions_issues_no_probe():
    regions, env = sim_setup(n_regions=2)
    probe = _CountingProbe()
    matrix = gather_metric_matrix(probe, env.resolver(), regions, distinct_nodes(WORKFLOW),
                                  probe_regions=lambda _: ())
    assert probe.latency_calls == probe.rtt_calls == []
    assert matrix.rows["latency"] == matrix.rows["rtt"] == {}
    assert matrix.attempted_channels() == 2 * 3


def test_gather_rejects_probe_regions_outside_regions():
    regions, env = sim_setup(n_regions=2)
    with pytest.raises(ValueError, match="region-1"):
        gather_metric_matrix(_CountingProbe(), env.resolver(), regions[:1],
                             distinct_nodes(WORKFLOW), probe_regions=lambda _: regions[1:])


def test_gather_rejects_a_parallelism_below_1():
    regions, env = sim_setup(n_regions=1)
    probe = _CountingProbe()
    with pytest.raises(ValueError, match="parallelism must be at least 1"):
        gather_metric_matrix(probe, env.resolver(), regions, distinct_nodes(WORKFLOW), parallelism=0)
    assert probe.latency_calls == probe.rtt_calls == []


def test_failed_channels_never_lists_unprobed_channels():
    matrix = MetricMatrix(("a.test", "b.test"), {
        "distance": {"r1": [None, 1.0], "r2": [3.0, None]},
        "latency": {"r2": [None, 1.0]},
        "rtt": {"r2": [2.0, 1.0]},
    })
    assert matrix.failed_channels() == [
        ("r1", "a.test", "distance"), ("r2", "a.test", "latency"), ("r2", "b.test", "distance")
    ]
    assert matrix.attempted_channels() == 2 + 2 * 3


def test_matrix_entries_is_a_read_only_view_of_the_gathered_pairs():
    matrix = MetricMatrix(("a.test", "b.test"), {
        "distance": {"r1": [3.0, None], "r2": [1.0, 2.0]},
        "latency": {"r1": [4.0, 1.0]},
        "rtt": {"r1": [None, 1.0]},
    })
    pairs = [("r1", "a.test"), ("r1", "b.test"), ("r2", "a.test"), ("r2", "b.test")]
    assert list(matrix.entries) == pairs
    assert len(matrix.entries) == 4
    assert matrix.entries == set(pairs)
    assert not isinstance(matrix.entries, MutableSet)
    with pytest.raises(TypeError):
        matrix.entries[("r1", "c.test")] = 1.0
    assert ("r2", "b.test") in matrix.entries
    for absent in (("r1", "c.test"), ("r3", "a.test"), ("r1",), "r1", None):
        assert absent not in matrix.entries


@pytest.mark.parametrize("build, match", [
    (lambda: MetricMatrix(("a.test",), {"distance": {}, "latency": {"r1": [1.0]}, "rtt": {"r1": [2.0]}}),
     "distances"),
    (lambda: MetricMatrix(("a.test",), {"distance": {"r1": [3.0]}, "latency": {"r1": [1.0]}, "rtt": {}}),
     "both a latency row and an rtt row"),
    (lambda: MetricMatrix(("a.test",), {"distance": {"r1": [3.0]}, "latency": {}, "rtt": {"r1": [2.0]}}),
     "both a latency row and an rtt row"),
    (lambda: MetricMatrix(("a.test",), {"distance": {"r1": [3.0]}, "latency": {}}), "one table per channel"),
    (lambda: MetricMatrix(("a.test",), {"distance": {"r1": [3.0]}, "latency": {}, "rtt": {}, "jitter": {}}),
     "one table per channel"),
], ids=["rows", "latency-only", "rtt-only", "no-rtt-table", "extra-table"])
def test_matrix_rejects_a_probed_pair_without_distance(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_matrix_rejects_rows_that_leave_out_a_host():
    with pytest.raises(ValueError, match="one value per host"):
        MetricMatrix(("a.test", "b.test"), {"distance": {"r1": [1.0]}, "latency": {}, "rtt": {}})
    with pytest.raises(ValueError, match="one value per host"):
        MetricMatrix(("a.test", "b.test"), {"distance": {"r1": [1.0, 2.0]}, "latency": {"r1": [1.0]},
                                            "rtt": {"r1": [2.0, 3.0]}})
    with pytest.raises(ValueError, match="distinct"):
        MetricMatrix(("a.test", "a.test"), {"distance": {"r1": [1.0, 1.0]}, "latency": {}, "rtt": {}})


def test_weighted_sums_reads_one_channel_and_names_what_is_missing():
    matrix = MetricMatrix(("a.test", "b.test"), {
        "distance": {"r1": [3.0, None], "r2": [1.0, 2.0]},
        "latency": {"r1": [4.0, None]},
        "rtt": {"r1": [None, 6.0]},
    })
    assert matrix.weighted_sums({"a.test": 2}, ["r1", "r2"], "distance") == [6.0, 2.0]
    assert matrix.weighted_sums({"a.test": 1}, ["r1"], "rtt") == [FAILURE_SENTINEL_MS]
    assert matrix.weighted_sums({"b.test": 2, "a.test": 1}, ["r1"], "latency") == [2 * FAILURE_SENTINEL_MS + 4.0]
    assert matrix.weighted_sums({}, ["r2"], "latency") == [0.0]
    with pytest.raises(CoverageError, match="latency.*not probed"):
        matrix.weighted_sums({"a.test": 1, "b.test": 1}, ["r2"], "latency")
    with pytest.raises(CoverageError, match="r1.*ghost.test"):
        matrix.weighted_sums({"ghost.test": 1}, ["r1"], "distance")
    with pytest.raises(ValueError, match="unknown channel 'bogus'"):
        matrix.weighted_sums({}, ["r1"], "bogus")


@pytest.mark.parametrize("channel", CHANNELS)
def test_weighted_sums_missing_pair_names_it(channel):
    matrix = MetricMatrix((), {"distance": {}, "latency": {}, "rtt": {}})
    with pytest.raises(CoverageError, match="no entry for region 'r9' and host 'ghost.test'"):
        matrix.weighted_sums({"ghost.test": 1}, ["r9"], channel)


def test_weighted_sums_names_the_first_missing_host():
    matrix = MetricMatrix(("unlocated.test", "b.test"), {
        "distance": {"r1": [None, 2.0], "r2": [None, 3.0]},
        "latency": {"r2": [None, 1.0]},
        "rtt": {"r2": [None, 1.0]},
    })
    weights = dict.fromkeys(["unlocated.test", "b.test", "ghost.test"], 1)
    for channel in ("latency", "rtt"):
        with pytest.raises(CoverageError,
                           match=f"the {channel} channel of region 'r1' and host 'unlocated.test' was not probed"):
            matrix.weighted_sums(weights, ["r1"], channel)
        with pytest.raises(CoverageError, match="no entry for region 'r2' and host 'ghost.test'"):
            matrix.weighted_sums(weights, ["r2"], channel)
    with pytest.raises(CoverageError, match="no entry for region 'r1' and host 'ghost.test'"):
        matrix.weighted_sums(weights, ["r1"], "distance")
    with pytest.raises(CoverageError, match="no entry for region 'r1' and host 'ghost.test'"):
        matrix.weighted_sums(dict(reversed(weights.items())), ["r1"], "latency")
    with pytest.raises(CoverageError, match="no entry for region 'r9' and host 'unlocated.test'"):
        matrix.weighted_sums({"unlocated.test": 1, "b.test": 1}, ["r2", "r9"], "distance")


class _ScriptedProbe:
    """Answers from the pair's names; raises ProbeError for the (region, host, channel) in failing."""

    def __init__(self, failing):
        self.failing = failing

    def measure_latency(self, region, url, k):
        host = endpoint_host(url)
        if (region.id, host, "latency") in self.failing:
            raise ProbeError("scripted latency failure")
        return float(len(region.id) + len(host))

    def measure_http_rtt(self, region, url):
        host = endpoint_host(url)
        if (region.id, host, "rtt") in self.failing:
            raise ProbeError("scripted rtt failure")
        return float(len(region.id) * len(host))


def _bits(table):
    """(region id, hex of value or None per host) of each row, in order: equal only if every float is bit-identical."""
    return [(region_id, [None if value is None else value.hex() for value in row]) for region_id, row in table.items()]


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
    assert seen.rows["latency"] == seen.rows["rtt"] == {}
    assert _bits(seen.rows["distance"]) == _bits(matrix.rows["distance"])

    probed_ids = {region.id for region in probe_regions}
    expected = {channel: {} for channel in CHANNELS}
    for region in regions:
        expected["distance"][region.id] = [
            haversine_km(region.location, locations[host]) if host in locations else None for host in hosts
        ]
        if region.id not in probed_ids:
            for host in hosts:
                for channel in ("latency", "rtt"):
                    with pytest.raises(CoverageError, match=f"{channel} channel .* not probed"):
                        matrix.weighted_sums({host: 1}, [region.id], channel)
    # probed rows come in the order probe_regions returned them
    for region in probe_regions:
        expected["latency"][region.id] = [
            None if (region.id, host, "latency") in failing else probe.measure_latency(region, f"http://{host}/", 1)
            for host in hosts
        ]
        expected["rtt"][region.id] = [
            None if (region.id, host, "rtt") in failing else probe.measure_http_rtt(region, f"http://{host}/")
            for host in hosts
        ]

    assert matrix.hosts == tuple(hosts)
    for channel in CHANNELS:
        assert _bits(matrix.rows[channel]) == _bits(expected[channel])
    attempted = [
        (region_id, host, channel, value)
        for channel, table in expected.items() for region_id, row in table.items() for host, value in zip(hosts, row)
    ]
    assert matrix.failed_channels() == sorted(
        (region_id, host, channel) for region_id, host, channel, value in attempted if value is None
    )
    assert matrix.attempted_channels() == len(attempted)


def test_gather_survives_probe_failures():
    region = Region("r", "p.test", GeoPoint(0, 0))
    spec = parse_workflow("http://ok.test/\nhttp://down.test/\n", format="lines")
    resolver = FixtureResolver({"ok.test": GeoPoint(1, 1), "down.test": GeoPoint(2, 2)})
    matrix = gather_metric_matrix(_FailingProbe(), resolver, [region], distinct_nodes(spec))
    assert matrix.hosts == ("ok.test", "down.test")
    assert matrix.rows["latency"]["r"] == [5.0, None]
