import json
import math
import re
import socket
import statistics
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, strategies as st

import regionrank.harness
from conftest import count_accepts, kept_alive, raw_peer
from regionrank.errors import ConnectionPool
from regionrank.harness import (
    ComparisonStats,
    ExecutionStats,
    HarnessError,
    WorkflowRunError,
    compare_stats,
    execute_workflow,
    payload_source,
    run_workflow_once,
    transform_service,
)
from regionrank.metrics import LiveProbe
from regionrank.workflow import parse_workflow


def stats(runs, failures=0):
    return ExecutionStats(workflow="wf", runs=tuple(runs), failures=failures)


def test_stats_mean_and_sample_stddev():
    s = stats([1.0, 2.0, 3.0, 4.0])
    assert s.mean == pytest.approx(2.5)
    assert s.stddev == pytest.approx(statistics.stdev([1.0, 2.0, 3.0, 4.0]))
    assert len(s.runs) == 4


def test_stats_single_run_has_zero_stddev():
    s = stats([3.2])
    assert s.stddev == 0.0
    assert len(s.runs) == 1


def test_stats_require_at_least_one_run():
    with pytest.raises(HarnessError):
        stats([])


# --- published measurement arithmetic ---


def from_moments(mean, sigma):
    # two synthetic samples with exactly the requested sample mean and stddev
    half = sigma / 2 ** 0.5
    return stats([mean - half, mean + half])


def test_from_moments_reproduces_inputs():
    s = from_moments(124.86, 36.05)
    assert s.mean == pytest.approx(124.86)
    assert s.stddev == pytest.approx(36.05)


def test_compare_stats_published_row_a():
    comparison = compare_stats(from_moments(124.86, 36.05), from_moments(48.31, 0.24))
    assert comparison.speedup_pct == pytest.approx(159, abs=1)
    assert comparison.delta_sigma_pct == pytest.approx(-99.33, abs=0.05)


def test_compare_stats_published_row_b_speedup():
    comparison = compare_stats(from_moments(66.10, 16.45), from_moments(22.93, 1.73))
    assert comparison.speedup_pct == pytest.approx(188, abs=1)


def test_compare_identical_stats_is_zero_zero():
    s = from_moments(100.0, 5.0)
    comparison = compare_stats(s, s)
    assert comparison.speedup_pct == pytest.approx(0.0)
    assert comparison.delta_sigma_pct == pytest.approx(0.0)


def test_compare_zero_baseline_sigma_yields_not_applicable():
    comparison = compare_stats(stats([2.0, 2.0]), from_moments(1.0, 0.5))
    assert comparison.delta_sigma_pct is None
    assert comparison.speedup_pct == pytest.approx(100.0)


def test_compare_rejects_degenerate_means():
    with pytest.raises(HarnessError):
        compare_stats(stats([0.0, 0.0]), stats([1.0]))
    with pytest.raises(HarnessError):
        compare_stats(stats([1.0]), stats([0.0, 0.0]))


@given(st.floats(min_value=0.1, max_value=100.0), st.floats(min_value=0.1, max_value=100.0))
@example(100.0, 99.99999999999999)
@example(99.99999999999999, 100.0)
def test_speedup_antitone_in_candidate_mean(m1, m2):
    # float64 can round two means an ulp apart to one speedup (the examples
    # both give -89.0), so a larger mean never raises the speedup, and lowers
    # it only where the means differ by more than rounding can hide
    baseline = stats([10.0, 12.0])
    c1 = compare_stats(baseline, stats([m1])).speedup_pct
    c2 = compare_stats(baseline, stats([m2])).speedup_pct
    if m1 > m2:
        m1, m2, c1, c2 = m2, m1, c2, c1
    assert c1 >= c2
    if m2 - m1 > 1e-12 * m2:
        assert c1 > c2


# --- transform service ---


def post(url, body):
    req = urllib.request.Request(url, data=body, method="POST")
    with urllib.request.urlopen(req, timeout=10) as resp:
        return resp.status, resp.read()


def test_rotate_reverses_bytes():
    with transform_service() as svc:
        assert post(svc.url, bytes([1, 2, 3])) == (200, bytes([3, 2, 1]))


def test_rotate_a_short_body_after_a_long_one():
    # the services reuse their body buffers
    with transform_service() as svc:
        assert post(svc.url, bytes(range(200)) * 5)[1] == (bytes(range(200)) * 5)[::-1]
        assert post(svc.url, b"abc") == (200, b"cba")


def test_concurrent_posts_each_get_their_own_body_reversed():
    # the body buffers are shared by every service in the process; a buffer
    # handed to two requests at once would mix their bytes
    payloads = [bytes([i]) * (1000 + 97 * i) + bytes(range(i)) for i in range(12)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with transform_service() as one, transform_service() as two:
            def send(i):
                url = (one, two)[i % 2].url
                return [post(url, payloads[i])[1] for _ in range(10)]

            with ThreadPoolExecutor(max_workers=len(payloads)) as pool:
                futures = [pool.submit(send, i) for i in range(len(payloads))]
                replies = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(switch)
    assert replies == [[payload[::-1]] * 10 for payload in payloads]


def test_rotate_empty_body():
    with transform_service() as svc:
        assert post(svc.url, b"") == (200, b"")


@given(st.binary(max_size=2048))
def test_rotate_is_an_involution(payload):
    assert payload[::-1][::-1] == payload


def test_rotate_twice_over_http_restores_payload():
    with transform_service() as svc:
        _, once = post(svc.url, b"workflow payload bytes")
        _, twice = post(svc.url, once)
        assert twice == b"workflow payload bytes"


def test_echo_mode_returns_body_unchanged():
    with transform_service(mode="echo") as svc:
        assert post(svc.url, b"abc") == (200, b"abc")


def test_get_root_is_probe_target_other_paths_404():
    with transform_service() as svc:
        with urllib.request.urlopen(svc.url, timeout=10) as resp:
            assert resp.status == 200
            assert resp.read() == b""
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(svc.url + "nope", timeout=10)
        with err.value:  # an HTTPError holds the open response
            assert err.value.code == 404


def test_a_service_without_delay_never_sleeps(monkeypatch):
    # time.sleep(0) still costs tens of microseconds, on every probe GET and hop POST
    sleeps = []
    monkeypatch.setattr(time, "sleep", sleeps.append)
    with transform_service(delay_ms=0) as svc:
        with urllib.request.urlopen(svc.url, timeout=10) as resp:
            assert resp.status == 200
        assert post(svc.url, b"abc") == (200, b"cba")
    assert sleeps == []


def test_oversized_body_rejected_with_413():
    with transform_service(body_cap=16) as svc:
        with pytest.raises(urllib.error.HTTPError) as err:
            post(svc.url, b"x" * 17)
        with err.value:
            assert err.value.code == 413
        # service stays up for well-sized requests
        assert post(svc.url, b"ok")[0] == 200


@pytest.mark.parametrize("length", ["-1", "abc"])
@pytest.mark.parametrize("start", [transform_service, payload_source], ids=["transform", "payload"])
def test_malformed_content_length_gets_400_and_close(start, length):
    request = f"POST / HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {length}\r\n\r\n"
    with start() as svc, socket.create_connection(("127.0.0.1", svc.port), timeout=5) as sock:
        sock.sendall(request.encode())
        reply = b""
        # the service must answer and hang up without waiting for a body;
        # a blocked read would end this loop with a timeout instead
        while chunk := sock.recv(4096):
            reply += chunk
    status, _, headers = reply.partition(b"\r\n")
    assert status.startswith(b"HTTP/1.1 400")
    assert b"Connection: close" in headers


def test_payload_source_refuses_a_post_without_reading_the_body():
    # a valid length but no body: the source must not wait for the bytes
    request = "POST / HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: 1048576\r\n\r\n"
    with payload_source() as svc, socket.create_connection(("127.0.0.1", svc.port), timeout=5) as sock:
        sock.sendall(request.encode())
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    status, _, headers = reply.partition(b"\r\n")
    assert status.startswith(b"HTTP/1.1 405")
    assert b"Connection: close" in headers


@pytest.mark.parametrize("start", [transform_service, payload_source], ids=["transform", "payload"])
def test_close_returns_well_within_the_default_shutdown_poll(start):
    svc = start()
    # after serving a request, serve_forever is back in its poll wait
    with urllib.request.urlopen(svc.url, timeout=10) as resp:
        resp.read()
    began = time.perf_counter()
    svc.close()
    # socketserver's default poll interval is 0.5 s
    assert time.perf_counter() - began < 0.25


@pytest.fixture
def thread_starts(monkeypatch):
    """A list that gets one entry for each thread started from now on."""
    started = []
    start = threading.Thread.start

    def counting(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting)
    return started


def test_a_service_hands_new_connections_to_idle_handler_threads(thread_starts):
    probe = LiveProbe(deadline_s=5.0)
    with transform_service() as svc:
        probe.measure_http_rtt(None, svc.url)  # starts the first handler thread
        thread_starts.clear()
        probe.measure_latency(None, f"127.0.0.1:{svc.port}", 32)
        for _ in range(20):
            probe.measure_http_rtt(None, svc.url)
    # 52 connections, each closed before the next opens, would start 52
    # threads at one per connection; the connects can still outrun the
    # handlers' parking, so a few threads start
    assert len(thread_starts) <= 16


def test_a_new_connection_is_served_while_64_idle_ones_hold_handler_threads():
    svc = transform_service()
    held = []
    try:
        for _ in range(64):
            held.append(kept_alive(svc.port))
        began = time.perf_counter()
        held.append(kept_alive(svc.port))
        assert time.perf_counter() - began < 2.0
    finally:
        began = time.perf_counter()
        svc.close()  # does not wait for the handlers still holding a connection
        closing = time.perf_counter() - began
        for connection in held:
            connection.close()
    assert closing < 0.25


def test_a_handler_exits_once_the_connection_of_a_closed_service_ends():
    # closing a service retires every parked handler thread, so the
    # connection below gets a thread of its own, not one in `before`
    transform_service().close()
    before = set(threading.enumerate())
    svc = transform_service()
    connection = kept_alive(svc.port)
    try:
        began = time.perf_counter()
        svc.close()
        assert time.perf_counter() - began < 0.25
    finally:
        connection.close()
    # the handler exits rather than parking for a service that is closed
    deadline = time.monotonic() + 5.0
    while set(threading.enumerate()) - before and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not set(threading.enumerate()) - before


def test_unknown_mode_rejected():
    with pytest.raises(HarnessError):
        transform_service(mode="mirror")


@pytest.mark.parametrize("port", [-1, 65536, 99999])
def test_services_reject_out_of_range_port(port):
    with pytest.raises(HarnessError, match="0-65535"):
        transform_service(port=port)
    with pytest.raises(HarnessError, match="0-65535"):
        payload_source(port=port)


@pytest.mark.parametrize("delay_ms", [-5.0, math.nan, math.inf])
def test_transform_service_rejects_bad_delay(delay_ms):
    with pytest.raises(HarnessError, match="delay"):
        transform_service(delay_ms=delay_ms)


# --- orchestrated execution over loopback ---


def loopback_chain(*services):
    lines = "\n".join(svc.url for svc in services)
    return parse_workflow(lines, format="lines")


def test_run_workflow_once_payload_integrity():
    payload = b"0123456789abcdef"
    with payload_source(payload) as src, transform_service() as t1, transform_service() as t2:
        spec = loopback_chain(src, t1, t2)
        elapsed, outputs = run_workflow_once(spec)
        assert elapsed > 0.0
        # two byte reversals cancel out
        assert outputs[spec.nodes[-1].id] == payload


def test_run_workflow_respects_hop_order_in_dag_files():
    payload = b"ordered"
    with payload_source(payload) as src, transform_service() as t1, transform_service() as t2:
        doc = {
            "name": "shuffled-hops",
            "sources": [src.url],
            "nodes": [
                {"id": "s", "url": src.url},
                {"id": "m", "url": t1.url},
                {"id": "t", "url": t2.url},
            ],
            # listed out of dataflow order on purpose
            "hops": [["m", "t"], ["s", "m"]],
        }
        spec = parse_workflow(json.dumps(doc), format="dag")
        _, outputs = run_workflow_once(spec)
        assert outputs["t"] == payload


def test_hop_order_sorts_by_longest_path_then_file_order():
    doc = {
        "sources": ["http://s.test/"],
        "nodes": [{"id": n, "url": f"http://{n}.test/"} for n in ("s", "a", "b", "d")],
        "hops": [["b", "d"], ["a", "b"], ["s", "a"], ["s", "b"], ["a", "d"]],
    }
    spec = parse_workflow(json.dumps(doc), format="dag")
    # b is two hops from s via a, so its outbound hop goes last
    assert spec.hop_order == (("s", "a"), ("s", "b"), ("a", "b"), ("a", "d"), ("b", "d"))


def test_execute_workflow_collects_all_runs():
    with payload_source(b"abc") as src, transform_service(delay_ms=30.0) as t1:
        spec = loopback_chain(src, t1)
        result = execute_workflow(spec, runs=3)
        assert len(result.runs) == 3
        assert result.failures == 0
        assert result.mean >= 0.03
        assert result.workflow == spec.name


def test_execute_workflow_single_run():
    with payload_source(b"abc") as src:
        spec = loopback_chain(src)
        result = execute_workflow(spec, runs=1)
        assert len(result.runs) == 1
        assert result.stddev == 0.0


def test_execute_workflow_all_failures_raise():
    # reserve-and-release leaves the port closed
    with payload_source(b"x") as src:
        url = src.url
    spec = parse_workflow(url, format="lines")
    with pytest.raises(HarnessError, match="failed"):
        execute_workflow(spec, runs=2, timeout=2)


def test_run_workflow_once_names_the_failed_request():
    with payload_source(b"x") as gone:
        closed = gone.url  # reserve-and-release leaves the port closed
    with payload_source(b"x") as src:
        with pytest.raises(WorkflowRunError, match=f"^GET {re.escape(closed)} failed: "):
            run_workflow_once(parse_workflow(closed, format="lines"), timeout=2)
        with pytest.raises(WorkflowRunError, match=f"^POST {re.escape(closed)} failed: "):
            run_workflow_once(parse_workflow(f"{src.url}\n{closed}\n", format="lines"), timeout=2)


def test_run_workflow_once_names_a_request_whose_reply_no_client_parses(hostile_peer):
    with pytest.raises(WorkflowRunError, match=f"^GET {re.escape(hostile_peer)} failed: "):
        run_workflow_once(parse_workflow(hostile_peer, format="lines"), timeout=2)
    with payload_source(b"x") as src:
        with pytest.raises(WorkflowRunError, match=f"^POST {re.escape(hostile_peer)} failed: "):
            run_workflow_once(parse_workflow(f"{src.url}\n{hostile_peer}\n", format="lines"), timeout=2)


def test_a_run_keeps_one_connection_per_service_host():
    payload = bytes(range(256)) * 64
    with payload_source(payload) as src:
        services = [transform_service() for _ in range(8)]
        try:
            accepted = [count_accepts(svc) for svc in [src, *services]]
            # a source, then 16 hops visiting each of the 8 services twice
            spec = loopback_chain(src, *services, *services)
            for runs in (1, 2):
                _, outputs = run_workflow_once(spec)
                # sixteen reversals cancel out
                assert outputs[spec.nodes[-1].id] == payload
                # each run opens its own connections, one per host
                assert [len(each) for each in accepted] == [runs] * 9
        finally:
            for svc in services:
                svc.close()


def test_a_run_replaces_a_connection_its_peer_hung_up():
    requests = []
    with raw_peer(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok", requests) as url:
        _, outputs = run_workflow_once(parse_workflow(f"{url}\n{url}\n", format="lines"), timeout=2)
    assert list(outputs.values()) == [b"ok", b"ok"]
    # each request sent once, the second on a new connection
    assert requests == [b"GET / HTTP/1.1", b"POST / HTTP/1.1"]


def test_a_redirect_fails_a_run():
    with raw_peer(b"HTTP/1.1 302 Found\r\nLocation: http://127.0.0.1:9/\r\nContent-Length: 0\r\n\r\n") as url:
        with pytest.raises(WorkflowRunError, match=f"^GET {re.escape(url)} failed: HTTP Error 302: Found$"):
            run_workflow_once(parse_workflow(url, format="lines"), timeout=2)


def test_a_failed_run_closes_its_pooled_connections(hostile_peer, monkeypatch):
    pooled = []

    class RecordingPool(ConnectionPool):
        def put(self, key, connection):
            pooled.append(connection)
            super().put(key, connection)

    monkeypatch.setattr(regionrank.harness, "ConnectionPool", RecordingPool)
    with payload_source(b"x") as src, transform_service() as svc:
        spec = parse_workflow(f"{src.url}\n{svc.url}\n{hostile_peer}\n", format="lines")
        with pytest.raises(WorkflowRunError, match=f"^POST {re.escape(hostile_peer)} failed: "):
            run_workflow_once(spec, timeout=2)
    assert len(pooled) == 2
    assert all(connection.sock is None for connection in pooled)


def test_a_burst_of_tcp_connect_probes_fits_the_service_backlog():
    # 32 back-to-back connects overflowed a backlog of 5, and each connect
    # past it waited on a 1 s SYN retransmit
    with transform_service() as svc:
        began = time.perf_counter()
        LiveProbe(deadline_s=5.0).measure_latency(None, f"127.0.0.1:{svc.port}", 32)
        assert time.perf_counter() - began < 1.0


def test_execute_workflow_rejects_zero_runs():
    with pytest.raises(HarnessError):
        execute_workflow(parse_workflow("http://x.test/", format="lines"), runs=0)


def test_comparison_stats_is_plain_data():
    c = ComparisonStats(speedup_pct=1.0, delta_sigma_pct=None)
    assert c.speedup_pct == 1.0
    assert c.delta_sigma_pct is None
