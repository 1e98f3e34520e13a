import json
import math
import os
import re
import socket
import statistics
import sys
import threading
import time
import urllib.error
import urllib.request
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, strategies as st

import regionrank.harness
from conftest import HOSTILE_REPLIES, count_accepts, kept_alive, loopback_peer, raw_peer, read_request
from regionrank.harness import (
    BODY_CAP,
    ComparisonStats,
    ConnectionPool,
    ExecutionStats,
    HarnessError,
    WorkflowRunError,
    compare_stats,
    execute_workflow,
    http_body,
    payload_source,
    run_workflow_once,
    transform_service,
)
from regionrank.metrics import LiveProbe
from regionrank.workflow import endpoint_host, parse_workflow
from test_simulator import chain_specs


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


def test_stats_reject_a_negative_failure_count():
    with pytest.raises(HarnessError, match="negative"):
        stats([1.0], failures=-1)


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
    # the parked handler thread that served the first request likely serves
    # the second too; nothing of the first body may reach the second reply
    with transform_service() as svc:
        assert post(svc.url, bytes(range(200)) * 5)[1] == (bytes(range(200)) * 5)[::-1]
        assert post(svc.url, b"abc") == (200, b"cba")


def test_concurrent_posts_each_get_their_own_body_reversed():
    # the handler threads are shared by every service in the process, and
    # each request reads into a buffer of its own: at a 10 us switch interval,
    # no reply may carry bytes of another request
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


def test_oversized_body_rejected_with_413(monkeypatch):
    monkeypatch.setattr(regionrank.harness, "BODY_CAP", 16)
    with transform_service() as svc:
        with pytest.raises(urllib.error.HTTPError) as err:
            post(svc.url, b"x" * 17)
        with err.value:
            assert err.value.code == 413
        # service stays up for well-sized requests
        assert post(svc.url, b"ok")[0] == 200


def raw_exchange(port: int, request: bytes, half_close: bool = False) -> bytes:
    """Everything a service sends back for `request` until it hangs up."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(request)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        reply = b""
        # a service that waits for more of the request ends this loop with a
        # timeout instead
        while chunk := sock.recv(4096):
            reply += chunk
    return reply


def test_a_body_shorter_than_its_content_length_is_reversed_as_sent():
    # the client declares 10 bytes, sends 4 and half-closes: the reply holds
    # those 4 bytes, not the zero padding of a buffer sized for 10
    request = b"POST / HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: 10\r\n\r\nabcd"
    with transform_service() as svc:
        reply = raw_exchange(svc.port, request, half_close=True)
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200")
    assert b"Content-Length: 4" in head.split(b"\r\n")
    assert body == b"dcba"


@pytest.mark.parametrize("start", [transform_service, payload_source], ids=["transform", "payload"])
def test_a_chunked_post_gets_411_and_close(start):
    request = (b"POST / HTTP/1.1\r\nHost: 127.0.0.1\r\nTransfer-Encoding: chunked\r\n\r\n"
               b"4\r\nabcd\r\n0\r\n\r\n")
    with start() as svc:
        reply = raw_exchange(svc.port, request)
    status, _, rest = reply.partition(b"\r\n")
    headers, _, body = rest.partition(b"\r\n\r\n")
    assert status.startswith(b"HTTP/1.1 411")
    assert b"Connection: close" in headers
    # one reply, and the chunks are not read as a second request
    assert body == b""


@pytest.mark.parametrize("length", ["-1", "abc"])
@pytest.mark.parametrize("start", [transform_service, payload_source], ids=["transform", "payload"])
def test_malformed_content_length_gets_400_and_close(start, length):
    request = f"POST / HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {length}\r\n\r\n"
    # the service must answer and hang up without waiting for a body
    with start() as svc:
        reply = raw_exchange(svc.port, request.encode())
    status, _, headers = reply.partition(b"\r\n")
    assert status.startswith(b"HTTP/1.1 400")
    assert b"Connection: close" in headers


def test_payload_source_refuses_a_post_without_reading_the_body():
    # a valid length but no body: the source must not wait for the bytes
    request = b"POST / HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: 1048576\r\n\r\n"
    with payload_source() as svc:
        reply = raw_exchange(svc.port, request)
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
        probe.measure_latency(None, svc.url, 32)
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


@given(chain_specs())
def test_a_chain_run_makes_the_transfers_the_model_counts(spec):
    """Per host, a chain's run moves data as often as spec.host_weights has candidate edges.

    A GET is one transfer, from its host; a POST is two, to its host and back.
    """
    transfers = Counter()

    def recorder(url, timeout, error, payload=None, *, pool=None):
        transfers[endpoint_host(url)] += 1 if payload is None else 2
        return b"payload"

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(regionrank.harness, "http_body", recorder)
        run_workflow_once(spec)
    assert transfers == spec.host_weights


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


def test_a_run_reuses_a_connection_whose_descriptor_is_past_1023():
    # select() cannot take a descriptor past 1023, so a pool that checked
    # idle sockets with it failed every hop that reused a connection
    resource = pytest.importorskip("resource")
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    held, wanted = 1100, 1400  # headroom for the run's and the services' sockets
    if hard != resource.RLIM_INFINITY and hard < wanted:
        pytest.skip(f"the hard descriptor limit {hard} is below {wanted}")
    fds = []
    try:
        if soft != resource.RLIM_INFINITY and soft < wanted:
            resource.setrlimit(resource.RLIMIT_NOFILE, (wanted, hard))
        fds.append(os.open(os.devnull, os.O_RDONLY))
        while len(fds) < held:
            fds.append(os.dup(fds[0]))
        assert fds[-1] > 1023
        with payload_source(b"past 1023") as src, transform_service() as svc:
            spec = loopback_chain(src, svc, svc)
            _, outputs = run_workflow_once(spec, timeout=5)
        # two reversals cancel out
        assert outputs[spec.nodes[-1].id] == b"past 1023"
    finally:
        for fd in fds:
            os.close(fd)
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))


OK = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"


def scripted_peer(replies, requests):
    """A loopback peer that answers the requests it reads with `replies` in turn; a context yielding its URL.

    A reply of None hangs up without replying, and b"" sends nothing and
    waits for the client's next request. A connection stays open otherwise.
    The request line of each request read is appended to `requests`.
    """
    replies = iter(replies)

    def handle(conn):
        while head := read_request(conn):
            requests.append(head.partition(b"\r\n")[0])
            reply = next(replies)
            if reply is None:
                return
            conn.sendall(reply)

    return loopback_peer(handle)


def test_a_hop_whose_kept_alive_peer_hangs_up_is_sent_again_on_a_new_connection():
    requests = []
    # the GET's connection stays open, so the POST goes out on it, and its
    # peer reads the POST and hangs up without a reply
    with scripted_peer([OK, None, OK], requests) as url:
        _, outputs = run_workflow_once(parse_workflow(f"{url}\n{url}\n", format="lines"), timeout=2)
    assert list(outputs.values()) == [b"ok", b"ok"]
    assert requests == [b"GET / HTTP/1.1", b"POST / HTTP/1.1", b"POST / HTTP/1.1"]


@pytest.mark.parametrize("replies, chain, sent, match", [
    # a new connection's peer hangs up without a reply
    ([None], 1, [b"GET / HTTP/1.1"], "Remote end closed connection without response"),
    # a kept-alive connection's peer never replies to the POST
    ([OK, b""], 2, [b"GET / HTTP/1.1", b"POST / HTTP/1.1"], "timed out"),
    # the GET's reply closes its connection, so the POST goes out on a new one
    ([b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok", None, None], 2,
     [b"GET / HTTP/1.1", b"POST / HTTP/1.1"], "Remote end closed connection without response"),
    # a kept-alive connection's peer hangs up on the POST, and again on the POST
    # sent anew; a third POST would get no reply and time out
    ([OK, None, None, b""], 2, [b"GET / HTTP/1.1", b"POST / HTTP/1.1", b"POST / HTTP/1.1"],
     "Remote end closed connection without response"),
], ids=["new-connection", "timed-out", "announced-close", "sent-anew"])
def test_a_request_on_a_new_connection_or_timed_out_is_never_sent_again(replies, chain, sent, match):
    requests = []
    with scripted_peer(replies, requests) as url:
        with pytest.raises(WorkflowRunError, match=match):
            run_workflow_once(parse_workflow(f"{url}\n" * chain, format="lines"), timeout=0.5)
    assert requests == sent


def test_a_pooled_connection_whose_peer_sent_unasked_bytes_is_not_reused():
    requests, connections = [], []
    moved_on, stale_sent = threading.Event(), threading.Event()

    def stale(conn):
        # after its first reply, the peer sends a 408 nobody asked for and keeps the connection open
        connections.append(conn)
        while head := read_request(conn):
            requests.append(head.partition(b"\r\n")[0])
            conn.sendall(OK)
            if not stale_sent.is_set():
                moved_on.wait(5)  # until the client has read the reply and gone on to the next hop
                conn.sendall(b"HTTP/1.1 408 Request Timeout\r\nContent-Length: 0\r\n\r\n")
                stale_sent.set()

    def relay(conn):
        while read_request(conn):
            moved_on.set()
            stale_sent.wait(5)
            time.sleep(0.05)  # for the 408 to reach the client's socket
            conn.sendall(OK)

    with loopback_peer(stale) as url, loopback_peer(relay) as between:
        _, outputs = run_workflow_once(parse_workflow(f"{url}\n{between}\n{url}\n", format="lines"), timeout=2)
    assert list(outputs.values()) == [b"ok", b"ok", b"ok"]
    assert requests == [b"GET / HTTP/1.1", b"POST / HTTP/1.1"]
    # the POST went out on a new connection
    assert len(connections) == 2


def test_a_reply_over_the_body_cap_on_a_kept_alive_connection_is_not_sent_again():
    requests = []
    with scripted_peer([OK, HOSTILE_REPLIES["huge-body"]], requests) as url:
        with pytest.raises(WorkflowRunError, match=f"^POST {re.escape(url)} failed: reply body over {BODY_CAP} bytes$"):
            run_workflow_once(parse_workflow(f"{url}\n{url}\n", format="lines"), timeout=2)
    assert requests == [b"GET / HTTP/1.1", b"POST / HTTP/1.1"]


def _close_delimited(body):
    return b"HTTP/1.1 200 OK\r\n\r\n" + body


def _chunked(body):
    return b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)


@pytest.mark.parametrize("reply", [_close_delimited, _chunked], ids=["close-delimited", "chunked"])
def test_a_reply_of_unknown_length_is_read_up_to_the_cap(monkeypatch, reply):
    monkeypatch.setattr(regionrank.harness, "BODY_CAP", 16)
    with raw_peer(reply(b"x" * 16)) as url:
        _, outputs = run_workflow_once(parse_workflow(url, format="lines"), timeout=2)
    assert list(outputs.values()) == [b"x" * 16]
    with raw_peer(reply(b"x" * 17)) as url:
        with pytest.raises(WorkflowRunError, match=f"^GET {re.escape(url)} failed: reply body over 16 bytes$"):
            run_workflow_once(parse_workflow(url, format="lines"), timeout=2)


def test_a_url_of_another_scheme_is_the_callers_error_and_opens_no_connection():
    with transform_service() as svc:
        accepted = count_accepts(svc)
        url = f"ftp://127.0.0.1:{svc.port}/"
        with pytest.raises(WorkflowRunError, match=f"^GET {re.escape(url)} failed: unknown url type: 'ftp'$"):
            http_body(url, 2.0, WorkflowRunError)
    assert accepted == []


@pytest.mark.parametrize("pooled", [False, True], ids=["new", "pooled"])
def test_an_https_url_served_by_plain_http_is_the_callers_error(pooled):
    # the TLS handshake gets an HTTP reply: a typed error, no traceback, and no
    # socket left open (a leaked one would be a ResourceWarning, an error here)
    with transform_service() as svc, ConnectionPool() as pool:
        url = f"https://127.0.0.1:{svc.port}/"
        with pytest.raises(WorkflowRunError, match=f"^GET {re.escape(url)} failed: "):
            http_body(url, 2.0, WorkflowRunError, pool=pool if pooled else None)
        assert pool.take(("https", f"127.0.0.1:{svc.port}")) is None


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
        LiveProbe(deadline_s=5.0).measure_latency(None, svc.url, 32)
        assert time.perf_counter() - began < 1.0


def test_execute_workflow_rejects_zero_runs():
    with pytest.raises(HarnessError):
        execute_workflow(parse_workflow("http://x.test/", format="lines"), runs=0)


def test_comparison_stats_is_plain_data():
    c = ComparisonStats(speedup_pct=1.0, delta_sigma_pct=None)
    assert c.speedup_pct == 1.0
    assert c.delta_sigma_pct is None
