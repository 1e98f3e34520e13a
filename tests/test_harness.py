import json
import math
import re
import socket
import statistics
import urllib.error
import urllib.request

import pytest
from hypothesis import example, given, strategies as st

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
        assert err.value.code == 404


def test_oversized_body_rejected_with_413():
    with transform_service(body_cap=16) as svc:
        with pytest.raises(urllib.error.HTTPError) as err:
            post(svc.url, b"x" * 17)
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


def test_execute_workflow_rejects_zero_runs():
    with pytest.raises(HarnessError):
        execute_workflow(parse_workflow("http://x.test/", format="lines"), runs=0)


def test_comparison_stats_is_plain_data():
    c = ComparisonStats(speedup_pct=1.0, delta_sigma_pct=None)
    assert c.speedup_pct == 1.0
    assert c.delta_sigma_pct is None
