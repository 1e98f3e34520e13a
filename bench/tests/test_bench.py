"""Tests of the benchmark itself: inputs, counters, span arithmetic, clean-up.

Run from the repository root: python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import inputs
import regionrank.cli
import run
import tracing
from regionrank.bundled import fixture_text
from regionrank.metrics import gather_metric_matrix
from regionrank.regions import load_catalog
from regionrank.simulator import SimulatedProbe, load_env
from regionrank.workflow import ServiceNode, distinct_nodes, parse_workflow

BENCH = Path(__file__).resolve().parent.parent


def test_generator_is_deterministic():
    catalog = fixture_text("regions.json")
    ports = (8000, list(range(8001, 8009)))
    assert inputs.sweep_wide(5) == inputs.sweep_wide(5)
    assert inputs.loopback(5, *ports, catalog) == inputs.loopback(5, *ports, catalog)
    assert inputs.loopback_payload(5) == inputs.loopback_payload(5)
    assert inputs.sweep_wide(5) != inputs.sweep_wide(6)
    assert inputs.loopback_payload(5) != inputs.loopback_payload(6)


def test_generated_inputs_have_the_workload_shapes():
    sweep = inputs.sweep_wide(1)
    spec = parse_workflow(sweep["workflow"], format="lines")
    assert len(spec.hops) == 1000
    assert len(load_catalog(sweep["catalog.json"])) == 256
    assert load_env(sweep["env.json"]).noise_sigma_ms == 0.0

    loop = inputs.loopback(1, 8000, list(range(8001, 8009)), fixture_text("regions.json"))
    spec = parse_workflow(loop["workflow"], format="lines")
    assert len(spec.hops) == 16 and len(distinct_nodes(spec)) == 9
    assert len(inputs.loopback_payload(1)) == 256 * 1024


def tiny_case():
    files = inputs.sweep_wide(3)
    spec = parse_workflow(files["workflow"], format="lines")
    catalog = load_catalog(files["catalog.json"])
    return spec, catalog, load_env(files["env.json"])


def test_counting_probe_counts_r_h_k_plus_one():
    spec, catalog, env = tiny_case()
    nodes = distinct_nodes(spec)[:4]
    regions = catalog.regions[:3]
    k = 2
    counters = tracing.Counters()
    probe = tracing.CountingProbe(SimulatedProbe(env), counters)
    gather_metric_matrix(probe, env.resolver(), regions, nodes, k=k, parallelism=2)
    counts = counters.snapshot()
    assert counts["latency_samples"] + counts["http_gets"] == 3 * 4 * (k + 1)
    assert counts["http_gets"] == 3 * 4
    assert counts["probe_failures"] == 0
    assert counts["probe_busy_s"] > 0


def test_instrumented_counts_class_probes_and_host_lookups_then_restores():
    spec, catalog, env = tiny_case()
    nodes = distinct_nodes(spec)[:4]
    originals = (SimulatedProbe.measure_latency, ServiceNode.__dict__["host"], regionrank.cli.rank)
    counters = tracing.Counters()
    with tracing.instrumented(tracing.Tracer(), counters):
        gather_metric_matrix(SimulatedProbe(env), env.resolver(), catalog.regions[:3], nodes,
                             k=3, parallelism=2)
        gathered = counters.snapshot()
        counters.reset()
        _ = [node.host for node in spec.nodes]
        lookups = counters.snapshot()["host_lookups"]
    assert gathered["latency_samples"] + gathered["http_gets"] == 3 * 4 * (3 + 1)
    assert lookups == len(spec.nodes)
    assert originals == (SimulatedProbe.measure_latency, ServiceNode.__dict__["host"],
                         regionrank.cli.rank)


def span(id, name, start, end, parent=None):
    return {"id": id, "name": name, "start": start, "end": end, "parent": parent, "run": "r"}


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        span(0, "root", 0.0, 10.0),
        span(1, "a", 1.0, 4.0, parent=0),
        span(2, "c", 3.0, 6.0, parent=0),  # overlaps a and b: counted once
        span(3, "b", 5.0, 9.0, parent=0),
        span(4, "leaf", 6.0, 7.0, parent=3),
        span(5, "a", 20.0, 25.0),
    ]
    own = tracing.self_times(spans)
    assert own == {0: 2.0, 1: 3.0, 2: 3.0, 3: 3.0, 4: 1.0, 5: 5.0}
    assert tracing.median_self(spans, "a") == 4.0
    assert tracing.median_self(spans, "missing") == 0.0


def test_tracer_records_parents_and_runs():
    tracer = tracing.Tracer()
    tracer.run = "rank-0"
    with tracer.span("outer") as outer:
        tracer.wrap(lambda x: x, "inner")(1)
    inner = tracer.spans[1]
    assert inner["parent"] == outer["id"] and inner["run"] == "rank-0"
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
    assert tracer.last_args["inner"] == ((1,), {})


def test_loopback_services_shut_down_without_leaked_threads(tmp_path):
    before = set(threading.enumerate())
    tally = run.Tally()
    workload = run.Loopback(1, tmp_path / "work", tally)
    try:
        workload.setup()
        workload.prepare()
        assert workload.rank()
        assert workload.verify(0)
        workload.final_checks()
    finally:
        workload.teardown()
    assert tally.failed == 0 and tally.attempted > 0
    deadline = time.monotonic() + 10.0
    while set(threading.enumerate()) - before and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not set(threading.enumerate()) - before


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "loopback", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_lists_the_metrics_the_run_reports():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in doc["end_to_end"]] == list(run.E2E_METRICS)
    assert [m["name"] for m in doc["per_layer"]] == list(run.PER_LAYER_METRICS)
