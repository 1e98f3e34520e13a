import contextlib
import io
import json
import math
import socket
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import regionrank.cli
import regionrank.metrics
from conftest import DEEP_JSON, gather_sim, make_consistent_case
from regionrank.bundled import fixture_path
from regionrank.cli import EXIT_INPUT_ERROR, EXIT_OK, EXIT_PROBE_FAILURE, main
from regionrank.geo import haversine_km
from regionrank.ranking import rank
from regionrank.simulator import SimulatedProbe
from regionrank.workflow import render_workflow

WORKED_WORKFLOW = str(fixture_path("worked_example.workflow"))
WORKED_ENV = str(fixture_path("worked_example_env.json"))
ADVERSARIAL_ENV = str(fixture_path("adversarial_env.json"))
CATALOG = str(fixture_path("regions.json"))


def rank_args(**overrides):
    args = {
        "--workflow": WORKED_WORKFLOW,
        "--catalog": CATALOG,
        "--mode": "sim",
        "--env": WORKED_ENV,
    }
    args.update(overrides)
    flat = ["rank"]
    for key, value in args.items():
        if value is not None:
            flat += [key, value]
    return flat


def json_report(stdout):
    """The JSON document of `rank --format json` output (without the RECOMMENDED line)."""
    body, _ = stdout.rstrip().rsplit("\n", 1)
    return json.loads(body)


def test_rank_worked_example(capsys):
    assert main(rank_args()) == EXIT_OK
    out = capsys.readouterr().out
    assert out.rstrip().endswith("RECOMMENDED: us-east-1")
    assert "EC2 endpoint | final score" in out


def test_rank_json_format(capsys):
    assert main(rank_args(**{"--format": "json"})) == EXIT_OK
    out = capsys.readouterr().out
    body, final = out.rstrip().rsplit("\n", 1)
    doc = json.loads(body)
    assert doc["recommended"] == "us-east-1"
    assert final == "RECOMMENDED: us-east-1"
    assert len(doc["distance_table"]) == 8
    assert len(doc["final_table"]) == doc["prefilter_n"] == 3
    assert doc["prefiltered_regions"] == ["us-east-1", "us-west-2", "us-west-1"]
    assert doc["prefiltered_regions"] == [region for region, _ in doc["distance_table"][:3]]


def test_rank_top_n_overrides_prefilter(capsys):
    assert main(rank_args(**{"--env": ADVERSARIAL_ENV, "--top-n": "8",
                             "--format": "json"})) == EXIT_OK
    out = capsys.readouterr().out
    body, final = out.rstrip().rsplit("\n", 1)
    assert json.loads(body)["recommended"] == "sa-east-1"
    assert final == "RECOMMENDED: sa-east-1"


def test_rank_deterministic_output(capsys):
    assert main(rank_args()) == EXIT_OK
    first = capsys.readouterr().out
    assert main(rank_args()) == EXIT_OK
    assert capsys.readouterr().out == first


def test_rank_missing_catalog_is_input_error(capsys):
    assert main(rank_args(**{"--catalog": "/nonexistent/catalog.json"})) == EXIT_INPUT_ERROR
    assert "error:" in capsys.readouterr().err


def test_rank_sim_mode_requires_env(capsys):
    assert main(rank_args(**{"--env": None})) == EXIT_INPUT_ERROR
    assert "--env" in capsys.readouterr().err


def test_rank_rejects_bad_top_n(capsys):
    assert main(rank_args(**{"--top-n": "0"})) == EXIT_INPUT_ERROR
    assert "top-n" in capsys.readouterr().err


@pytest.mark.parametrize("threshold", ["-1", "1.5", "nan"])
def test_rank_rejects_fail_threshold_outside_0_to_1(monkeypatch, capsys, threshold):
    # rejected before any gather: a gather call would be a TypeError
    monkeypatch.setattr("regionrank.cli.gather_metric_matrix", None)
    assert main(rank_args(**{"--fail-threshold": threshold})) == EXIT_INPUT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert "fail-threshold" in err


def test_rank_probe_failures_exit_3(tmp_path, capsys):
    # env locates nobody, so every channel of every pair fails
    env = {"node_locations": {}, "seed": 1}
    env_file = tmp_path / "empty_env.json"
    env_file.write_text(json.dumps(env))
    assert main(rank_args(**{"--env": str(env_file)})) == EXIT_PROBE_FAILURE
    err = capsys.readouterr().err
    assert "channels failed" in err


@pytest.mark.parametrize("top_n, probes", [("3", 45), ("8", 120)])
def test_rank_probes_only_prefilter_survivors(monkeypatch, capsys, top_n, probes):
    issued = []  # region id per latency sample and per GET
    latency, rtt = SimulatedProbe.measure_latency, SimulatedProbe.measure_http_rtt

    def counted_latency(self, region, host, k):
        issued.extend([region.id] * k)
        return latency(self, region, host, k)

    def counted_rtt(self, region, url):
        issued.append(region.id)
        return rtt(self, region, url)

    monkeypatch.setattr(SimulatedProbe, "measure_latency", counted_latency)
    monkeypatch.setattr(SimulatedProbe, "measure_http_rtt", counted_rtt)
    assert main(rank_args(**{"--top-n": top_n, "--format": "json"})) == EXIT_OK
    doc = json_report(capsys.readouterr().out)
    # top_n survivors x 3 hosts x (4 latency samples + 1 GET)
    assert len(issued) == probes
    assert set(issued) == set(doc["prefiltered_regions"])


def test_rank_gathers_once_and_computes_each_distance_once(monkeypatch, capsys):
    gathers, distances = [], []
    gather = regionrank.cli.gather_metric_matrix

    def counted_gather(*args, **kwargs):
        gathers.append(kwargs)
        return gather(*args, **kwargs)

    def counted_haversine(a, b):
        distances.append((a, b))
        return haversine_km(a, b)

    monkeypatch.setattr(regionrank.cli, "gather_metric_matrix", counted_gather)
    monkeypatch.setattr(regionrank.metrics, "haversine_km", counted_haversine)
    assert main(rank_args(**{"--top-n": "3"})) == EXIT_OK
    assert capsys.readouterr().out.rstrip().endswith("RECOMMENDED: us-east-1")
    assert len(gathers) == 1
    # 8 regions x 3 hosts; the survivors' distances are not worked out again
    assert len(distances) == 24


def test_rank_fail_threshold_counts_only_attempted_channels(tmp_path, capsys):
    # the env cannot locate the probe hosts of the five regions far from the
    # workflow; the prefilter drops them, so their probes are never tried
    env = json.loads(Path(WORKED_ENV).read_text())
    far = ("sa-east-1", "eu-west-1", "ap-northeast-1", "ap-northeast-2", "ap-southeast-1")
    for region_id in far:
        del env["node_locations"][f"ec2.{region_id}.amazonaws.com"]
    env_file = tmp_path / "near_env.json"
    env_file.write_text(json.dumps(env))
    args = rank_args(**{"--env": str(env_file), "--fail-threshold": "0"})
    assert main(args) == EXIT_OK
    assert capsys.readouterr().out.rstrip().endswith("RECOMMENDED: us-east-1")
    # probing all 8 tries them: 5 regions x 3 hosts x 2 channels fail, of
    # 8 x 3 distances + 8 x 3 x 2 probed channels
    assert main(args + ["--top-n", "8"]) == EXIT_PROBE_FAILURE
    assert "30 of 72 channels failed" in capsys.readouterr().err


def test_rank_region_id_equal_to_a_host_key_ranks_like_any_other(tmp_path, capsys):
    # the matrix is keyed by (region id, host), so an id that is also a
    # workflow host key cannot be confused with the host
    catalog = json.loads(Path(CATALOG).read_text())
    outputs = []
    for region_id in ("wikimedia.org", "renamed-region"):
        catalog[0]["id"] = region_id
        path = tmp_path / f"{region_id}.json"
        path.write_text(json.dumps(catalog))
        args = rank_args(**{"--catalog": str(path), "--top-n": "8", "--format": "json"})
        assert main(args) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert "wikimedia.org" in outputs[0]
    assert outputs[0].replace("wikimedia.org", "renamed-region") == outputs[1]


def _write_case(directory, spec, catalog, env) -> dict:
    """Workflow, catalog and env files for a generated case."""
    docs = {
        "workflow": render_workflow(spec, format="lines"),
        "catalog.json": json.dumps([
            {"id": r.id, "probe_host": r.probe_host, "lat": r.location.lat, "lon": r.location.lon}
            for r in catalog
        ]),
        "env.json": json.dumps({
            "node_locations": {
                host: {"lat": point.lat, "lon": point.lon}
                for host, point in env.node_locations.items()
            },
            **{name: getattr(env, name) for name in (
                "base_latency_per_km", "bandwidth_mbps", "service_overhead_ms",
                "processing_s", "noise_sigma_ms", "seed")},
        }),
    }
    paths = {}
    for name, text in docs.items():
        paths[name] = str(Path(directory) / name)
        Path(paths[name]).write_text(text)
    return paths


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 8))
def test_rank_probing_survivors_equals_rank_on_full_matrix(seed, n):
    spec, catalog, env = make_consistent_case(seed)
    expected = rank(spec, catalog, gather_sim(spec, catalog, env), n=n)
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        paths = _write_case(directory, spec, catalog, env)
        with contextlib.redirect_stdout(out):
            code = main(["rank", "--mode", "sim", "--workflow", paths["workflow"],
                         "--catalog", paths["catalog.json"], "--env", paths["env.json"],
                         "--top-n", str(n), "--format", "json"])
    assert code == EXIT_OK
    doc = json_report(out.getvalue())
    assert doc["recommended"] == expected.recommended
    assert doc["prefilter_n"] == len(expected.prefiltered_regions)
    assert tuple(doc["prefiltered_regions"]) == expected.prefiltered_regions
    for table in ("distance_table", "latency_table", "rtt_table", "final_table"):
        assert tuple(tuple(row) for row in doc[table]) == getattr(expected, table)


@pytest.mark.parametrize("flag, what", [
    ("--workflow", "dag file"),
    ("--catalog", "catalog file"),
    ("--env", "environment file"),
    ("--geo", "geolocation fixture"),
])
def test_rank_deeply_nested_input_is_input_error(tmp_path, capsys, flag, what):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON)
    # --geo is read in live mode only, before anything is probed
    mode = "live" if flag == "--geo" else "sim"
    assert main(rank_args(**{flag: str(deep), "--mode": mode})) == EXIT_INPUT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: malformed {what}: ")
    assert err.count("\n") == 1


def test_rank_accepts_dag_workflow(tmp_path, capsys):
    doc = {
        "name": "dagged",
        "sources": ["http://wikimedia.org/images/sample.png"],
        "nodes": [
            {"id": "src", "url": "http://wikimedia.org/images/sample.png"},
            {"id": "princeton", "url": "http://planetlab-03.cs.princeton.edu/"},
        ],
        "hops": [["src", "princeton"]],
    }
    wf = tmp_path / "flow.json"
    wf.write_text(json.dumps(doc))
    assert main(rank_args(**{"--workflow": str(wf)})) == EXIT_OK
    assert "RECOMMENDED: us-east-1" in capsys.readouterr().out


def test_rank_dag_workflow_with_a_null_id_is_input_error(tmp_path, capsys):
    doc = {
        "sources": ["http://wikimedia.org/images/sample.png"],
        "nodes": [{"id": None, "url": "http://wikimedia.org/images/sample.png"}],
        "hops": [],
    }
    wf = tmp_path / "flow.json"
    wf.write_text(json.dumps(doc))
    assert main(rank_args(**{"--workflow": str(wf)})) == EXIT_INPUT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: malformed dag node entry")


def test_rank_dag_workflow_with_a_null_name_is_input_error(tmp_path, capsys):
    doc = {
        "name": None,
        "sources": ["http://wikimedia.org/images/sample.png"],
        "nodes": [{"id": "src", "url": "http://wikimedia.org/images/sample.png"}],
        "hops": [],
    }
    wf = tmp_path / "flow.json"
    wf.write_text(json.dumps(doc))
    assert main(rank_args(**{"--workflow": str(wf)})) == EXIT_INPUT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: malformed dag file: name None is not a string\n"


# --- verify ---


@pytest.fixture()
def small_world(tmp_path):
    env = {
        "node_locations": {
            "src.test": {"lat": 0.0, "lon": 0.0},
            "proc.test": {"lat": 1.0, "lon": 1.0},
            "near.probe.test": {"lat": 0.5, "lon": 0.5},
            "far.probe.test": {"lat": 50.0, "lon": 50.0},
        },
        "processing_s": 0.1,
        "seed": 3,
    }
    env_file = tmp_path / "env.json"
    env_file.write_text(json.dumps(env))
    wf = tmp_path / "wf.workflow"
    wf.write_text("http://src.test/\nhttp://proc.test/\n")
    return str(wf), str(env_file)


def test_verify_sim_positive_speedup_for_nearer_vantage(small_world, capsys):
    wf, env_file = small_world
    code = main([
        "verify", "--workflow", wf, "--mode", "sim", "--env", env_file,
        "--vantage-a", "far.probe.test", "--vantage-b", "near.probe.test",
    ])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "vantage-a (far.probe.test):" in out
    assert "runs 5" in out
    speedup_line = [l for l in out.splitlines() if l.startswith("speedup:")][0]
    assert float(speedup_line.split()[1].rstrip("%")) > 0


def test_verify_sim_identical_vantages_zero_speedup(small_world, capsys):
    wf, env_file = small_world
    code = main([
        "verify", "--workflow", wf, "--mode", "sim", "--env", env_file,
        "--vantage-a", "near.probe.test", "--vantage-b", "near.probe.test",
        "--runs", "3",
    ])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "speedup: 0.00%" in out
    assert "delta-sigma: n/a" in out


def test_verify_sim_unknown_vantage_is_input_error(small_world, capsys):
    wf, env_file = small_world
    code = main([
        "verify", "--workflow", wf, "--mode", "sim", "--env", env_file,
        "--vantage-a", "ghost.test", "--vantage-b", "near.probe.test",
    ])
    assert code == EXIT_INPUT_ERROR
    assert "ghost.test" in capsys.readouterr().err


# --- simulate ---


def test_simulate_prints_oracle_order(capsys):
    code = main([
        "simulate", "--workflow", WORKED_WORKFLOW, "--catalog", CATALOG,
        "--env", ADVERSARIAL_ENV,
    ])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "region | predicted seconds"
    assert lines[-1] == "BEST: sa-east-1"
    assert len(lines) == 10  # header + 8 regions + BEST


@pytest.mark.parametrize("env_doc", [
    '{"seed": null}',
    '{"bandwidth_mbps": null}',
    '{"node_locations": [1, 2]}',
    '{"latency_overrides": {"a|b": null}}',
    '{"bandwidth_mbps": "100", "processing_s": true, "seed": 1.7}',
])
def test_simulate_malformed_env_is_input_error(tmp_path, capsys, env_doc):
    env = tmp_path / "env.json"
    env.write_text(env_doc)
    code = main(["simulate", "--workflow", WORKED_WORKFLOW, "--catalog", CATALOG, "--env", str(env)])
    assert code == EXIT_INPUT_ERROR
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("field, value", [
    ("bandwidth_mbps", math.nan),
    ("base_latency_per_km", math.inf),
    ("latency_overrides", {"ec2.us-east-1.amazonaws.com|wikimedia.org": math.nan}),
])
def test_simulate_non_finite_env_value_is_input_error(tmp_path, capsys, field, value):
    env = json.loads(Path(WORKED_ENV).read_text())
    env[field] = value
    path = tmp_path / "env.json"
    path.write_text(json.dumps(env))  # NaN and Infinity, which json.loads accepts
    code = main(["simulate", "--workflow", WORKED_WORKFLOW, "--catalog", CATALOG, "--env", str(path)])
    assert code == EXIT_INPUT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert "must be finite" in err


def test_simulate_noisy_worked_example(tmp_path, capsys):
    env = json.loads(Path(WORKED_ENV).read_text())
    env.update(noise_sigma_ms=5.0, seed=7)
    path = tmp_path / "env.json"
    path.write_text(json.dumps(env))
    code = main(["simulate", "--workflow", WORKED_WORKFLOW, "--catalog", CATALOG, "--env", str(path)])
    assert code == EXIT_OK
    assert capsys.readouterr().out == (
        "region | predicted seconds\n"
        "us-east-1 | 1.572\n"
        "us-west-2 | 1.636\n"
        "us-west-1 | 1.702\n"
        "eu-west-1 | 1.999\n"
        "sa-east-1 | 2.293\n"
        "ap-northeast-1 | 2.364\n"
        "ap-northeast-2 | 2.403\n"
        "ap-southeast-1 | 2.839\n"
        "BEST: us-east-1\n"
    )


# the oracle sweeps regions in catalog order and each region's edges in edge
# order, locating the region's probe host first: the first host it cannot
# locate is the one named
@pytest.mark.parametrize("sigma", [0.0, 5.0])
@pytest.mark.parametrize("missing, named", [
    (["cs-planetlab4.cs.surrey.sfu.ca"], "cs-planetlab4.cs.surrey.sfu.ca"),
    (["ec2.sa-east-1.amazonaws.com"], "ec2.sa-east-1.amazonaws.com"),
    (["planetlab-03.cs.princeton.edu", "cs-planetlab4.cs.surrey.sfu.ca"], "planetlab-03.cs.princeton.edu"),
    (["ec2.sa-east-1.amazonaws.com", "cs-planetlab4.cs.surrey.sfu.ca"], "cs-planetlab4.cs.surrey.sfu.ca"),
    (["ec2.us-east-1.amazonaws.com", "wikimedia.org"], "ec2.us-east-1.amazonaws.com"),
])
def test_simulate_missing_host_is_input_error(tmp_path, capsys, missing, named, sigma):
    env = json.loads(Path(WORKED_ENV).read_text())
    for host in missing:
        del env["node_locations"][host]
    env["noise_sigma_ms"] = sigma
    path = tmp_path / "env.json"
    path.write_text(json.dumps(env))
    code = main(["simulate", "--workflow", WORKED_WORKFLOW, "--catalog", CATALOG, "--env", str(path)])
    assert code == EXIT_INPUT_ERROR
    assert capsys.readouterr() == ("", f"error: environment has no location for host {named!r}\n")


@pytest.mark.parametrize("command", [
    ["simulate", "--catalog", CATALOG],
    ["verify", "--mode", "sim", "--vantage-a", "ec2.us-east-1.amazonaws.com",
     "--vantage-b", "ec2.us-west-1.amazonaws.com"],
])
def test_negative_data_mb_is_input_error(capsys, command):
    # NaN and infinity too: at NaN simulate printed nan for every region
    for data_mb in ("-1", "nan", "inf"):
        code = main(command + ["--workflow", WORKED_WORKFLOW, "--env", WORKED_ENV, "--data-mb", data_mb])
        assert code == EXIT_INPUT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert "must be non-negative" in err


# --- gen ---


def test_gen_is_deterministic(tmp_path, capsys):
    pool = tmp_path / "pool.txt"
    pool.write_text("# candidate endpoints\nhttp://a.test/\nhttp://b.test/\n")
    args = ["gen", "--pool", str(pool), "--length", "5", "--seed", "9",
            "--source", "http://s.test/"]
    assert main(args) == EXIT_OK
    first = capsys.readouterr().out
    assert main(args) == EXIT_OK
    assert capsys.readouterr().out == first
    lines = first.splitlines()
    assert lines[0] == "# name: random-len5-seed9"
    urls = [l for l in lines if not l.startswith("#")]
    assert len(urls) == 6
    assert urls[0] == "http://s.test/"
    assert set(urls[1:]) <= {"http://a.test/", "http://b.test/"}


def test_gen_missing_pool_is_input_error(capsys):
    code = main(["gen", "--pool", "/nonexistent/pool.txt", "--length", "2",
                 "--seed", "1", "--source", "http://s.test/"])
    assert code == EXIT_INPUT_ERROR
    assert "pool" in capsys.readouterr().err


# --- serve ---


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


@pytest.mark.parametrize("flags, message", [
    (["--port", "99999"], "0-65535"),
    (["--port", "-1"], "0-65535"),
    (["--port", "0", "--delay-ms", "-5"], "delay"),
    (["--port", "0", "--delay-ms", "nan"], "delay"),
])
def test_serve_bad_value_is_input_error(monkeypatch, capsys, flags, message):
    def interrupt(seconds):
        raise KeyboardInterrupt  # a server that did start stops at once

    monkeypatch.setattr(time, "sleep", interrupt)
    assert main(["serve"] + flags) == EXIT_INPUT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_serve_subprocess_round_trip():
    port = free_port()
    proc = subprocess.Popen(
        [sys.executable, "-m", "regionrank", "serve", "--port", str(port), "--mode", "echo"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        url = f"http://127.0.0.1:{port}/"
        deadline = time.time() + 10
        last_error = None
        while time.time() < deadline:
            try:
                req = urllib.request.Request(url, data=b"ping", method="POST")
                with urllib.request.urlopen(req, timeout=2) as resp:
                    assert resp.read() == b"ping"
                break
            except OSError as exc:
                last_error = exc
                time.sleep(0.1)
        else:
            pytest.fail(f"serve never came up: {last_error}")
    finally:
        proc.terminate()
        proc.wait(timeout=10)
