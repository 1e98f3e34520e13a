import contextlib
import io
import json
import math
import os
import signal
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
import regionrank.harness
import regionrank.metrics
from conftest import DEEP_JSON, HOSTILE_REPLIES, gather_sim, kept_alive, make_consistent_case, raw_peer
from regionrank.bundled import fixture_path
from regionrank.cli import EXIT_INPUT_ERROR, EXIT_OK, EXIT_PROBE_FAILURE, main
from regionrank.geo import haversine_row
from regionrank.harness import transform_service
from regionrank.ranking import rank, render_report
from regionrank.regions import load_catalog
from regionrank.simulator import SimulatedProbe
from regionrank.workflow import endpoint_host, parse_workflow, render_workflow

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


@pytest.mark.parametrize("flag", ["--top-n", "--samples"])
def test_rank_rejects_bad_top_n(capsys, flag):
    assert main(rank_args(**{flag: "0"})) == EXIT_INPUT_ERROR
    assert f"error: {flag} must be at least 1" in capsys.readouterr().err


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

    def counted_latency(self, region, url, k):
        issued.extend([region.id] * k)
        return latency(self, region, url, k)

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

    def counted_row(origin, points):
        points = list(points)
        distances.extend((origin, point) for point in points)
        return haversine_row(origin, points)

    monkeypatch.setattr(regionrank.cli, "gather_metric_matrix", counted_gather)
    monkeypatch.setattr(regionrank.metrics, "haversine_row", counted_row)
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


def test_rank_scores_that_overflow_are_input_error(tmp_path, capsys):
    env = json.loads(Path(WORKED_ENV).read_text())
    env["base_latency_per_km"] = 1e308  # finite, but every probed latency is inf
    path = tmp_path / "env.json"
    path.write_text(json.dumps(env))
    assert main(rank_args(**{"--env": str(path)})) == EXIT_INPUT_ERROR
    assert capsys.readouterr() == ("", "error: latency score of region 'us-east-1' is not finite: inf\n")


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


def test_rank_dag_workflow_with_an_empty_id_is_input_error(tmp_path, capsys):
    doc = {
        "sources": ["http://wikimedia.org/images/sample.png"],
        "nodes": [{"id": "", "url": "http://wikimedia.org/images/sample.png"}],
        "hops": [],
    }
    wf = tmp_path / "flow.json"
    wf.write_text(json.dumps(doc))
    assert main(rank_args(**{"--workflow": str(wf)})) == EXIT_INPUT_ERROR
    assert capsys.readouterr() == ("", "error: node id must be non-empty\n")


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


def _live_rank_args(tmp_path, urls, lat=40.0, lon=-75.0):
    """Arguments of live rank over a workflow of `urls`, every host located at (lat, lon)."""
    geo = tmp_path / "geo.json"
    geo.write_text(json.dumps({endpoint_host(url): {"lat": lat, "lon": lon} for url in urls}))
    wf = tmp_path / "live.workflow"
    wf.write_text("".join(f"{url}\n" for url in urls))
    return ["rank", "--workflow", str(wf), "--catalog", CATALOG, "--mode", "live", "--geo", str(geo)]


def _rank_live(tmp_path, urls):
    """Exit code of live rank with --fail-threshold 0 over a workflow of `urls`, all located."""
    return main(_live_rank_args(tmp_path, urls) + ["--fail-threshold", "0"])


def _failed_host_channels(err):
    """(host, channel) of every failed channel a rank past its threshold lists on stderr."""
    lines = err.splitlines()
    assert lines[-1].startswith("error: ") and "channels failed" in lines[-1]
    return {tuple(line.split(" -> ")[1].rstrip("]").split(" [")) for line in lines[:-1]}


def test_rank_live_reply_no_client_parses_fails_only_that_hosts_rtt(tmp_path, capsys):
    with transform_service() as svc, raw_peer(HOSTILE_REPLIES["hello"]) as hello:
        assert _rank_live(tmp_path, [svc.url, hello]) == EXIT_PROBE_FAILURE
    out, err = capsys.readouterr()
    assert out == ""
    assert _failed_host_channels(err) == {(endpoint_host(hello), "rtt")}


def test_rank_live_reply_over_the_body_cap_fails_only_that_hosts_rtt(tmp_path, capsys):
    with transform_service() as svc, raw_peer(HOSTILE_REPLIES["huge-body"]) as huge:
        assert _rank_live(tmp_path, [svc.url, huge]) == EXIT_PROBE_FAILURE
    out, err = capsys.readouterr()
    assert out == ""
    assert _failed_host_channels(err) == {(endpoint_host(huge), "rtt")}


def test_rank_live_host_name_idna_cannot_encode_fails_only_that_hosts_probes(tmp_path, capsys):
    long_name = "a" * 64 + ".test"  # endpoint_host accepts it; the idna codec does not
    with transform_service() as svc:
        assert _rank_live(tmp_path, [svc.url, f"http://{long_name}/"]) == EXIT_PROBE_FAILURE
    out, err = capsys.readouterr()
    assert out == ""
    assert _failed_host_channels(err) == {(long_name, "latency"), (long_name, "rtt")}


def test_rank_live_names_a_failed_channel_below_the_threshold(tmp_path, capsys, monkeypatch):
    gathered = []
    gather = regionrank.cli.gather_metric_matrix

    def kept_gather(*args, **kwargs):
        gathered.append(gather(*args, **kwargs))
        return gathered[-1]

    monkeypatch.setattr(regionrank.cli, "gather_metric_matrix", kept_gather)
    with transform_service() as svc, raw_peer(HOSTILE_REPLIES["huge-body"]) as huge:
        args = _live_rank_args(tmp_path, [svc.url, huge])
        assert main(args) == EXIT_OK  # 3 failed of 8 x 2 distances + 3 x 2 x 2 probed, under 0.5
    out, err = capsys.readouterr()
    [matrix] = gathered
    spec = parse_workflow((tmp_path / "live.workflow").read_text(), format="lines")
    catalog = load_catalog(Path(CATALOG).read_text())
    report = rank(spec, catalog, matrix, n=3)
    # stdout is the report alone; stderr names the dead host's rtt in each survivor's row
    assert out == render_report(report) + f"RECOMMENDED: {report.recommended}\n"
    assert err == "".join(f"failed channel: {region_id} -> {endpoint_host(huge)} [rtt]\n"
                          for region_id in sorted(report.prefiltered_regions))


def test_rank_live_recommends_the_closest_survivor_every_time(tmp_path, capsys):
    # Seattle: the prefilter order (us-west-2 first) is not the order of the ids
    with contextlib.ExitStack() as stack:
        urls = [stack.enter_context(transform_service()).url for _ in range(3)]
        args = _live_rank_args(tmp_path, urls, lat=47.6, lon=-122.3) + ["--format", "json"]
        reports = []
        for _ in range(3):
            assert main(args) == EXIT_OK
            reports.append(json_report(capsys.readouterr().out))
    survivors = reports[0]["prefiltered_regions"]
    assert survivors[0] != min(survivors)
    for report in reports:
        assert report["recommended"] == report["prefiltered_regions"][0] == survivors[0]
        for table in ("distance_table", "latency_table", "rtt_table", "final_table"):
            assert [row[0] for row in report[table]] == [row[0] for row in reports[0][table]]


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


@pytest.mark.parametrize("mode", ["sim", "live"])
def test_verify_rejects_runs_below_1(small_world, capsys, mode):
    wf, env_file = small_world
    code = main([
        "verify", "--workflow", wf, "--mode", mode, "--env", env_file,
        "--vantage-a", "far.probe.test", "--vantage-b", "near.probe.test", "--runs", "0",
    ])
    assert code == EXIT_INPUT_ERROR
    assert capsys.readouterr() == ("", "error: --runs must be at least 1\n")


def test_verify_sim_noisy_worked_example(tmp_path, capsys):
    env = json.loads(Path(WORKED_ENV).read_text())
    env.update(noise_sigma_ms=5.0, seed=7)
    path = tmp_path / "env.json"
    path.write_text(json.dumps(env))
    code = main([
        "verify", "--mode", "sim", "--workflow", WORKED_WORKFLOW, "--env", str(path), "--runs", "20",
        "--vantage-a", "ec2.us-east-1.amazonaws.com", "--vantage-b", "ec2.eu-west-1.amazonaws.com",
    ])
    assert code == EXIT_OK
    assert capsys.readouterr().out == (
        "vantage-a (ec2.us-east-1.amazonaws.com): mean 1.563 s  stddev 0.010 s  runs 20  failures 0\n"
        "vantage-b (ec2.eu-west-1.amazonaws.com): mean 2.004 s  stddev 0.013 s  runs 20  failures 0\n"
        "speedup: -22.00%\n"
        "delta-sigma: 29.17%\n"
    )


@pytest.mark.parametrize("command", [
    rank_args(**{"--env": None}),
    ["verify", "--mode", "sim", "--workflow", WORKED_WORKFLOW,
     "--vantage-a", "ec2.us-east-1.amazonaws.com", "--vantage-b", "ec2.eu-west-1.amazonaws.com"],
], ids=["rank", "verify"])
def test_seed_option_replaces_the_environment_seed(tmp_path, capsys, command):
    env = json.loads(Path(WORKED_ENV).read_text())
    env["noise_sigma_ms"] = 20.0  # every simulated sample draws seeded noise

    def output(seed, *extra):
        path = tmp_path / f"env-{seed}.json"
        path.write_text(json.dumps({**env, "seed": seed}))
        assert main([*command, "--env", str(path), *extra]) == EXIT_OK
        return capsys.readouterr()

    overridden = output(env["seed"], "--seed", "3")
    assert overridden == output(3)
    assert overridden.out != output(env["seed"]).out


def test_verify_sim_derives_the_workflow_once(small_world, capsys, derivations):
    wf, env_file = small_world
    code = main([
        "verify", "--workflow", wf, "--mode", "sim", "--env", env_file,
        "--vantage-a", "far.probe.test", "--vantage-b", "near.probe.test", "--runs", "5",
    ])
    assert code == EXIT_OK
    assert "runs 5" in capsys.readouterr().out
    assert len(derivations) == 1  # when the workflow file was parsed, not once per run


def test_verify_sim_unknown_vantage_is_input_error(small_world, capsys):
    wf, env_file = small_world
    code = main([
        "verify", "--workflow", wf, "--mode", "sim", "--env", env_file,
        "--vantage-a", "ghost.test", "--vantage-b", "near.probe.test",
    ])
    assert code == EXIT_INPUT_ERROR
    assert "ghost.test" in capsys.readouterr().err


# --- host keys ---


def _keyed_world(tmp_path, workflow="http://src.test/\nhttp://p.test/\n", locations=(), catalog=None,
                 overrides=None):
    """Paths of a two-region world; `locations` replaces host keys of the environment's node_locations."""
    renamed = dict(locations)
    points = {"src.test": (0.0, 0.0), "p.test": (1.0, 1.0), "r1.test": (0.5, 0.5), "r2.test": (50.0, 50.0)}
    env = {"node_locations": {renamed.get(host, host): {"lat": lat, "lon": lon}
                              for host, (lat, lon) in points.items()},
           "latency_overrides": overrides or {}}
    regions = catalog or {"us-east-1": "r1.test", "eu-west-1": "r2.test"}
    paths = {"workflow": tmp_path / "wf", "env": tmp_path / "env.json", "catalog": tmp_path / "catalog.json",
             "geo": tmp_path / "geo.json"}
    paths["workflow"].write_text(workflow)
    paths["env"].write_text(json.dumps(env))
    paths["catalog"].write_text(json.dumps([
        {"id": region_id, "probe_host": host, **env["node_locations"].get(host, {"lat": 0.0, "lon": 0.0})}
        for region_id, host in regions.items()
    ]))
    paths["geo"].write_text(json.dumps(env["node_locations"]))
    return {name: str(path) for name, path in paths.items()}


KEYED_COMMANDS = {
    "rank": "rank --mode sim --top-n 2 --workflow {workflow} --catalog {catalog} --env {env}",
    "simulate": "simulate --workflow {workflow} --catalog {catalog} --env {env}",
    "verify": "verify --mode sim --workflow {workflow} --env {env} --vantage-a r1.test --vantage-b r2.test",
}


@pytest.mark.parametrize("command", sorted(KEYED_COMMANDS))
def test_a_mixed_case_location_key_is_input_error_for_every_command(tmp_path, capsys, command):
    # the workflow's host key is src.test, which an environment locating
    # SRC.test can never match: rank --mode sim used to exit 0 with every
    # score near 1e8, the failed distances under the default threshold
    paths = _keyed_world(tmp_path, workflow="http://Src.Test/\nhttp://p.test/\n", locations={"src.test": "SRC.test"})
    assert main(KEYED_COMMANDS[command].format_map(paths).split()) == EXIT_INPUT_ERROR
    assert capsys.readouterr() == ("", (
        "error: bad environment field 'node_locations': locations: host key 'SRC.test' is not canonical; "
        "write 'src.test'\n"
    ))


@pytest.mark.parametrize("world, command, message", [
    ({"catalog": {"us-east-1": "R1.test", "eu-west-1": "r2.test"}}, "rank",
     "region 'us-east-1' probe_host: host key 'R1.test' is not canonical; write 'r1.test'"),
    ({"overrides": {"r1.test|p.test:80": 5.0}}, "simulate",
     "latency_overrides: host key 'p.test:80' is not canonical; write 'p.test'"),
    ({"locations": {"p.test": "p.test:80"}}, "rank",
     "bad environment field 'node_locations': locations: host key 'p.test:80' is not canonical; write 'p.test'"),
    ({}, "verify-vantage",
     "--vantage-b: host key '::1' is not canonical; write '[::1]'"),
    ({"locations": {"r2.test": "R2.test"}}, "rank-live",
     "locations: host key 'R2.test' is not canonical; write 'r2.test'"),
], ids=["catalog", "override", "location", "vantage", "geo"])
def test_a_non_canonical_host_key_is_input_error_naming_it(tmp_path, capsys, world, command, message):
    commands = dict(
        KEYED_COMMANDS,
        **{"verify-vantage": KEYED_COMMANDS["verify"].replace("r2.test", "::1"),
           # refused before any probe: the workflow's hosts are never contacted
           "rank-live": "rank --mode live --workflow {workflow} --catalog {catalog} --geo {geo}"},
    )
    paths = _keyed_world(tmp_path, **world)
    assert main(commands[command].format_map(paths).split()) == EXIT_INPUT_ERROR
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_verify_live_counts_a_reply_no_client_parses_as_a_failed_run(tmp_path, capsys):
    wf = tmp_path / "hello.workflow"
    with raw_peer(HOSTILE_REPLIES["hello"]) as hello:
        wf.write_text(f"{hello}\n")
        code = main(["verify", "--workflow", str(wf), "--vantage-a", "a", "--vantage-b", "b", "--runs", "2"])
    assert code == EXIT_INPUT_ERROR
    assert capsys.readouterr() == ("", "error: all 2 workflow runs failed\n")


def test_verify_live_counts_a_reply_over_the_body_cap_as_a_failed_run(tmp_path, capsys):
    wf = tmp_path / "huge.workflow"
    with raw_peer(HOSTILE_REPLIES["huge-body"]) as huge:
        wf.write_text(f"{huge}\n")
        code = main(["verify", "--workflow", str(wf), "--vantage-a", "a", "--vantage-b", "b", "--runs", "1"])
    assert code == EXIT_INPUT_ERROR
    assert capsys.readouterr() == ("", "error: all 1 workflow runs failed\n")


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


# the oracle sweeps regions in catalog order, and verify times vantage-a first
@pytest.mark.parametrize("field, value", [("processing_s", 1e308), ("bandwidth_mbps", 1e-308)])
@pytest.mark.parametrize("command, host", [
    (["simulate", "--catalog", CATALOG], "ec2.us-east-1.amazonaws.com"),
    (["verify", "--mode", "sim", "--vantage-a", "ec2.us-west-1.amazonaws.com",
      "--vantage-b", "ec2.us-east-1.amazonaws.com"], "ec2.us-west-1.amazonaws.com"),
], ids=["simulate", "verify"])
def test_simulated_time_that_overflows_is_input_error(tmp_path, capsys, command, host, field, value):
    env = json.loads(Path(WORKED_ENV).read_text())
    env[field] = value  # finite, but the simulated time is not
    path = tmp_path / "env.json"
    path.write_text(json.dumps(env))
    code = main(command + ["--workflow", WORKED_WORKFLOW, "--env", str(path)])
    assert code == EXIT_INPUT_ERROR
    assert capsys.readouterr() == (
        "", f"error: environment overflows: simulated time with the orchestrator at {host!r} is inf\n"
    )


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


USER_INFO_URL = "http://user:pw@s.test/"


@pytest.mark.parametrize("argv, where", [
    (["gen", "--pool", "pool.txt", "--length", "1", "--seed", "1", "--source", USER_INFO_URL], "source"),
    (["rank", "--mode", "sim", "--workflow", "user.workflow", "--catalog", CATALOG, "--env", WORKED_ENV], "line 1"),
], ids=["gen", "rank"])
def test_a_url_with_user_info_is_input_error(tmp_path, monkeypatch, capsys, argv, where):
    (tmp_path / "pool.txt").write_text("http://a.test/\n")
    (tmp_path / "user.workflow").write_text(f"{USER_INFO_URL}\n")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_INPUT_ERROR
    assert capsys.readouterr() == ("", f"error: malformed URL at {where}: {USER_INFO_URL!r} (user info is not allowed)\n")


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
        proc.communicate(timeout=10)  # waits, then closes both pipes


def test_serve_exits_on_interrupt_while_a_client_holds_an_idle_connection():
    proc = subprocess.Popen(
        [sys.executable, "-m", "regionrank", "serve", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        # "serving transform (rotate) on http://127.0.0.1:PORT/"
        url = proc.stdout.readline().split()[-1]
        connection = kept_alive(int(url.rstrip("/").rpartition(":")[2]))
        try:
            proc.send_signal(signal.SIGINT)
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            pass  # killed below; the assertion then shows what it wrote
        finally:
            connection.close()
    finally:
        if proc.poll() is None:
            proc.kill()
        _, stderr = proc.communicate(timeout=10)
    # a traceback on stderr shows why serve did not exit cleanly
    assert proc.returncode == EXIT_OK, stderr


class _InterruptedFlush(io.StringIO):
    """stdout whose first flush is interrupted, as by a SIGINT that lands just after serve's banner is written."""

    interrupted = False

    def flush(self):
        if not self.interrupted:
            self.interrupted = True
            raise KeyboardInterrupt
        super().flush()


def test_serve_exits_on_an_interrupt_that_lands_as_its_banner_is_flushed(monkeypatch):
    stdout = _InterruptedFlush()
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        code = main(["serve", "--port", "0"])
    except KeyboardInterrupt:
        pytest.fail("the interrupt escaped serve")  # rather than end the test session
    assert code == EXIT_OK
    assert stdout.interrupted
    assert stdout.getvalue().startswith("serving transform (rotate) on http://127.0.0.1:")


def test_serve_stops_on_an_interrupt_and_closes_its_service(monkeypatch, capsys):
    started = []

    def recording_service(**kwargs):
        started.append(transform_service(**kwargs))
        return started[-1]

    def interrupt(seconds):
        raise KeyboardInterrupt

    monkeypatch.setattr(regionrank.harness, "transform_service", recording_service)
    monkeypatch.setattr(time, "sleep", interrupt)
    assert main(["serve", "--port", "0"]) == EXIT_OK
    [service] = started
    assert capsys.readouterr().out == f"serving transform (rotate) on {service.url}\n"
    assert service.socket.fileno() == -1  # the listening socket is closed


def test_a_closed_stdout_exits_1_in_process_and_keeps_no_descriptor(monkeypatch, capsys):
    opened = []
    os_open = os.open

    def recording_open(path, flags, *args):
        opened.append(os_open(path, flags, *args))
        return opened[-1]

    reader, writer = os.pipe()
    os.close(reader)
    with open(writer, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        monkeypatch.setattr(os, "open", recording_open)
        code = main(["simulate", "--workflow", WORKED_WORKFLOW, "--catalog", CATALOG, "--env", WORKED_ENV])
        monkeypatch.undo()  # stdout and os.open back before the pipe's file closes
    assert code == 1
    assert "error:" not in capsys.readouterr().err
    [devnull] = opened
    with pytest.raises(OSError):
        os.fstat(devnull)


@pytest.mark.parametrize("argv", [
    ["simulate", "--workflow", WORKED_WORKFLOW, "--catalog", CATALOG, "--env", WORKED_ENV],
    rank_args(),
    rank_args(**{"--format": "json"}),
    ["verify", "--mode", "sim", "--workflow", WORKED_WORKFLOW, "--env", WORKED_ENV,
     "--vantage-a", "ec2.us-east-1.amazonaws.com", "--vantage-b", "ec2.eu-west-1.amazonaws.com"],
    ["gen", "--pool", WORKED_WORKFLOW, "--length", "3", "--seed", "1", "--source", "http://s.test/"],
    ["serve", "--port", "0"],
], ids=["simulate", "rank-sim", "rank-sim-json", "verify-sim", "gen", "serve"])
def test_a_closed_stdout_exits_1_without_an_error_line(argv):
    # the reader has gone before the command writes anything
    reader, writer = os.pipe()
    os.close(reader)
    try:
        done = subprocess.run([sys.executable, "-m", "regionrank", *argv], stdout=writer,
                              stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(writer)
    assert done.returncode == 1, done.stderr
    assert "error:" not in done.stderr
    assert "Exception ignored" not in done.stderr
