"""Checks that need a new interpreter: what loading the package imports,
that every import the package defers until use still resolves there, and
that CLI output is the same under every string hash seed.

In-process tests run after others have imported the harness and the HTTP
client, which would hide both an import that crept back to load time and a
deferred one that no longer resolves.
"""

import functools
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import regionrank
from regionrank.bundled import fixture_path
from regionrank.harness import payload_source, transform_service
from regionrank.workflow import endpoint_host
from test_golden import GOLDEN, WORLDS, write_world

SRC = str(Path(regionrank.__file__).resolve().parent.parent)
WORKED_WORKFLOW = str(fixture_path("worked_example.workflow"))
WORKED_ENV = str(fixture_path("worked_example_env.json"))
ADVERSARIAL_ENV = str(fixture_path("adversarial_env.json"))
CATALOG = str(fixture_path("regions.json"))
BENCH_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"

# the HTTP client and server with what they pull in, and sockets
NETWORK_MODULES = ("http.client", "http.server", "socketserver", "urllib.request", "ssl", "email", "socket")
# only noise draws hash
HASH_MODULES = ("hashlib", "_hashlib")
# everything the package imports only where it is used
DEFERRED_MODULES = NETWORK_MODULES + HASH_MODULES + ("concurrent.futures", "logging", "statistics")
# what the package never imports: dataclasses, which loads inspect, was once
# about 40 % of the package's import time, and importlib.resources loads
# inspect from Python 3.12 on
UNUSED_MODULES = ("dataclasses", "inspect", "importlib.resources")


def _run(*args, **environ):
    """`python -X importtime *args` with the package on the path and `environ` set; (process, modules it imported)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])), **environ)
    done = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True,
                          text=True, timeout=60, env=env)
    return done, {line.rpartition("|")[2].strip() for line in done.stderr.splitlines()
                  if line.startswith("import time:")}


@functools.cache
def _startup_modules():
    return _run("-c", "pass")[1]


def fresh(*args, **environ):
    """Run `python *args` in a new interpreter with the package on the path and `environ` set.

    Returns the finished process and the modules it imported beyond those a
    bare interpreter imports (so a site hook cannot fail the checks).
    """
    done, imported = _run(*args, **environ)
    return done, imported - _startup_modules()


@pytest.mark.parametrize("module", ["regionrank", "regionrank.cli"])
def test_importing_the_package_loads_no_deferred_module(module):
    done, imported = fresh("-c", f"import {module}")
    assert done.returncode == 0, done.stderr
    assert module in imported
    assert sorted(imported.intersection(DEFERRED_MODULES + UNUSED_MODULES)) == []


@pytest.mark.parametrize("argv", [
    ["simulate", "--workflow", WORKED_WORKFLOW, "--catalog", CATALOG, "--env", WORKED_ENV],
    ["verify", "--mode", "sim", "--workflow", WORKED_WORKFLOW, "--env", WORKED_ENV,
     "--vantage-a", "ec2.us-east-1.amazonaws.com", "--vantage-b", "ec2.eu-west-1.amazonaws.com"],
    ["rank", "--mode", "sim", "--workflow", WORKED_WORKFLOW, "--catalog", CATALOG, "--env", WORKED_ENV],
], ids=["simulate", "verify-sim", "rank-sim"])
def test_simulated_commands_load_no_network_module(argv):
    done, imported = fresh("-m", "regionrank", *argv)
    assert done.returncode == 0, done.stderr
    # nor the thread pool: a simulated rank gathers in the calling thread;
    # nor hashlib: the bundled environments draw no noise
    assert sorted(imported.intersection(NETWORK_MODULES + HASH_MODULES + ("concurrent.futures", "logging"))) == []


def test_a_noisy_simulate_in_a_fresh_process(tmp_path):
    env = json.loads(Path(WORKED_ENV).read_text())
    env["noise_sigma_ms"] = 20.0
    noisy = tmp_path / "noisy_env.json"
    noisy.write_text(json.dumps(env))
    done, imported = fresh("-m", "regionrank", "simulate", "--workflow", WORKED_WORKFLOW,
                           "--catalog", CATALOG, "--env", str(noisy))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1].startswith("BEST: ")
    # the noise draws ran through the deferred import
    assert "hashlib" in imported


# Prints the .hex() of simulated runs 0-9 from the first two regions' probe
# hosts and of every oracle time, on the world whose files are argv[1:4]
SIMULATED_TIMES = """
import sys
from pathlib import Path
from regionrank.regions import load_catalog
from regionrank.simulator import best_region_oracle, load_env, sim_execution_time
from regionrank.workflow import parse_workflow
workflow, catalog, env = (Path(path).read_text() for path in sys.argv[1:4])
spec, catalog, env = parse_workflow(workflow, format="lines"), load_catalog(catalog), load_env(env)
for region in catalog.regions[:2]:
    for run in range(10):
        print(region.probe_host, run, sim_execution_time(env, spec, region.probe_host, run=run).hex())
for region_id, seconds in best_region_oracle(env, spec, catalog)[1]:
    print(region_id, seconds.hex())
"""


def test_simulated_times_are_the_same_floats_in_every_process(tmp_path, monkeypatch, capsys):
    # verify and simulate print 3 decimals of a second, so only the floats themselves
    # show a last-bit difference between processes
    paths = write_world(tmp_path, *WORLDS["noisy"])
    files = [paths["--workflow"], paths["--catalog"], paths["--env"]]
    outputs = []
    for seed in ("0", "1"):
        done, _ = fresh("-c", SIMULATED_TIMES, *files, PYTHONHASHSEED=seed)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    monkeypatch.setattr(sys, "argv", ["-c", *files])
    exec(SIMULATED_TIMES, {})
    in_process = capsys.readouterr().out
    assert len(in_process.splitlines()) == 2 * 10 + 64
    assert outputs == [in_process, in_process]


@pytest.mark.parametrize("world", sorted(WORLDS))
def test_simulated_times_are_the_golden_floats(world, tmp_path, monkeypatch, capsys):
    # tests/golden/<world>-times.hex is SIMULATED_TIMES's output on the world,
    # so a change that moves any time's last bit shows up as a diff
    paths = write_world(tmp_path, *WORLDS[world])
    monkeypatch.setattr(sys, "argv", ["-c", paths["--workflow"], paths["--catalog"], paths["--env"]])
    exec(SIMULATED_TIMES, {})
    assert capsys.readouterr().out == (GOLDEN / f"{world}-times.hex").read_text()


# Runs each argv of the JSON list argv[1] through cli.main in this process
# and prints one JSON line per command: [argv, exit status, stdout]
CLI_COMMANDS = """
import contextlib, io, json, sys
from regionrank.cli import main
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv)
    print(json.dumps([argv, status, out.getvalue()]))
"""

VANTAGES = ["--vantage-a", "ec2.us-east-1.amazonaws.com", "--vantage-b", "ec2.eu-west-1.amazonaws.com"]


def _determinism_commands(tmp_path):
    """argv of every rank, simulate and verify command the cross-process check runs."""
    env = json.loads(Path(WORKED_ENV).read_text())
    env["noise_sigma_ms"] = 20  # a noisy copy of the worked environment: every simulated edge draws noise
    noisy = tmp_path / "noisy_env.json"
    noisy.write_text(json.dumps(env))
    # the benchmark's sweep-wide seed 1 files (256 regions, 100 hosts, a 1000-hop
    # chain); run_path compiles inputs.py without writing bytecode into bench/
    wide = tmp_path / "sweep-wide"
    wide.mkdir()
    for name, text in runpy.run_path(str(BENCH_INPUTS))["sweep_wide"](1).items():
        (wide / name).write_text(text)

    commands = []
    for env in (WORKED_ENV, ADVERSARIAL_ENV):
        files = ["--workflow", WORKED_WORKFLOW, "--catalog", CATALOG, "--env", env]
        commands += [
            ["rank", "--mode", "sim", "--format", "json", *files],
            # the default table format renders the same report on its own path
            ["rank", "--mode", "sim", *files],
            # --top-n 1 probes one region, --top-n 8 every region of the catalog
            *(["rank", "--mode", "sim", "--format", "json", "--top-n", n, *files] for n in ("1", "8")),
            ["simulate", *files],
            ["verify", "--mode", "sim", "--workflow", WORKED_WORKFLOW, "--env", env, *VANTAGES],
        ]
    files = ["--workflow", WORKED_WORKFLOW, "--env", str(noisy)]
    commands += [
        ["simulate", "--catalog", CATALOG, *files],
        ["verify", "--mode", "sim", *files, *VANTAGES],
        # 50 runs per vantage: every run after the first reads the vantage's remembered base-latency row
        ["verify", "--mode", "sim", "--runs", "50", *files, *VANTAGES],
    ]
    files = ["--workflow", str(wide / "workflow"), "--env", str(wide / "env.json")]
    catalog = ["--catalog", str(wide / "catalog.json")]
    vantages = ["--vantage-a", "probe-000.test", "--vantage-b", "probe-001.test"]
    commands += [
        ["simulate", *catalog, *files],
        ["rank", "--mode", "sim", "--format", "json", "--top-n", "8", *catalog, *files],
        # the benchmark's own sweep-wide rank: table, default --top-n, no failed channel allowed
        ["rank", "--mode", "sim", "--fail-threshold", "0", *catalog, *files],
        ["verify", "--mode", "sim", *files, *vantages],
        ["verify", "--mode", "sim", "--runs", "50", *files, *vantages],
    ]
    return commands


def test_cli_output_is_the_same_under_every_string_hash_seed(tmp_path):
    # the acceptance determinism test ranks twice in one process, under one
    # string hash seed; this compares two hash seeds, so no dict or set keyed
    # by a host or region id leaks its hash order into rank, simulate or
    # verify output
    commands = _determinism_commands(tmp_path)
    outputs = []
    for seed in ("0", "1"):
        done, _ = _run("-c", CLI_COMMANDS, json.dumps(commands), PYTHONHASHSEED=seed)
        assert done.returncode == 0, done.stderr
        outputs.append([json.loads(line) for line in done.stdout.splitlines()])
    assert len(outputs[0]) == len(outputs[1]) == len(commands) == 20
    for (argv, status, stdout), (_, other_status, other_stdout) in zip(*outputs):
        assert status == other_status == 0, argv
        assert stdout == other_stdout, argv


def test_harness_names_resolve_on_the_package_in_a_fresh_interpreter():
    done, _ = fresh("-c", "from regionrank import execute_workflow, ExecutionStats, ComparisonStats, "
                          "compare_stats; print(execute_workflow.__module__, ExecutionStats.__name__)")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "regionrank.harness ExecutionStats\n"


def test_verify_live_in_a_fresh_process(tmp_path):
    wf = tmp_path / "loopback.workflow"
    with payload_source(b"fresh payload") as src, transform_service() as svc:
        wf.write_text(f"{src.url}\n{svc.url}\n")
        done, _ = fresh("-m", "regionrank", "verify", "--mode", "live", "--runs", "2",
                        "--workflow", str(wf), "--vantage-a", "a", "--vantage-b", "b")
    assert done.returncode == 0, done.stderr
    vantages = [line for line in done.stdout.splitlines() if line.startswith("vantage-")]
    assert [line.split(" (")[0] for line in vantages] == ["vantage-a", "vantage-b"]
    assert all("runs 2  failures 0" in line for line in vantages)


def test_rank_live_in_a_fresh_process(tmp_path):
    wf, geo = tmp_path / "loopback.workflow", tmp_path / "geo.json"
    with payload_source() as src, transform_service() as svc:
        urls = [src.url, svc.url]
        wf.write_text("".join(f"{url}\n" for url in urls))
        geo.write_text(json.dumps({endpoint_host(url): {"lat": 40.0, "lon": -75.0} for url in urls}))
        done, imported = fresh("-m", "regionrank", "rank", "--mode", "live", "--workflow", str(wf),
                               "--catalog", CATALOG, "--geo", str(geo), "--top-n", "2",
                               "--fail-threshold", "0")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1].startswith("RECOMMENDED: ")
    # the probes ran through each deferred import
    assert {"socket", "concurrent.futures", "http.client"} <= imported


# Runs `call` in a new interpreter with time.perf_counter wrapped to note the
# loaded modules at each reading, and prints those first seen after the first
# reading: any module imported inside the timed window.
TIMED_WINDOW = """
import sys, time
{setup}
readings, clock = [], time.perf_counter
def reading():
    readings.append(set(sys.modules))
    return clock()
time.perf_counter = reading
{call}
time.perf_counter = clock
assert len(readings) >= 2, readings
print(sorted(set().union(*readings) - readings[0]))
"""


@pytest.mark.parametrize("setup,call", [
    ("from regionrank.metrics import LiveProbe", "LiveProbe().measure_latency(None, {url!r}, 1)"),
    ("from regionrank.metrics import LiveProbe", "LiveProbe().measure_http_rtt(None, {url!r})"),
    ("from regionrank.harness import run_workflow_once\nfrom regionrank.workflow import parse_workflow",
     "run_workflow_once(parse_workflow({url!r}))"),
], ids=["measure_latency", "measure_http_rtt", "run_workflow_once"])
def test_first_timed_request_imports_nothing_inside_its_clock(setup, call):
    # sockets and the HTTP client load on first use; a first measurement that
    # timed the import would read tens of ms too slow
    with payload_source(b"timed") as src:
        call = call.format(url=src.url)
        done, _ = fresh("-c", TIMED_WINDOW.format(setup=setup, call=call))
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
