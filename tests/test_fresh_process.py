"""Checks that need a new interpreter: what loading the package imports, and
that every import the package defers until use still resolves there.

In-process tests run after others have imported the harness and the HTTP
client, which would hide both an import that crept back to load time and a
deferred one that no longer resolves.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import regionrank
from regionrank.bundled import fixture_path
from regionrank.harness import payload_source, transform_service
from regionrank.workflow import endpoint_host

SRC = str(Path(regionrank.__file__).resolve().parent.parent)
WORKED_WORKFLOW = str(fixture_path("worked_example.workflow"))
WORKED_ENV = str(fixture_path("worked_example_env.json"))
CATALOG = str(fixture_path("regions.json"))

# the HTTP client and server with what they pull in, and sockets
NETWORK_MODULES = ("http.client", "http.server", "socketserver", "urllib.request", "ssl", "email", "socket")
# everything the package imports only where it is used
DEFERRED_MODULES = NETWORK_MODULES + ("concurrent.futures", "logging", "statistics")


def _run(*args):
    """`python -X importtime *args` with the package on the path; (process, modules it imported)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True,
                          text=True, timeout=60, env=env)
    return done, {line.rpartition("|")[2].strip() for line in done.stderr.splitlines()
                  if line.startswith("import time:")}


@functools.cache
def _startup_modules():
    return _run("-c", "pass")[1]


def fresh(*args):
    """Run `python *args` in a new interpreter with the package on the path.

    Returns the finished process and the modules it imported beyond those a
    bare interpreter imports (so a site hook cannot fail the checks).
    """
    done, imported = _run(*args)
    return done, imported - _startup_modules()


@pytest.mark.parametrize("module", ["regionrank", "regionrank.cli"])
def test_importing_the_package_loads_no_deferred_module(module):
    done, imported = fresh("-c", f"import {module}")
    assert done.returncode == 0, done.stderr
    assert module in imported
    assert sorted(imported.intersection(DEFERRED_MODULES)) == []


@pytest.mark.parametrize("argv", [
    ["simulate", "--workflow", WORKED_WORKFLOW, "--catalog", CATALOG, "--env", WORKED_ENV],
    ["verify", "--mode", "sim", "--workflow", WORKED_WORKFLOW, "--env", WORKED_ENV,
     "--vantage-a", "ec2.us-east-1.amazonaws.com", "--vantage-b", "ec2.eu-west-1.amazonaws.com"],
    ["rank", "--mode", "sim", "--workflow", WORKED_WORKFLOW, "--catalog", CATALOG, "--env", WORKED_ENV],
], ids=["simulate", "verify-sim", "rank-sim"])
def test_simulated_commands_load_no_network_module(argv):
    done, imported = fresh("-m", "regionrank", *argv)
    assert done.returncode == 0, done.stderr
    assert sorted(imported.intersection(NETWORK_MODULES)) == []


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
    assert {"socket", "concurrent.futures", "urllib.request"} <= imported


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
    ("from regionrank.metrics import LiveProbe", "LiveProbe().measure_latency(None, {host!r}, 1)"),
    ("from regionrank.metrics import LiveProbe", "LiveProbe().measure_http_rtt(None, {url!r})"),
    ("from regionrank.harness import run_workflow_once\nfrom regionrank.workflow import parse_workflow",
     "run_workflow_once(parse_workflow({url!r}))"),
], ids=["measure_latency", "measure_http_rtt", "run_workflow_once"])
def test_first_timed_request_imports_nothing_inside_its_clock(setup, call):
    # sockets and the HTTP client load on first use; a first measurement that
    # timed the import would read tens of ms too slow
    with payload_source(b"timed") as src:
        call = call.format(url=src.url, host=endpoint_host(src.url))
        done, _ = fresh("-c", TIMED_WINDOW.format(setup=setup, call=call))
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
