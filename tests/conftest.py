"""Shared builders for the test suite."""

from __future__ import annotations

import json
import random
from urllib.parse import urlsplit

import pytest
from hypothesis import strategies as st

import regionrank.workflow
from regionrank.bundled import fixture_text
from regionrank.geo import GeoPoint
from regionrank.metrics import gather_metric_matrix
from regionrank.regions import Region, RegionCatalog, load_catalog
from regionrank.simulator import SimEnvironment, SimulatedProbe, load_env
from regionrank.workflow import distinct_nodes, generate_random_workflow, parse_workflow

# valid JSON nested deeper than the decoder goes; it starts with "{", so a
# workflow file holding it is read as a dag file
DEEP_JSON = '{"a": ' * 100_000 + "0" + "}" * 100_000


def make_consistent_case(seed: int):
    """A random (spec, catalog, env) triple with latency proportional to distance.

    Probe hosts sit exactly at their region's coordinates and rtt is modelled
    as 2*latency + constant overhead, so the ranking score and the simulated
    execution time are both affine in summed latency. Under that model the
    heuristic must agree with the brute-force oracle.
    """
    rng = random.Random(seed)
    n_nodes = rng.randint(5, 15)
    hosts = [f"node{i:02d}.test" for i in range(n_nodes)]
    locations = {
        host: GeoPoint(rng.uniform(-60.0, 60.0), rng.uniform(-180.0, 179.0))
        for host in hosts
    }
    regions = []
    for j in range(8):
        point = GeoPoint(rng.uniform(-60.0, 60.0), rng.uniform(-180.0, 179.0))
        probe_host = f"probe-{j}.test"
        regions.append(Region(f"region-{j}", probe_host, point))
        locations[probe_host] = point
    env = SimEnvironment(
        node_locations=locations,
        base_latency_per_km=rng.uniform(0.005, 0.05),
        bandwidth_mbps=rng.uniform(20.0, 200.0),
        service_overhead_ms=rng.uniform(0.0, 10.0),
        processing_s=rng.uniform(0.0, 2.0),
        noise_sigma_ms=0.0,
        seed=seed,
    )
    pool = [f"http://{host}/" for host in hosts]
    spec = generate_random_workflow(
        pool, length=n_nodes - 1, seed=seed, source=f"http://{hosts[0]}/data.bin"
    )
    return spec, RegionCatalog(tuple(regions)), env


def gather_sim(spec, catalog, env, **kwargs):
    """Metric matrix for a simulated environment, single-threaded by default."""
    kwargs.setdefault("parallelism", 1)
    return gather_metric_matrix(
        SimulatedProbe(env), env.resolver(), catalog, distinct_nodes(spec), **kwargs
    )


@st.composite
def dag_specs(draw):
    """Random acyclic specs in the dag format, several nodes sharing each host.

    Hops only run from a lower to a higher node index, and every node without
    an inbound hop is a source, so each processor is reachable.
    """
    size = draw(st.integers(min_value=1, max_value=8))
    pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
    hops = draw(st.lists(st.sampled_from(pairs), max_size=12)) if pairs else []
    hosts = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    urls = [f"http://h{host}.test/n{i}" for i, host in enumerate(hosts)]
    fed = {j for _, j in hops}
    doc = {
        "sources": [urls[i] for i in range(size) if i not in fed],
        "nodes": [{"id": f"n{i}", "url": url} for i, url in enumerate(urls)],
        "hops": [[f"n{i}", f"n{j}"] for i, j in hops],
    }
    return parse_workflow(json.dumps(doc), format="dag")


@pytest.fixture(scope="session")
def catalog8():
    return load_catalog(fixture_text("regions.json"))


@pytest.fixture(scope="session")
def worked_spec():
    return parse_workflow(fixture_text("worked_example.workflow"), format="lines")


@pytest.fixture(scope="session")
def worked_env():
    return load_env(fixture_text("worked_example_env.json"))


@pytest.fixture(scope="session")
def adversarial_env():
    return load_env(fixture_text("adversarial_env.json"))


@pytest.fixture
def urlsplit_calls(monkeypatch):
    """URLs passed to the workflow module's urlsplit from now on, in call order."""
    calls = []

    def counting(url, *args, **kwargs):
        calls.append(url)
        return urlsplit(url, *args, **kwargs)

    monkeypatch.setattr(regionrank.workflow, "urlsplit", counting)
    return calls
