"""Deterministic network simulation for offline runs and tests.

The simulator models pairwise latency as distance times a rate constant,
with optional per-pair overrides and optional Gaussian noise. Noise is keyed
by (seed, host pair, sample tag) through a cryptographic hash, so a given
draw is reproducible regardless of call order.
"""

from __future__ import annotations

import math
import random
from typing import Mapping, Union

from .errors import Record, RegionRankError, decode_json
from .geo import FixtureResolver, GeoFixtureError, GeoPoint, haversine_row, parse_locations
from .metrics import ProbeError, _mean
from .regions import Region, RegionCatalog
from .workflow import WorkflowSpec, check_host_key, endpoint_host


class SimulationError(RegionRankError):
    """The simulated environment cannot answer a query."""


def _pair_key(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


class SimEnvironment(Record):
    """A synthetic world: host positions plus link and service parameters.

    latency_overrides pins specific host pairs to a fixed one-way latency in
    ms (symmetric); every other pair costs base_latency_per_km times the
    great-circle distance. Keys may be given as (a, b) tuples or "a|b"
    strings and are normalised to sorted tuples; each host must be a
    canonical host key (workflow.check_host_key). `pinned` is derived from
    them: each host's pinned peers, pinned[a][b] == pinned[b][a], so a row
    of pairs from one host looks up its overrides without building keys.

    `base_rows` is a memo that simulated runs fill: for each (orchestrator
    host, workflow hosts in the order of spec.host_weights) it holds the
    _base_row from that host to those hosts, a list indexed by the hosts'
    columns (spec.edge_columns). A row depends only on the
    environment, so it is computed once, on the first run from that host,
    and every later run from it reads it back. It keeps one row per pair
    run, for as long as the environment lives. It is not part of the
    environment's value: == and repr leave it out, and replace starts an
    empty one.
    """

    def __init__(
        self,
        node_locations: Mapping[str, GeoPoint] = {},  # both mappings are copied, never kept
        latency_overrides: Mapping[Union[tuple[str, str], str], float] = {},
        base_latency_per_km: float = 0.02,
        bandwidth_mbps: float = 100.0,
        service_overhead_ms: float = 3.0,
        processing_s: float = 0.0,
        noise_sigma_ms: float = 0.0,
        seed: int = 0,
    ):
        normalized: dict[tuple[str, str], float] = {}
        for key, value in dict(latency_overrides).items():
            if isinstance(key, str):
                a, sep, b = key.partition("|")
                if not sep or not a or not b:
                    raise SimulationError(f"override key {key!r} is not of the form 'hostA|hostB'")
            else:
                a, b = key
            a, b = (check_host_key(str(end), "latency_overrides", SimulationError) for end in (a, b))
            pair = _pair_key(a, b)
            value = float(value)
            if not math.isfinite(value):
                raise SimulationError(f"override for {pair!r} must be finite, not {value}")
            if pair in normalized and normalized[pair] != value:
                raise SimulationError(f"conflicting override values for pair {pair!r}")
            if value < 0:
                raise SimulationError(f"override for {pair!r} must be non-negative")
            normalized[pair] = value
        pinned: dict[str, dict[str, float]] = {}
        for (a, b), value in normalized.items():
            pinned.setdefault(a, {})[b] = value
            pinned.setdefault(b, {})[a] = value
        self.__dict__.update(
            node_locations=dict(node_locations), latency_overrides=normalized,
            base_latency_per_km=base_latency_per_km, bandwidth_mbps=bandwidth_mbps,
            service_overhead_ms=service_overhead_ms, processing_s=processing_s,
            noise_sigma_ms=noise_sigma_ms, seed=seed, pinned=pinned, base_rows={},
        )
        for name in ("base_latency_per_km", "bandwidth_mbps", "service_overhead_ms",
                     "processing_s", "noise_sigma_ms", "seed"):
            value = getattr(self, name)
            # an int is finite; math.isfinite would overflow on a huge one
            if not isinstance(value, int) and not math.isfinite(value):
                raise SimulationError(f"{name} must be finite, not {value}")
        for name in ("base_latency_per_km", "service_overhead_ms", "processing_s", "noise_sigma_ms"):
            if getattr(self, name) < 0:
                raise SimulationError(f"{name} must be non-negative")
        if self.bandwidth_mbps <= 0:
            raise SimulationError("bandwidth_mbps must be positive")

    def locate(self, host: str) -> GeoPoint:
        try:
            return self.node_locations[host]
        except KeyError:
            raise SimulationError(f"environment has no location for host {host!r}") from None

    def resolver(self) -> FixtureResolver:
        return FixtureResolver(self.node_locations)


def _noise_ms(env: SimEnvironment, pair: tuple[str, str], sample: Union[int, str]) -> float:
    # deferred: only noise draws hash, and loading hashlib costs a noise-free
    # command about 3 ms of start-up
    import hashlib

    key = f"{env.seed}|{pair[0]}|{pair[1]}|{sample}"
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    return rng.gauss(0.0, env.noise_sigma_ms)


def _base_row(env: SimEnvironment, a: str, pa: GeoPoint, peers: dict[str, GeoPoint]) -> list[float]:
    """Noise-free one-way latency in ms from a to each host of peers, given the located points.

    The row is a list in the order of peers, so with the hosts of
    spec.host_weights it is indexed by spec.edge_columns. A pair's override
    wins, else base_latency_per_km times the distance; the distances come
    from one row. Every base latency of the simulator comes from here, so
    the override rule has one copy. Callers locate every host
    even when an override pins the pair; a typo in a host name should fail
    loudly and not silently bypass the geography.
    """
    rate, pinned = env.base_latency_per_km, env.pinned.get(a, {})
    return [pinned.get(b, rate * km) for b, km in zip(peers, haversine_row(pa, peers.values()))]


def _add_noise(env: SimEnvironment, base: float, a: str, b: str, sample: Union[int, str]) -> float:
    """One sample of the pair a<->b whose base latency is `base`: max(0, base + noise).

    The clamp is written as a conditional, which gives max(0.0, x)'s float
    for every x (-0.0 and nan give 0.0) without a builtin call.
    """
    if env.noise_sigma_ms > 0:
        base += _noise_ms(env, _pair_key(a, b), sample)
    return base if base > 0.0 else 0.0


def sim_latency(env: SimEnvironment, a: str, b: str, sample: Union[int, str] = 0) -> float:
    """One-way latency a<->b in ms: override or distance-based, plus noise.

    The per-pair reference: a row of one of _base_row, as SimulatedProbe
    reads it, then one sample's noise.
    """
    return _add_noise(env, _base_row(env, a, env.locate(a), {b: env.locate(b)})[0], a, b, sample)


def _transfer_s(env: SimEnvironment, data_mb: float) -> float:
    """Seconds to serialise data_mb megabytes at the environment bandwidth."""
    if not (data_mb >= 0 and math.isfinite(data_mb)):
        raise SimulationError(f"data_mb must be non-negative and finite, not {data_mb}")
    return data_mb * 8.0 / env.bandwidth_mbps


def _locate_peers(env: SimEnvironment, spec: WorkflowSpec) -> dict[str, GeoPoint]:
    """Each host of spec.host_weights located, in the order of its first edge."""
    return {peer: env.locate(peer) for peer in spec.host_weights}


def _execution_time(
    env: SimEnvironment,
    spec: WorkflowSpec,
    orchestrator_host: str,
    bases: list[float],
    transfer_s: float,
    run: Union[int, str],
) -> float:
    """sim_execution_time, given the base-latency row and the per-edge transfer seconds.

    `bases` is the _base_row from the orchestrator host to each host of
    spec.host_weights, so each edge reads its host's entry at its column of
    spec.edge_columns; edges are still summed one by one in edge order.
    """
    total = 0.0
    if env.noise_sigma_ms > 0:
        for i, (peer, column) in enumerate(zip(spec.edge_peers, spec.edge_columns)):
            latency = _add_noise(env, bases[column], orchestrator_host, peer, f"run{run}/edge{i}")
            total += latency / 1000.0 + transfer_s
    else:
        # noise-free, an edge's latency is _add_noise's clamp of its base:
        # its whole term depends only on its host's column
        terms = [(base if base > 0.0 else 0.0) / 1000.0 + transfer_s for base in bases]
        for column in spec.edge_columns:
            total += terms[column]
    total += env.processing_s * spec.invocations
    if not math.isfinite(total):
        raise SimulationError(
            f"environment overflows: simulated time with the orchestrator at {orchestrator_host!r} is {total}"
        )
    return total


def sim_execution_time(
    env: SimEnvironment,
    spec: WorkflowSpec,
    orchestrator_host: str,
    data_mb: float = 1.0,
    run: Union[int, str] = 0,
) -> float:
    """Predicted end-to-end seconds with the orchestrator at a given host.

    Each candidate edge costs its latency plus the serialisation time of
    data_mb megabytes at the environment bandwidth; each hop that targets a
    processor adds processing_s of service time. Edge i of run r draws its
    noise under the sample key "run{r}/edge{i}". The candidate edges are the
    spec's, listed once when it was validated, not once per run.

    Once per (orchestrator host, workflow hosts) the hosts are located and
    their base-latency row is computed, then kept in env.base_rows. Each run
    then draws only its noise and sums its edges, each reading its host's
    column of the row. A host the environment cannot locate raises
    SimulationError on every call, since no row is kept before it is
    complete.
    """
    transfer_s = _transfer_s(env, data_mb)
    # spec's hosts and not spec itself: hashing a spec hashes every node
    key = (orchestrator_host, tuple(spec.host_weights))
    bases = env.base_rows.get(key)
    if bases is None:
        origin = env.locate(orchestrator_host)
        bases = env.base_rows[key] = _base_row(env, orchestrator_host, origin, _locate_peers(env, spec))
    return _execution_time(env, spec, orchestrator_host, bases, transfer_s, run)


def best_region_oracle(
    env: SimEnvironment,
    spec: WorkflowSpec,
    catalog: RegionCatalog,
    data_mb: float = 1.0,
) -> tuple[str, tuple[tuple[str, float], ...]]:
    """Brute-force ground truth: simulate every region, pick the fastest.

    Returns (best region id, full (id, seconds) table sorted fastest first,
    ties broken by id). It sums the candidate edges one at a time, in edge
    order, for every region, each edge reading its host's column of the
    region's row (spec.edge_columns). It reads no weight of
    spec.host_weights, only its hosts and their columns, so it stays an
    independent check of the ranking's weighted sums.
    The spec's peers are located once per sweep, right after the first
    region's probe host, so a missing host fails as it would in a sweep that
    located every host per region: in catalog order, then in edge order.
    Each region's row is used once, so the sweep leaves env.base_rows as it
    is.
    """
    transfer_s = _transfer_s(env, data_mb)
    peers = None
    times = []
    for region in catalog:
        origin = env.locate(region.probe_host)
        if peers is None:
            peers = _locate_peers(env, spec)
        bases = _base_row(env, region.probe_host, origin, peers)
        times.append((_execution_time(env, spec, region.probe_host, bases, transfer_s, 0), region.id))
    times.sort()
    table = tuple((region_id, t) for t, region_id in times)
    return table[0][0], table


class SimulatedProbe:
    """Probe backend that answers from a SimEnvironment instead of a network.

    Both channels of a (region, host) pair read one base latency, looked up
    one way: the region's probe host is located, then the workflow host, and
    the base is a row of one of _base_row. They differ only in their noise
    samples, "lat{i}" for the k latency samples and "rtt" for the round trip.
    """

    def __init__(self, env: SimEnvironment):
        self.env = env

    def _base(self, source: str, host: str) -> float:
        """The pair's noise-free one-way latency in ms; an unlocated host is a ProbeError."""
        env = self.env
        try:
            return _base_row(env, source, env.locate(source), {host: env.locate(host)})[0]
        except SimulationError as exc:
            raise ProbeError(str(exc)) from exc

    def measure_latency(self, region: Region, url: str, k: int) -> float:
        source, host = region.probe_host, endpoint_host(url)
        base = self._base(source, host)
        # the k samples share the pair's base latency and differ only in noise
        return _mean([_add_noise(self.env, base, source, host, f"lat{i}") for i in range(k)])

    def measure_http_rtt(self, region: Region, url: str) -> float:
        source, host = region.probe_host, endpoint_host(url)
        one_way = _add_noise(self.env, self._base(source, host), source, host, "rtt")
        return 2.0 * one_way + self.env.service_overhead_ms


def _number(raw) -> float:
    """A decoded JSON number as a float; true and false are not numbers."""
    if type(raw) not in (int, float):
        raise TypeError(f"value must be a JSON number, not {raw!r}")
    return float(raw)


def _integer(raw) -> int:
    """A decoded JSON integer; 1.0, true and "1" are not integers."""
    if type(raw) is not int:
        raise TypeError(f"value must be a JSON integer, not {raw!r}")
    return raw


# how each environment file field becomes a SimEnvironment value; the rest are numbers
_FIELD_PARSERS = {
    "node_locations": parse_locations,
    "latency_overrides": lambda raw: {str(key): _number(value) for key, value in raw.items()},
    "seed": _integer,
}


def load_env(text: str) -> SimEnvironment:
    """Parse an environment file (JSON; override keys are "hostA|hostB").

    A field left out takes the SimEnvironment default.
    """
    doc = decode_json(text, "environment file", SimulationError, dict)
    unknown = set(doc) - set(SimEnvironment._fields)
    if unknown:
        raise SimulationError(f"unknown environment fields: {sorted(unknown)}")
    values = {}
    for name, raw in doc.items():
        try:
            values[name] = _FIELD_PARSERS.get(name, _number)(raw)
        except (AttributeError, TypeError, ValueError, OverflowError, GeoFixtureError) as exc:
            raise SimulationError(f"bad environment field {name!r}: {exc}") from exc
    return SimEnvironment(**values)
