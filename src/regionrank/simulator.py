"""Deterministic network simulation for offline runs and tests.

The simulator models pairwise latency as distance times a rate constant,
with optional per-pair overrides and optional Gaussian noise. Noise is keyed
by (seed, host pair, sample tag) through a cryptographic hash, so a given
draw is reproducible regardless of call order.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field, fields
from typing import Union

from .errors import RegionRankError, decode_json
from .geo import FixtureResolver, GeoFixtureError, GeoPoint, haversine_km, parse_locations
from .metrics import ProbeError
from .regions import Region, RegionCatalog
from .workflow import WorkflowSpec, endpoint_host


class SimulationError(RegionRankError):
    """The simulated environment cannot answer a query."""


def _pair_key(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class SimEnvironment:
    """A synthetic world: host positions plus link and service parameters.

    latency_overrides pins specific host pairs to a fixed one-way latency in
    ms (symmetric); every other pair costs base_latency_per_km times the
    great-circle distance. Keys may be given as (a, b) tuples or "a|b"
    strings and are normalised to sorted tuples.
    """

    node_locations: dict[str, GeoPoint] = field(default_factory=dict)
    latency_overrides: dict[tuple[str, str], float] = field(default_factory=dict)
    base_latency_per_km: float = 0.02
    bandwidth_mbps: float = 100.0
    service_overhead_ms: float = 3.0
    processing_s: float = 0.0
    noise_sigma_ms: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "node_locations", dict(self.node_locations))
        normalized: dict[tuple[str, str], float] = {}
        for key, value in dict(self.latency_overrides).items():
            if isinstance(key, str):
                a, sep, b = key.partition("|")
                if not sep or not a or not b:
                    raise SimulationError(f"override key {key!r} is not of the form 'hostA|hostB'")
            else:
                a, b = key
            pair = _pair_key(str(a), str(b))
            value = float(value)
            if not math.isfinite(value):
                raise SimulationError(f"override for {pair!r} must be finite, not {value}")
            if pair in normalized and normalized[pair] != value:
                raise SimulationError(f"conflicting override values for pair {pair!r}")
            if value < 0:
                raise SimulationError(f"override for {pair!r} must be non-negative")
            normalized[pair] = value
        object.__setattr__(self, "latency_overrides", normalized)
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
    key = f"{env.seed}|{pair[0]}|{pair[1]}|{sample}"
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    return rng.gauss(0.0, env.noise_sigma_ms)


def _base_latency(env: SimEnvironment, a: str, pa: GeoPoint, b: str, pb: GeoPoint) -> float:
    """Noise-free one-way latency a<->b in ms, given both hosts' located points.

    The pair's override wins, else the distance-based latency. Callers locate
    both hosts even when an override pins the pair; a typo in a host name
    should fail loudly and not silently bypass the geography.
    """
    pair = _pair_key(a, b)
    if pair in env.latency_overrides:
        return env.latency_overrides[pair]
    return env.base_latency_per_km * haversine_km(pa, pb)


def _add_noise(env: SimEnvironment, base: float, a: str, b: str, sample: Union[int, str]) -> float:
    """One sample of the pair a<->b whose base latency is `base`: max(0, base + noise)."""
    if env.noise_sigma_ms > 0:
        base += _noise_ms(env, _pair_key(a, b), sample)
    return max(0.0, base)


def sim_latency(env: SimEnvironment, a: str, b: str, sample: Union[int, str] = 0) -> float:
    """One-way latency a<->b in ms: override or distance-based, plus noise."""
    return _add_noise(env, _base_latency(env, a, env.locate(a), b, env.locate(b)), a, b, sample)


def _transfer_s(env: SimEnvironment, data_mb: float) -> float:
    """Seconds to serialise data_mb megabytes at the environment bandwidth."""
    if not (data_mb >= 0 and math.isfinite(data_mb)):
        raise SimulationError(f"data_mb must be non-negative and finite, not {data_mb}")
    return data_mb * 8.0 / env.bandwidth_mbps


def _locate_peers(env: SimEnvironment, spec: WorkflowSpec) -> dict[str, GeoPoint]:
    """Each distinct candidate peer's point, located in the order of its first edge."""
    return {peer: env.locate(peer) for peer in spec.distinct_peers}


def _execution_time(
    env: SimEnvironment,
    spec: WorkflowSpec,
    orchestrator_host: str,
    origin: GeoPoint,
    peers: dict[str, GeoPoint],
    transfer_s: float,
    run: Union[int, str],
) -> float:
    """sim_execution_time, given every host's point and the per-edge transfer seconds.

    `origin` is the orchestrator host's point and `peers` maps each of
    spec.distinct_peers to its point: the caller locates each host once.
    Each distinct peer's base latency is computed once; edges are still
    summed one by one in edge order.
    """
    bases = {
        peer: _base_latency(env, orchestrator_host, origin, peer, point) for peer, point in peers.items()
    }
    total = 0.0
    if env.noise_sigma_ms > 0:
        for i, peer in enumerate(spec.edge_peers):
            latency = _add_noise(env, bases[peer], orchestrator_host, peer, f"run{run}/edge{i}")
            total += latency / 1000.0 + transfer_s
    else:
        # noise-free, an edge's latency is max(0, base): its whole term depends only on its peer
        terms = {peer: max(0.0, base) / 1000.0 + transfer_s for peer, base in bases.items()}
        for peer in spec.edge_peers:
            total += terms[peer]
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
    """
    transfer_s = _transfer_s(env, data_mb)
    origin = env.locate(orchestrator_host)
    return _execution_time(env, spec, orchestrator_host, origin, _locate_peers(env, spec), transfer_s, run)


def best_region_oracle(
    env: SimEnvironment,
    spec: WorkflowSpec,
    catalog: RegionCatalog,
    data_mb: float = 1.0,
) -> tuple[str, tuple[tuple[str, float], ...]]:
    """Brute-force ground truth: simulate every region, pick the fastest.

    Returns (best region id, full (id, seconds) table sorted fastest first,
    ties broken by id). It walks every candidate edge of every region and
    never reads host_weights, so it stays an independent check of ranking.
    The spec's peers are located once per sweep, right after the first
    region's probe host, so a missing host fails as it would in a sweep that
    located every host per region: in catalog order, then in edge order.
    """
    transfer_s = _transfer_s(env, data_mb)
    peers = None
    times = []
    for region in catalog:
        origin = env.locate(region.probe_host)
        if peers is None:
            peers = _locate_peers(env, spec)
        times.append((_execution_time(env, spec, region.probe_host, origin, peers, transfer_s, 0), region.id))
    times.sort()
    table = tuple((region_id, t) for t, region_id in times)
    return table[0][0], table


class SimulatedProbe:
    """Probe backend that answers from a SimEnvironment instead of a network."""

    def __init__(self, env: SimEnvironment):
        self.env = env

    def measure_latency(self, region: Region, host: str, k: int) -> float:
        try:
            samples = [
                sim_latency(self.env, region.probe_host, host, sample=f"lat{i}")
                for i in range(k)
            ]
        except SimulationError as exc:
            raise ProbeError(str(exc)) from exc
        return sum(samples) / len(samples)

    def measure_http_rtt(self, region: Region, url: str) -> float:
        host = endpoint_host(url)
        try:
            one_way = sim_latency(self.env, region.probe_host, host, sample="rtt")
        except SimulationError as exc:
            raise ProbeError(str(exc)) from exc
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
    unknown = set(doc) - {f.name for f in fields(SimEnvironment)}
    if unknown:
        raise SimulationError(f"unknown environment fields: {sorted(unknown)}")
    values = {}
    for name, raw in doc.items():
        try:
            values[name] = _FIELD_PARSERS.get(name, _number)(raw)
        except (AttributeError, TypeError, ValueError, OverflowError, GeoFixtureError) as exc:
            raise SimulationError(f"bad environment field {name!r}: {exc}") from exc
    return SimEnvironment(**values)
