"""Per-(region, host) network measurement: probes and the metric matrix.

Three channels are measured between each candidate region and each distinct
workflow host:

* ``distance``: great-circle distance in km (from geolocation, not probing)
* ``latency``: network round-trip in ms (ICMP echo, TCP-connect fallback)
* ``rtt``: full HTTP GET round-trip in ms

A failed channel is stored as None and later replaced by a large sentinel
during scoring so broken regions sink to the bottom of rankings instead of
aborting the run. A pair can also be left unprobed: it then carries only its
distance, and reading its latency or rtt through MetricMatrix.column raises
CoverageError, since there is no measurement to score, not even a failed one.
"""

from __future__ import annotations

import os
import socket
import struct
import sys
import time
import urllib.parse
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, KeysView, Optional, Protocol
from urllib.error import HTTPError

from .errors import RegionRankError, decode_json, http_body
from .geo import GeoResolutionError, GeoResolver, haversine_km
from .regions import Region
from .workflow import ServiceNode

CHANNELS = ("distance", "latency", "rtt")
# where each probed channel sits in a MetricMatrix.probes value
_PROBE_SLOTS = {"latency": 0, "rtt": 1}

# Score assigned to a failed channel: large enough to dominate any plausible
# real measurement, finite so argmin and sums stay well defined.
FAILURE_SENTINEL_MS = 1.0e8

DEFAULT_SAMPLE_COUNT = 4
DEFAULT_DEADLINE_S = 5.0


class ProbeError(RegionRankError):
    """A network measurement could not be taken."""


class CoverageError(RegionRankError):
    """The metric matrix is missing a (region, host) pair a caller needs."""


@dataclass(frozen=True)
class MetricMatrix:
    """All gathered measurements, keyed by (region id, host), in two maps.

    distances holds every gathered pair's distance in km, None where the
    host could not be located. probes holds (latency_ms, rtt_ms) for the
    probed pairs only, None marking a failed channel; a pair missing from it
    was not probed. Every probed pair also has a distance.
    """

    distances: dict[tuple[str, str], Optional[float]]
    probes: dict[tuple[str, str], tuple[Optional[float], Optional[float]]]

    def __post_init__(self):
        if not self.probes.keys() <= self.distances.keys():
            raise ValueError("every probed pair must also have a distance")

    @property
    def entries(self) -> KeysView[tuple[str, str]]:
        """Read-only view of the gathered (region id, host) pairs, in distances order."""
        return self.distances.keys()

    def column(self, region_id: str, hosts: Iterable[str], channel: str) -> list[Optional[float]]:
        """One channel of (region_id, host) for each host, in order; None marks a failure.

        Raises CoverageError for a pair not gathered or a channel not probed.
        """
        if channel not in CHANNELS:
            raise ValueError(f"unknown channel {channel!r}")
        hosts = list(hosts)
        try:
            if channel == "distance":
                return [self.distances[region_id, host] for host in hosts]
            slot = _PROBE_SLOTS[channel]
            return [self.probes[region_id, host][slot] for host in hosts]
        except KeyError:
            for host in hosts:  # name the first missing value
                pair = f"region {region_id!r} and host {host!r}"
                if (region_id, host) not in self.distances:
                    raise CoverageError(f"matrix has no entry for {pair}") from None
                if channel != "distance" and (region_id, host) not in self.probes:
                    raise CoverageError(f"the {channel} channel of {pair} was not probed") from None
            raise

    def attempted_channels(self) -> int:
        """How many channels were measured or tried: 1 per pair, 3 per probed pair."""
        return len(self.distances) + 2 * len(self.probes)

    def failed_channels(self) -> list[tuple[str, str, str]]:
        """(region, host, channel) triples whose measurement failed, sorted.

        Channels of unprobed pairs were never tried, so they never fail.
        """
        failed = [key + ("distance",) for key, km in self.distances.items() if km is None]
        for key, measured in self.probes.items():
            failed += [key + (channel,) for channel, value in zip(_PROBE_SLOTS, measured) if value is None]
        return sorted(failed)


class Probe(Protocol):
    """Measurement backend used when gathering a matrix."""

    def measure_latency(self, region: Region, host: str, k: int) -> float:
        """Mean network round-trip region->host over k samples, in ms."""
        ...

    def measure_http_rtt(self, region: Region, url: str) -> float:
        """One full HTTP GET round-trip region->url, in ms."""
        ...


def _split_host(host: str) -> tuple[str, Optional[int]]:
    """(name, port or None) of a host key; IPv6 literals are bracketed: [::1], [::1]:8080."""
    if host.startswith("["):
        name, _, rest = host[1:].partition("]")
        return name, int(rest[1:]) if rest else None
    if ":" in host:
        name, _, port = host.rpartition(":")
        return name, int(port)
    return host, None


def _icmp_checksum(data: bytes) -> int:
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) + data[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


class LiveProbe:
    """Measures real networks from the local vantage point.

    Latency uses unprivileged ICMP echo (datagram socket) to IPv4 addresses;
    IPv6 addresses, hosts with an explicit port, and platforms refusing ICMP
    fall back to a timed TCP connect. HTTP round-trip is a timed GET; any
    HTTP status counts as a completed round-trip, only transport failures
    and unparsable replies count as probe failures.
    """

    def __init__(self, deadline_s: float = DEFAULT_DEADLINE_S):
        self.deadline_s = deadline_s

    def _ping_once(self, address: str, seq: int) -> float:
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM, socket.IPPROTO_ICMP) as sock:
            sock.settimeout(self.deadline_s)
            ident = os.getpid() & 0xFFFF
            header = struct.pack("!BBHHH", 8, 0, 0, ident, seq)
            payload = b"regionrank-probe"
            checksum = _icmp_checksum(header + payload)
            packet = struct.pack("!BBHHH", 8, 0, checksum, ident, seq) + payload
            start = time.perf_counter()
            sock.sendto(packet, (address, 0))
            sock.recv(1024)
            return (time.perf_counter() - start) * 1000.0

    def _tcp_once(self, address: str, port: int) -> float:
        start = time.perf_counter()
        with socket.create_connection((address, port), timeout=self.deadline_s):
            return (time.perf_counter() - start) * 1000.0

    def measure_latency(self, region: Region, host: str, k: int) -> float:
        name, port = _split_host(host)
        try:
            family, _, _, _, sockaddr = socket.getaddrinfo(name, None, type=socket.SOCK_STREAM)[0]
        except (OSError, UnicodeError) as exc:  # UnicodeError: a name idna cannot encode
            raise ProbeError(f"cannot resolve {name!r}: {exc}") from exc
        address = sockaddr[0]
        samples = []
        use_icmp = port is None and family == socket.AF_INET
        for seq in range(k):
            try:
                if use_icmp:
                    try:
                        samples.append(self._ping_once(address, seq))
                        continue
                    except OSError:
                        use_icmp = False  # unsupported or filtered; switch transports
                samples.append(self._tcp_once(address, port or 80))
            except OSError as exc:
                raise ProbeError(f"latency probe to {host!r} failed: {exc}") from exc
        return sum(samples) / len(samples)

    def measure_http_rtt(self, region: Region, url: str) -> float:
        start = time.perf_counter()
        try:
            http_body(url, self.deadline_s, ProbeError)
        except ProbeError as exc:
            if not isinstance(exc.__cause__, HTTPError):  # an error status completes the round trip
                raise
        return (time.perf_counter() - start) * 1000.0


class RemoteAgentProbe:
    """Delegates measurement to helper HTTP agents deployed inside regions.

    agents maps region id to the agent's base URL. The agent answers
    GET /probe?target=H&k=K with {"latency_ms": float} and
    GET /probe_http?url=U with {"rtt_ms": float}.
    """

    def __init__(self, agents: dict[str, str], deadline_s: float = DEFAULT_DEADLINE_S):
        self.agents = dict(agents)
        self.deadline_s = deadline_s

    def _agent_base(self, region: Region) -> str:
        try:
            return self.agents[region.id].rstrip("/")
        except KeyError:
            raise ProbeError(f"no probe agent registered for region {region.id!r}") from None

    def _call(self, url: str, field: str) -> float:
        body = http_body(url, self.deadline_s, ProbeError)
        doc = decode_json(body, f"body from agent call {url!r}", ProbeError, dict)
        try:
            value = doc[field]
            if type(value) not in (int, float) or not 0 <= value <= sys.float_info.max:
                raise ValueError(f"{field} {value!r} is not a finite, non-negative JSON number")
        except (KeyError, ValueError) as exc:
            raise ProbeError(f"agent call {url!r} returned a malformed body") from exc
        return float(value)

    def measure_latency(self, region: Region, host: str, k: int) -> float:
        base = self._agent_base(region)
        query = urllib.parse.urlencode({"target": host, "k": k})
        return self._call(f"{base}/probe?{query}", "latency_ms")

    def measure_http_rtt(self, region: Region, url: str) -> float:
        base = self._agent_base(region)
        query = urllib.parse.urlencode({"url": url})
        return self._call(f"{base}/probe_http?{query}", "rtt_ms")


def gather_metric_matrix(
    probe: Probe,
    resolver: GeoResolver,
    regions,
    nodes: list[ServiceNode],
    k: int = DEFAULT_SAMPLE_COUNT,
    parallelism: int = 8,
    probe_regions: Optional[Callable[[MetricMatrix], Iterable[Region]]] = None,
) -> MetricMatrix:
    """Measure every channel for every (region, distinct host) pair.

    Distances come from geolocation alone and are computed once for every
    region. probe_regions, when given, is called once with the distance-only
    matrix and returns the regions whose latency and rtt are probed (default:
    all of them); the other regions' pairs are left unprobed.

    Channels fail independently: an unresolvable host only loses its distance
    channel, a dead HTTP endpoint only its rtt channel. Each distinct host is
    probed once per region even when several workflow nodes share it.
    """
    if k < 1:
        raise ValueError("sample count must be at least 1")
    if parallelism < 1:
        raise ValueError("parallelism must be at least 1")
    regions = list(regions)

    targets: dict[str, str] = {}
    for node in nodes:
        targets.setdefault(node.host, node.endpoint)

    locations = {}
    for host in targets:
        try:
            locations[host] = resolver.resolve(host)
        except GeoResolutionError:
            locations[host] = None

    distances = {
        (region.id, host): None if location is None else haversine_km(region.location, location)
        for region in regions
        for host, location in locations.items()
    }
    to_probe = regions if probe_regions is None else list(probe_regions(MetricMatrix(distances, {})))
    unknown = {region.id for region in to_probe} - {region.id for region in regions}
    if unknown:
        raise ValueError(f"regions to probe are not among the gathered regions: {sorted(unknown)}")

    def probe_pair(pair: tuple[Region, str]) -> tuple[Optional[float], Optional[float]]:
        region, host = pair
        try:
            latency = probe.measure_latency(region, host, k)
        except ProbeError:
            latency = None
        try:
            rtt = probe.measure_http_rtt(region, targets[host])
        except ProbeError:
            rtt = None
        return latency, rtt

    pairs = [(region, host) for region in to_probe for host in targets]
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        measured = list(pool.map(probe_pair, pairs))
    probes = {(region.id, host): values for (region, host), values in zip(pairs, measured)}
    return MetricMatrix(distances=distances, probes=probes)
