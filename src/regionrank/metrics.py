"""Per-(region, host) network measurement: probes and the metric matrix.

Three channels are measured between each candidate region and each distinct
workflow host:

* ``distance``: great-circle distance in km (from geolocation, not probing)
* ``latency``: network round-trip in ms (ICMP echo, TCP-connect fallback)
* ``rtt``: full HTTP GET round-trip in ms

A failed channel is stored as None and later replaced by a large sentinel
during scoring so broken regions sink to the bottom of rankings instead of
aborting the run.
"""

from __future__ import annotations

import json
import os
import socket
import struct
import time
import urllib.error
import urllib.parse
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Optional, Protocol

from .errors import RegionRankError
from .geo import GeoResolutionError, GeoResolver, haversine_km
from .regions import Region
from .workflow import ServiceNode

CHANNELS = ("distance", "latency", "rtt")

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
class EdgeMetrics:
    """Measurements for one (region, host) pair; None marks a failed channel."""

    distance_km: Optional[float]
    latency_ms: Optional[float]
    http_rtt_ms: Optional[float]

    def channel(self, name: str) -> Optional[float]:
        if name == "distance":
            return self.distance_km
        if name == "latency":
            return self.latency_ms
        if name == "rtt":
            return self.http_rtt_ms
        raise ValueError(f"unknown channel {name!r}")


@dataclass(frozen=True)
class MetricMatrix:
    """All gathered measurements, keyed by (region id, host)."""

    entries: dict[tuple[str, str], EdgeMetrics]
    gathered_at: str

    def get(self, region_id: str, host: str) -> EdgeMetrics:
        try:
            return self.entries[(region_id, host)]
        except KeyError:
            raise CoverageError(
                f"matrix has no entry for region {region_id!r} and host {host!r}"
            ) from None

    def failed_channels(self) -> list[tuple[str, str, str]]:
        """(region, host, channel) triples whose measurement failed, sorted."""
        out = []
        for (region_id, host), edge in self.entries.items():
            for channel in CHANNELS:
                if edge.channel(channel) is None:
                    out.append((region_id, host, channel))
        return sorted(out)

    def to_json(self) -> str:
        rows = []
        for (region_id, host) in sorted(self.entries):
            edge = self.entries[(region_id, host)]
            rows.append(
                {
                    "region": region_id,
                    "host": host,
                    "distance_km": edge.distance_km,
                    "latency_ms": edge.latency_ms,
                    "http_rtt_ms": edge.http_rtt_ms,
                }
            )
        return json.dumps({"gathered_at": self.gathered_at, "entries": rows}, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "MetricMatrix":
        try:
            doc = json.loads(text)
            rows = doc["entries"]
            gathered_at = str(doc["gathered_at"])
        except (json.JSONDecodeError, TypeError, KeyError) as exc:
            raise CoverageError(f"malformed matrix file: {exc}") from exc
        entries = {}
        for row in rows:
            try:
                key = (str(row["region"]), str(row["host"]))
                edge = EdgeMetrics(
                    distance_km=None if row["distance_km"] is None else float(row["distance_km"]),
                    latency_ms=None if row["latency_ms"] is None else float(row["latency_ms"]),
                    http_rtt_ms=None if row["http_rtt_ms"] is None else float(row["http_rtt_ms"]),
                )
            except (TypeError, KeyError, ValueError) as exc:
                raise CoverageError(f"malformed matrix entry {row!r}") from exc
            entries[key] = edge
        return cls(entries=entries, gathered_at=gathered_at)


class Probe(Protocol):
    """Measurement backend used when gathering a matrix."""

    def measure_latency(self, region: Region, host: str, k: int) -> float:
        """Mean network round-trip region->host over k samples, in ms."""
        ...

    def measure_http_rtt(self, region: Region, url: str) -> float:
        """One full HTTP GET round-trip region->url, in ms."""
        ...


def _split_host(host: str) -> tuple[str, Optional[int]]:
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

    Latency uses unprivileged ICMP echo (datagram socket); hosts with an
    explicit port, or platforms refusing ICMP, fall back to a timed TCP
    connect. HTTP round-trip is a timed GET; any HTTP status counts as a
    completed round-trip, only transport failures count as probe failures.
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
            address = socket.gethostbyname(name)
        except OSError as exc:
            raise ProbeError(f"cannot resolve {name!r}: {exc}") from exc
        samples = []
        use_icmp = port is None
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
        request = urllib.request.Request(url, method="GET")
        start = time.perf_counter()
        try:
            with urllib.request.urlopen(request, timeout=self.deadline_s) as response:
                response.read()
        except urllib.error.HTTPError as err:
            err.read()  # error responses still complete the round-trip
            err.close()
        except (urllib.error.URLError, OSError) as exc:
            raise ProbeError(f"HTTP probe to {url!r} failed: {exc}") from exc
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
        try:
            with urllib.request.urlopen(url, timeout=self.deadline_s) as response:
                body = response.read()
        except (urllib.error.URLError, OSError) as exc:
            raise ProbeError(f"agent call {url!r} failed: {exc}") from exc
        try:
            return float(json.loads(body)[field])
        except (json.JSONDecodeError, TypeError, KeyError, ValueError) as exc:
            raise ProbeError(f"agent call {url!r} returned a malformed body") from exc

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
    gathered_at: Optional[str] = None,
) -> MetricMatrix:
    """Measure every channel for every (region, distinct host) pair.

    Channels fail independently: an unresolvable host only loses its distance
    channel, a dead HTTP endpoint only its rtt channel. Each distinct host is
    probed once even when several workflow nodes share it.
    """
    if k < 1:
        raise ValueError("sample count must be at least 1")
    if parallelism < 1:
        raise ValueError("parallelism must be at least 1")

    targets: dict[str, str] = {}
    for node in nodes:
        targets.setdefault(node.host, node.endpoint)

    locations = {}
    for host in targets:
        try:
            locations[host] = resolver.resolve(host)
        except GeoResolutionError:
            locations[host] = None

    def one(pair: tuple[Region, str]) -> tuple[tuple[str, str], EdgeMetrics]:
        region, host = pair
        location = locations[host]
        distance = None if location is None else haversine_km(region.location, location)
        try:
            latency = probe.measure_latency(region, host, k)
        except ProbeError:
            latency = None
        try:
            rtt = probe.measure_http_rtt(region, targets[host])
        except ProbeError:
            rtt = None
        return (region.id, host), EdgeMetrics(distance, latency, rtt)

    pairs = [(region, host) for region in regions for host in targets]
    if parallelism > 1 and len(pairs) > 1:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            results = list(pool.map(one, pairs))
    else:
        results = [one(pair) for pair in pairs]

    if gathered_at is None:
        gathered_at = datetime.now(timezone.utc).isoformat()
    return MetricMatrix(entries=dict(results), gathered_at=gathered_at)
