"""Per-(region, host) network measurement: probes and the metric matrix.

Three channels are measured between each candidate region and each distinct
workflow host:

* ``distance``: great-circle distance in km (from geolocation, not probing)
* ``latency``: network round-trip in ms (ICMP echo, TCP-connect fallback)
* ``rtt``: full HTTP GET round-trip in ms

A MetricMatrix keeps one row per region, one value per host, and scores
every region with one weighted sum over its row. A failed channel is stored
as None and later replaced by a large sentinel during scoring so broken
regions sink to the bottom of rankings instead of aborting the run. A region
can also be left unprobed: it then carries only its distances, and reading
its latency or rtt raises CoverageError, since there is no measurement to
score, not even a failed one.
"""

from __future__ import annotations

import os
import struct
import sys
import time
import urllib.parse
from collections.abc import Set
from dataclasses import dataclass, field
from typing import AbstractSet, Callable, Iterable, Mapping, Optional, Protocol, Sequence

from .errors import ErrorStatus, RegionRankError, decode_json, http_body, load_http_client
from .geo import GeoResolutionError, GeoResolver, haversine_row
from .regions import Region
from .workflow import ServiceNode

CHANNELS = ("distance", "latency", "rtt")
# where each probed channel sits in a MetricMatrix.probes row's pairs
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


Row = Sequence[Optional[float]]
ProbeRow = Sequence[tuple[Optional[float], Optional[float]]]


@dataclass(frozen=True)
class MetricMatrix:
    """All gathered measurements, as one row per region over one tuple of hosts.

    hosts are the distinct workflow hosts; column i of every row belongs to
    hosts[i]. distances maps each gathered region id to its row of km, None
    where the host could not be located. probes maps each probed region id to
    its row of (latency_ms, rtt_ms), None marking a failed channel; a region
    missing from it was not probed. Every probed region also has distances.
    from_pairs builds a matrix from maps keyed by (region id, host).
    """

    hosts: tuple[str, ...]
    distances: dict[str, Row]
    probes: dict[str, ProbeRow]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.probes.keys() <= self.distances.keys():
            raise ValueError("every probed region must also have a row of distances")
        index = {host: column for column, host in enumerate(self.hosts)}
        if len(index) != len(self.hosts):
            raise ValueError("matrix hosts must be distinct")
        if any(len(row) != len(index) for rows in (self.distances, self.probes) for row in rows.values()):
            raise ValueError(f"every row must hold one value per host ({len(index)})")
        object.__setattr__(self, "_index", index)

    @classmethod
    def from_pairs(
        cls,
        distances: Mapping[tuple[str, str], Optional[float]],
        probes: Mapping[tuple[str, str], tuple[Optional[float], Optional[float]]],
    ) -> "MetricMatrix":
        """The matrix of maps keyed by (region id, host).

        Regions and hosts take the order of their first pair in distances.
        Every region needs a distance to every host, a probed pair a distance,
        and a probed region a probe of every host; ValueError otherwise.
        """
        if not probes.keys() <= distances.keys():
            raise ValueError("every probed pair must also have a distance")
        hosts = tuple(dict.fromkeys(host for _, host in distances))
        try:
            return cls(
                hosts,
                {region_id: [distances[region_id, host] for host in hosts]
                 for region_id in dict.fromkeys(region_id for region_id, _ in distances)},
                {region_id: [probes[region_id, host] for host in hosts]
                 for region_id in dict.fromkeys(region_id for region_id, _ in probes)},
            )
        except KeyError as exc:
            raise ValueError(
                f"no value for the pair {exc.args[0]!r}: a matrix holds every host of each "
                "region, and probes every host of a probed region"
            ) from None

    @property
    def entries(self) -> AbstractSet[tuple[str, str]]:
        """Read-only view of the gathered (region id, host) pairs, region by region in host order."""
        return _Pairs(self)

    def _row(self, region_id: str, channel: str) -> Row:
        """region_id's row of one channel; empty if the region has none."""
        if channel == "distance":
            return self.distances.get(region_id, ())
        slot = _PROBE_SLOTS[channel]
        return [measured[slot] for measured in self.probes.get(region_id, ())]

    def _check_coverage(self, region_id: str, hosts: Iterable[str], channel: str) -> None:
        """Raise CoverageError for the first of hosts whose pair has no value of channel."""
        for host in hosts:
            pair = f"region {region_id!r} and host {host!r}"
            if host not in self._index or region_id not in self.distances:
                raise CoverageError(f"matrix has no entry for {pair}")
            if channel != "distance" and region_id not in self.probes:
                raise CoverageError(f"the {channel} channel of {pair} was not probed")

    def column(self, region_id: str, hosts: Iterable[str], channel: str) -> list[Optional[float]]:
        """One channel of (region_id, host) for each host, in order; None marks a failure.

        Raises CoverageError for a pair not gathered or a channel not probed.
        """
        if channel not in CHANNELS:
            raise ValueError(f"unknown channel {channel!r}")
        hosts = list(hosts)
        self._check_coverage(region_id, hosts, channel)
        row = self._row(region_id, channel)
        return [row[self._index[host]] for host in hosts]

    def weighted_sums(
        self, weights: Mapping[str, int], region_ids: Iterable[str], channel: str
    ) -> list[float]:
        """sum_h w_h * m(R, h) of one channel m for each region R of region_ids, in order.

        weights maps each host h to w_h, the number of edges that end there
        (WorkflowSpec.host_weights). Each row is summed in weights order, so
        a total is the float that adding up the (R, h) pairs in that order
        gives. A failed channel counts FAILURE_SENTINEL_MS per edge, so
        incomplete regions rank last rather than looking free. Raises
        CoverageError for the first region, and its first host in weights
        order, that has no value of the channel.
        """
        if channel not in CHANNELS:
            raise ValueError(f"unknown channel {channel!r}")
        index = self._index
        columns = [(index[host], count) for host, count in weights.items() if host in index]
        rows = self.distances if channel == "distance" else self.probes
        sums = []
        for region_id in region_ids:
            if len(columns) < len(weights) or region_id not in rows:
                self._check_coverage(region_id, weights, channel)
            row = self._row(region_id, channel)
            total = 0.0
            for column, count in columns:
                value = row[column]
                total += count * (FAILURE_SENTINEL_MS if value is None else value)
            sums.append(total)
        return sums

    def attempted_channels(self) -> int:
        """How many channels were measured or tried: 1 per pair, 3 per probed pair."""
        return len(self.hosts) * (len(self.distances) + 2 * len(self.probes))

    def failed_channels(self) -> list[tuple[str, str, str]]:
        """(region, host, channel) triples whose measurement failed, sorted.

        Channels of unprobed regions were never tried, so they never fail.
        """
        failed = [
            (region_id, host, "distance")
            for region_id, row in self.distances.items()
            for host, km in zip(self.hosts, row) if km is None
        ]
        for region_id, row in self.probes.items():
            for host, measured in zip(self.hosts, row):
                failed += [
                    (region_id, host, channel)
                    for channel, value in zip(_PROBE_SLOTS, measured) if value is None
                ]
        return sorted(failed)


class _Pairs(Set):
    """The (region id, host) pairs of a matrix as a read-only set, in MetricMatrix.entries order."""

    def __init__(self, matrix: MetricMatrix):
        self._matrix = matrix

    def __len__(self) -> int:
        return len(self._matrix.distances) * len(self._matrix.hosts)

    def __contains__(self, pair) -> bool:
        return (isinstance(pair, tuple) and len(pair) == 2
                and pair[0] in self._matrix.distances and pair[1] in self._matrix._index)

    def __iter__(self):
        for region_id in self._matrix.distances:
            for host in self._matrix.hosts:
                yield region_id, host


class Probe(Protocol):
    """Measurement backend used when gathering a matrix."""

    def measure_latency(self, region: Region, host: str, k: int) -> float:
        """Mean network round-trip region->host over k samples, in ms."""
        ...

    def measure_http_rtt(self, region: Region, url: str) -> float:
        """One full HTTP GET round-trip region->url, in ms."""
        ...


def _mean(samples: list[float]) -> float:
    """Mean of samples, added left to right from 0.0: the same float on every Python.

    Python 3.12 made sum() of floats compensated, so sum(samples) / len(samples)
    can differ in its last bit between Python versions.
    """
    total = 0.0
    for sample in samples:
        total += sample
    return total / len(samples)


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
    fall back to a timed TCP connect. HTTP round-trip is a timed GET on a
    new connection; any HTTP status (a redirect, which is not followed,
    included) counts as a completed round-trip, only transport failures
    and unparsable replies count as probe failures.
    """

    def __init__(self, deadline_s: float = DEFAULT_DEADLINE_S):
        self.deadline_s = deadline_s

    def _ping_once(self, address: str, seq: int) -> float:
        import socket  # deferred: only live probing opens sockets

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
        import socket  # deferred: only live probing opens sockets

        start = time.perf_counter()
        with socket.create_connection((address, port), timeout=self.deadline_s):
            return (time.perf_counter() - start) * 1000.0

    def measure_latency(self, region: Region, host: str, k: int) -> float:
        import socket  # deferred: only live probing opens sockets

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
        return _mean(samples)

    def measure_http_rtt(self, region: Region, url: str) -> float:
        load_http_client()  # before the clock, so a first probe does not time the import
        start = time.perf_counter()
        try:
            # no pool: each probe times a new connection's connect and GET
            http_body(url, self.deadline_s, ProbeError)
        except ProbeError as exc:
            if not isinstance(exc.__cause__, ErrorStatus):  # an error status completes the round trip
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
    region, one row per region. probe_regions, when given, is called once
    with the distance-only matrix and returns the regions whose latency and
    rtt are probed (default: all of them); the other regions are left
    unprobed.

    Channels fail independently: an unresolvable host only loses its distance
    channel, a dead HTTP endpoint only its rtt channel. Each distinct host is
    probed once per region even when several workflow nodes share it. The
    probes run on a pool of `parallelism` threads, or one after another in
    the calling thread when parallelism is 1.
    """
    if k < 1:
        raise ValueError("sample count must be at least 1")
    if parallelism < 1:
        raise ValueError("parallelism must be at least 1")
    regions = list(regions)

    targets: dict[str, str] = {}
    for node in nodes:
        targets.setdefault(node.host, node.endpoint)

    hosts = tuple(targets)
    locations = []
    for host in hosts:
        try:
            locations.append(resolver.resolve(host))
        except GeoResolutionError:
            locations.append(None)

    # one row of distances per region: the row to the located hosts, with
    # None put back in the column of each host that has no location
    points = [location for location in locations if location is not None]
    unlocated = [column for column, location in enumerate(locations) if location is None]
    distances = {}
    for region in regions:
        row = haversine_row(region.location, points)
        for column in unlocated:
            row.insert(column, None)
        distances[region.id] = row
    to_probe = regions if probe_regions is None else list(probe_regions(MetricMatrix(hosts, distances, {})))
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

    pairs = [(region, host) for region in to_probe for host in hosts]
    if parallelism == 1:
        measured = list(map(probe_pair, pairs))
    else:
        # deferred: concurrent.futures loads logging, and a gather of one
        # thread, like most imports of this module, never needs it
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            measured = list(pool.map(probe_pair, pairs))
    # the probes come back region by region, so each region's row is one slice
    width = len(hosts)
    probes = {region.id: measured[i * width:(i + 1) * width] for i, region in enumerate(to_probe)}
    return MetricMatrix(hosts, distances, probes)
