"""Per-(region, host) network measurement: probes and the metric matrix.

Three channels are measured between each candidate region and each distinct
workflow host:

* ``distance``: great-circle distance in km (from geolocation, not probing)
* ``latency``: network round-trip in ms (a timed TCP connect)
* ``rtt``: full HTTP GET round-trip in ms

A MetricMatrix keeps one table per channel, each with one row per region
and one value per host, and scores every region with one weighted sum over
its row of a channel. A failed channel is stored as None and later replaced
by a large sentinel during scoring so broken regions sink to the bottom of
rankings instead of aborting the run. A region can also be left unprobed: it
then has only a distance row, and scoring its latency or rtt raises
CoverageError, since there is no measurement to score, not even a failed one.

A probe measures from a vantage. Regions that share a vantage share their
latency and rtt rows, so each host is probed once per vantage: LiveProbe
measures every region from the machine it runs on, while a probe without a
vantage method, such as the simulator's, measures from inside each region.
"""

from __future__ import annotations

import time
from typing import AbstractSet, Callable, Iterable, Mapping, Optional, Protocol, Sequence
from urllib.parse import urlsplit

from .errors import Record, RegionRankError
from .geo import FixtureResolver, GeoResolutionError, haversine_row
from .regions import Region
from .workflow import _DEFAULT_PORTS, ServiceNode

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


Row = Sequence[Optional[float]]


class MetricMatrix(Record):
    """All gathered measurements: for each channel, one row per region over one tuple of hosts.

    hosts are the distinct workflow hosts; column i of every row belongs to
    hosts[i]. rows maps each of CHANNELS to its table, which maps a region id
    to that region's row of the channel, None marking a failed channel (a
    distance, a host that could not be located). Every gathered region has a
    distance row. A probed region also has a latency row and an rtt row; a
    region without them was not probed.
    """

    def __init__(self, hosts: tuple[str, ...], rows: dict[str, dict[str, Row]]):
        if rows.keys() != set(CHANNELS):
            raise ValueError(f"a matrix holds one table per channel {CHANNELS}, not {tuple(rows)}")
        distance, latency, rtt = (rows[channel].keys() for channel in CHANNELS)
        if latency != rtt:
            raise ValueError("every probed region needs both a latency row and an rtt row")
        if not latency <= distance:
            raise ValueError("every probed region must also have a row of distances")
        index = {host: column for column, host in enumerate(hosts)}
        if len(index) != len(hosts):
            raise ValueError("matrix hosts must be distinct")
        if any(len(row) != len(index) for table in rows.values() for row in table.values()):
            raise ValueError(f"every row must hold one value per host ({len(index)})")
        self.__dict__.update(hosts=hosts, rows=rows, _index=index)

    @property
    def entries(self) -> AbstractSet[tuple[str, str]]:
        """Read-only view of the gathered (region id, host) pairs, region by region in host order."""
        return dict.fromkeys((region_id, host) for region_id in self.rows["distance"] for host in self.hosts).keys()

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
        table = self.rows[channel]
        sums = []
        for region_id in region_ids:
            if len(columns) < len(weights) or region_id not in table:
                for host in weights:
                    pair = f"region {region_id!r} and host {host!r}"
                    if host not in index or region_id not in self.rows["distance"]:
                        raise CoverageError(f"matrix has no entry for {pair}")
                    if region_id not in table:
                        raise CoverageError(f"the {channel} channel of {pair} was not probed")
            row = table.get(region_id, ())
            total = 0.0
            for column, count in columns:
                value = row[column]
                total += count * (FAILURE_SENTINEL_MS if value is None else value)
            sums.append(total)
        return sums

    def attempted_channels(self) -> int:
        """How many channels were measured or tried: one per host of each row."""
        return len(self.hosts) * sum(len(table) for table in self.rows.values())

    def failed_channels(self) -> list[tuple[str, str, str]]:
        """(region, host, channel) triples whose measurement failed, sorted.

        Channels of unprobed regions were never tried, so they never fail.
        """
        return sorted(
            (region_id, host, channel)
            for channel, table in self.rows.items()
            for region_id, row in table.items()
            for host, value in zip(self.hosts, row) if value is None
        )


class Probe(Protocol):
    """Measurement backend used when gathering a matrix.

    A probe may also have a vantage(region) method that returns a hashable
    key naming where it measures region's channels from; regions with equal
    keys are measured once, through the first of them, and share the rows.
    A probe without the method measures each region from its own vantage,
    as if vantage(region) returned region.id.
    """

    def measure_latency(self, region: Region, url: str, k: int) -> float:
        """Mean network round-trip region->the host of url over k samples, in ms."""

    def measure_http_rtt(self, region: Region, url: str) -> float:
        """One full HTTP GET round-trip region->url, in ms."""


def _mean(samples: list[float]) -> float:
    """Mean of samples, added left to right from 0.0: the same float on every Python.

    Python 3.12 made sum() of floats compensated, so sum(samples) / len(samples)
    can differ in its last bit between Python versions.
    """
    total = 0.0
    for sample in samples:
        total += sample
    return total / len(samples)


class LiveProbe:
    """Measures real networks from the local vantage point.

    Latency is a timed TCP connect to the URL's port, or its scheme's
    default port. The host is resolved once per probe, and its addresses are
    tried in order, as an HTTP client tries them, until one accepts; every
    sample connects there. HTTP round-trip is a timed GET on a new
    connection; any HTTP status (a redirect, which is not followed, included)
    counts as a completed round-trip, only transport failures and unparsable
    replies count as probe failures.
    """

    def __init__(self, deadline_s: float = DEFAULT_DEADLINE_S):
        self.deadline_s = deadline_s

    def vantage(self, region: Region) -> str:
        """One vantage for every region: all are measured from the local machine."""
        return "local"

    def _tcp_once(self, family: int, sockaddr: tuple) -> float:
        import socket  # deferred: only live probing opens sockets

        # to the resolved sockaddr: create_connection would resolve it again
        with socket.socket(family, socket.SOCK_STREAM) as sock:
            sock.settimeout(self.deadline_s)
            start = time.perf_counter()
            sock.connect(sockaddr)
            return (time.perf_counter() - start) * 1000.0

    def measure_latency(self, region: Region, url: str, k: int) -> float:
        import socket  # deferred: only live probing opens sockets

        try:
            parts = urlsplit(url)
            port = _DEFAULT_PORTS[parts.scheme] if parts.port is None else parts.port
        except (ValueError, KeyError) as exc:  # KeyError: a scheme other than http(s)
            raise ProbeError(f"not an http(s) URL: {url!r}") from exc
        name = parts.hostname
        try:
            # an IPv6 sockaddr keeps its flowinfo and scope id
            targets = [(family, (sockaddr[0], port, *sockaddr[2:]))
                       for family, _, _, _, sockaddr in socket.getaddrinfo(name, None, type=socket.SOCK_STREAM)]
        except (OSError, UnicodeError) as exc:  # UnicodeError: a name idna cannot encode
            raise ProbeError(f"cannot resolve {name!r}: {exc}") from exc
        samples = []
        while len(samples) < k:
            family, target = targets[0]
            try:
                samples.append(self._tcp_once(family, target))
            except OSError as exc:
                # until one address accepts, each that fails gives way to the next
                if samples or len(targets) == 1:
                    raise ProbeError(f"latency probe to {url!r} failed: {exc}") from exc
                del targets[0]
        return _mean(samples)

    def measure_http_rtt(self, region: Region, url: str) -> float:
        from .harness import ErrorStatus, http_body  # deferred, as in cmd_verify, and before the clock starts
        start = time.perf_counter()
        try:
            # no pool: each probe times a new connection's connect and GET
            http_body(url, self.deadline_s, ProbeError)
        except ProbeError as exc:
            if not isinstance(exc.__cause__, ErrorStatus):  # an error status completes the round trip
                raise
        return (time.perf_counter() - start) * 1000.0


def gather_metric_matrix(
    probe: Probe,
    resolver: FixtureResolver,
    regions,
    nodes: list[ServiceNode],
    k: int = DEFAULT_SAMPLE_COUNT,
    parallelism: int = 8,
    probe_regions: Optional[Callable[[MetricMatrix], Iterable[Region]]] = None,
) -> MetricMatrix:
    """Measure every channel for every (region, distinct host) pair.

    Distances come from geolocation alone and are computed once for every
    region, one distance row per region. probe_regions, when given, is
    called once with the distance-only matrix and returns the regions whose
    latency and rtt are probed (default: all of them); each of those gets a
    latency row and an rtt row, and the other regions are left unprobed.

    Channels fail independently: an unresolvable host only loses its distance
    channel, a port that refuses connections its latency and rtt channels,
    and a peer that accepts and then replies badly only its rtt channel. Each
    distinct host is probed once per vantage (see Probe), through the first
    endpoint URL seen for it, even when several workflow nodes share it;
    every probed region of a vantage gets that vantage's latency and rtt
    rows, so a failed channel fails in each of their rows. The probes run on
    a pool of `parallelism` threads, or one after another in the calling
    thread when parallelism is 1.
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
    to_probe = regions if probe_regions is None else list(
        probe_regions(MetricMatrix(hosts, {"distance": distances, "latency": {}, "rtt": {}})))
    unknown = {region.id for region in to_probe} - {region.id for region in regions}
    if unknown:
        raise ValueError(f"regions to probe are not among the gathered regions: {sorted(unknown)}")

    def probe_pair(pair: tuple[Region, str]) -> tuple[Optional[float], Optional[float]]:
        region, host = pair
        url = targets[host]
        try:
            latency = probe.measure_latency(region, url, k)
        except ProbeError:
            latency = None
        try:
            rtt = probe.measure_http_rtt(region, url)
        except ProbeError:
            rtt = None
        return latency, rtt

    # the first region of each vantage probes on behalf of all of them
    vantage = getattr(probe, "vantage", lambda region: region.id)
    keys = [vantage(region) for region in to_probe]
    probers = {}
    for key, region in zip(keys, to_probe):
        probers.setdefault(key, region)
    pairs = [(region, host) for region in probers.values() for host in hosts]
    if parallelism == 1:
        measured = list(map(probe_pair, pairs))
    else:
        # deferred: concurrent.futures loads logging, and a gather of one
        # thread, like most imports of this module, never needs it
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            measured = list(pool.map(probe_pair, pairs))
    # the probes come back vantage by vantage, so each vantage's pairs are one slice
    width = len(hosts)
    probed = {key: measured[i * width:(i + 1) * width] for i, key in enumerate(probers)}
    rows = [(region.id, probed[key]) for key, region in zip(keys, to_probe)]
    return MetricMatrix(hosts, {
        "distance": distances,
        "latency": {region_id: [latency for latency, _ in row] for region_id, row in rows},
        "rtt": {region_id: [rtt for _, rtt in row] for region_id, row in rows},
    })
