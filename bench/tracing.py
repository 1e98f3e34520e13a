"""Outside-in spans and counters for the benchmark's traced runs.

No package file changes: at run time, spans wrap the functions that
``regionrank.cli`` calls by patching that module's names, and counters wrap
the probe methods and the ``ServiceNode.host`` property. ``instrumented``
applies the patches and always restores the originals.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import threading
import time

import regionrank.cli
from regionrank.metrics import ProbeError
from regionrank.simulator import SimulatedProbe
from regionrank.workflow import ServiceNode

# regionrank.cli name -> span name; the loopback workload calls these through
# regionrank.cli as well, so one patch covers the CLI and the library paths.
TRACED_CALLS = {
    "parse_workflow": "workflow.parse",
    "load_catalog": "regions.load",
    "gather_metric_matrix": "metrics.gather",
    "rank": "ranking.rank",
    "render_report": "ranking.render",
    "best_region_oracle": "simulator.oracle",
}


class Tracer:
    """In-memory span recorder for the main thread.

    A span is (id, name, start, end, parent id, run id); ``run`` names the
    benchmark operation the span belongs to.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.run = None
        self.last_args: dict[str, tuple] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str):
        """`fn` inside a span; the arguments of its last call are kept in last_args."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.last_args[name] = (args, kwargs)
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for record in self.spans:
                out.write(json.dumps(record, sort_keys=True) + "\n")


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out = {}
    for span in spans:
        covered, cursor = 0.0, span["start"]
        for start, end in sorted(children.get(span["id"], [])):
            start, end = max(start, cursor, span["start"]), min(end, span["end"])
            if end > start:
                covered += end - start
                cursor = end
        out[span["id"]] = duration(span) - covered
    return out


def median_self(spans: list[dict], name: str) -> float:
    """Median self time of the spans called `name`; 0.0 when there are none."""
    own = self_times(spans)
    values = [own[span["id"]] for span in spans if span["name"] == name]
    return statistics.median(values) if values else 0.0


class Counters:
    """Probe and host-lookup counts, bumped from any thread without a shared lock.

    Each thread adds into its own slot (a shared lock would make the probe
    pool's threads queue on it). reset() and snapshot() run between
    operations, when no probe thread is running.
    """

    FIELDS = ("latency_samples", "http_gets", "probe_failures", "probe_busy_s", "host_lookups")

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self._slots: list[dict] = []
            self._generation = object()

    def _slot(self) -> dict:
        local = self._local
        if getattr(local, "generation", None) is not self._generation:
            local.slot = dict.fromkeys(self.FIELDS, 0)
            local.generation = self._generation
            with self._lock:
                self._slots.append(local.slot)
        return local.slot

    def add(self, **deltas) -> None:
        slot = self._slot()
        for name, delta in deltas.items():
            slot[name] += delta

    def snapshot(self) -> dict:
        with self._lock:
            return {name: sum(slot[name] for slot in self._slots) for name in self.FIELDS}


def counting(method, counters: Counters, channel: str):
    """Wrap a Probe method so each call counts its samples and busy time.

    measure_latency(region, host, k) issues k samples; measure_http_rtt one
    GET. Calls that raise ProbeError count as failures and re-raise.
    """
    @functools.wraps(method)
    def counted(*args):
        issued = {"latency_samples": args[-1]} if channel == "latency" else {"http_gets": 1}
        start = time.perf_counter()
        try:
            return method(*args)
        except ProbeError:
            issued["probe_failures"] = 1
            raise
        finally:
            counters.add(probe_busy_s=time.perf_counter() - start, **issued)
    return counted


class CountingProbe:
    """A Probe that forwards to `inner` and counts what it issues."""

    def __init__(self, inner, counters: Counters):
        self.measure_latency = counting(inner.measure_latency, counters, "latency")
        self.measure_http_rtt = counting(inner.measure_http_rtt, counters, "rtt")


@contextlib.contextmanager
def instrumented(tracer: Tracer | None, counters: Counters | None):
    """Patch spans (tracer) and counters into regionrank; restore on exit."""
    saved = []

    def patch(owner, name, value):
        saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    try:
        if tracer is not None:
            for name, span_name in TRACED_CALLS.items():
                patch(regionrank.cli, name, tracer.wrap(getattr(regionrank.cli, name), span_name))
        if counters is not None:
            for name, channel in (("measure_latency", "latency"), ("measure_http_rtt", "rtt")):
                patch(SimulatedProbe, name, counting(getattr(SimulatedProbe, name), counters, channel))
            host = ServiceNode.__dict__["host"].fget

            def counted_host(node):
                counters.add(host_lookups=1)
                return host(node)

            patch(ServiceNode, "host", property(counted_host))
        yield
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)
