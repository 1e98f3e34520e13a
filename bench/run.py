"""Benchmark for regionrank: rank, simulate and verify on two seeded workloads.

Run from the repository root (standard library only; the package is imported
from ./src):

    python3 bench/run.py --workload sweep-wide --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 50 --out bench/BENCH_x.json

Each workload process pins itself to one CPU, generates its inputs from the
seed, sets up, makes one counted, untimed rank (warm-up, probe count and
reference output), then repeats three user-facing operations, interleaved
so that each one's samples span the whole run. The operation furthest below
its share of --seconds (OP_SHARE) runs next, topped up to a minimum number
of repetitions:

* rank      sweep-wide: ``regionrank.cli.main(["rank", "--mode", "sim", ...])``;
            loopback: the calls cmd_rank makes, with a LiveProbe and
            parallelism=2 (the CLI hard-codes 8 probe threads).
* simulate  ``regionrank.cli.main(["simulate", ...])``, the oracle sweep.
* verify    one workflow run: ``execute_workflow(spec, runs=1)`` over real
            HTTP on loopback; on sweep-wide a batch of SIM_RUNS_PER_VERIFY
            calls of ``sim_execution_time``, the per-run call of
            ``verify --mode sim``, timed together and divided by the batch
            size (one 5 ms run falls wholly into a fast or a slow phase of a
            shared CPU, so its median jumps between the two).

End-to-end metrics (--trace 0; nothing is instrumented while timing):

  setup_s           median over 11 set-ups of (importing regionrank in a fresh
                    interpreter + generating and writing the inputs +
                    starting the loopback services)
  rank_s            median wall time of one rank
  simulate_s        median wall time of one simulate
  verify_run_s      median over verify samples of the wall time per run
  verify_run_p90_s  p90 of the same samples (at least 100, so >= 10 lie beyond it)
  probes_issued     latency samples + HTTP GETs in one rank (an exact count)
  peak_rss_mb       ru_maxrss of this process

Per-layer metrics (--trace 1) come from spans around each traced call and
from counters; times are medians of per-call self time, counts are per rank
(simulator.host_lookups: per simulate). A traced run first times untraced
ranks, then runs every operation instrumented; trace.overhead_s is the
traced minus the untraced median rank time. Metrics of a layer a workload
does not use read 0. Spans go to .bench_work/trace-<workload>-<seed>.jsonl.

Correctness: every rank's stdout must equal the first one's, and likewise
for simulate; on sweep-wide (consistent metrics) RECOMMENDED must equal
simulate's BEST; on loopback the final payload must be bit-exact with the
source, with no failed probe channel or workflow run. attempted/failed count
probe channels, workflow runs and checks (failed_ratio = failed/attempted);
any failure makes the run incorrect and the exit code 1. A failed operation
is never timed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
if not (SRC / "regionrank" / "__init__.py").is_file():
    sys.exit(f"error: no regionrank sources under {SRC}")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import regionrank.cli as cli  # noqa: E402
from regionrank.bundled import fixture_text  # noqa: E402
from regionrank.errors import RegionRankError  # noqa: E402
from regionrank.geo import FixtureResolver  # noqa: E402
from regionrank.harness import (  # noqa: E402
    execute_workflow,
    payload_source,
    run_workflow_once,
    transform_service,
)
from regionrank.metrics import LiveProbe  # noqa: E402
from regionrank.ranking import geo_prefilter  # noqa: E402
from regionrank.simulator import load_env, sim_execution_time  # noqa: E402
from regionrank.workflow import distinct_nodes  # noqa: E402

import inputs  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("sweep-wide", "loopback")
OPERATIONS = ("rank", "simulate", "verify")
# verify needs the least time for its 100 samples; rank and simulate take
# seconds each on sweep-wide, so they get more of the run
OP_SHARE = {"rank": 0.4, "simulate": 0.4, "verify": 0.2}
SIM_RUNS_PER_VERIFY = 10
SETUP_REPEATS = 11
MIN_REPS = {"rank": 3, "simulate": 3, "verify": 100}
TRACED_MIN_REPS = {"rank": 3, "simulate": 3, "verify": 10}
UNTRACED_SHARE = 0.3  # of --seconds, spent on untraced ranks in a traced run
HTTP_TIMEOUT_S = 30.0
E2E_METRICS = ("setup_s", "rank_s", "simulate_s", "verify_run_s", "verify_run_p90_s",
               "probes_issued", "peak_rss_mb")
PER_LAYER_METRICS = (
    "workflow.parse_s", "workflow.host_lookups", "regions.load_s", "metrics.gather_s",
    "metrics.latency_samples", "metrics.http_gets", "metrics.probe_failures",
    "metrics.probe_busy_s", "ranking.prefilter_s", "ranking.rank_s", "ranking.score_s",
    "ranking.render_s", "simulator.oracle_s", "simulator.host_lookups", "simulator.run_s",
    "harness.run_s", "harness.get_s", "harness.post_s", "harness.overhead_s",
    "harness.bytes_per_run", "cli.self_s", "trace.overhead_s",
)
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import regionrank.cli; print(time.perf_counter() - start)"
)


class Tally:
    """Operations attempted and failed: probe channels, workflow runs, checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def count(self, attempted: int, failed: int, problem: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(problem)

    def check(self, ok: bool, problem: str) -> bool:
        self.count(1, 0 if ok else 1, problem)
        return ok


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _call_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _last_value(stdout: str, prefix: str) -> str | None:
    lines = stdout.rstrip("\n").splitlines()
    if lines and lines[-1].startswith(prefix):
        return lines[-1][len(prefix):].strip()
    return None


class Workload:
    """Drives one workload; subclasses make the inputs and the three operations.

    rank(), simulate() and verify(index) return True when the operation
    succeeded and its output passed the checks.
    """

    name = ""
    runs_per_verify = 1

    def __init__(self, seed: int, workdir: Path, tally: Tally):
        self.seed = seed
        self.workdir = workdir
        self.tally = tally
        self.paths: dict[str, str] = {}
        self.reference: dict[str, str] = {}
        self.calls: Counter = Counter()
        self.tracer: tracing.Tracer | None = None
        self.counters: tracing.Counters | None = None
        self.op_counts: dict[str, list[dict]] = {}

    def write(self, files: dict[str, str]) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            path = self.workdir / name
            path.write_text(text, encoding="utf-8")
            self.paths[name] = str(path)

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed: load what the verify runs reuse, as cmd_verify does once per batch."""
        self.spec = cli.parse_workflow(_read(self.paths["workflow"]), format="lines")

    def teardown(self) -> None:
        pass

    def simulate(self) -> bool:
        code, out, err = _call_cli([
            "simulate", "--workflow", self.paths["workflow"],
            "--catalog", self.paths["catalog.json"], "--env", self.paths["env.json"],
        ])
        ok = self.tally.check(code == cli.EXIT_OK, f"simulate exited {code}: {err[-200:]}")
        return ok and self.same_output("simulate", out)

    def same_output(self, op: str, stdout: str) -> bool:
        """The first output of an operation is the reference; later ones must match it."""
        reference = self.reference.setdefault(op, stdout)
        return self.tally.check(stdout == reference, f"{op} stdout differs between repetitions")

    def timed(self, op: str) -> float | None:
        """Run one operation; its wall time (per run for verify), or None if it failed."""
        index = self.calls[op]
        self.calls[op] += 1
        args = (index,) if op == "verify" else ()
        if self.counters is not None:
            self.counters.reset()
        if self.tracer is None:
            start = time.perf_counter()
            ok = getattr(self, op)(*args)
            elapsed = time.perf_counter() - start
        else:
            self.tracer.run = f"{op}-{index}"
            with self.tracer.span(op) as span:
                ok = getattr(self, op)(*args)
            elapsed = tracing.duration(span)
        if op == "verify":
            elapsed /= self.runs_per_verify
        if self.counters is not None:
            self.op_counts.setdefault(op, []).append(self.counters.snapshot())
        if self.tracer is not None and ok:
            self.after_traced(op)
        return elapsed if ok else None

    def after_traced(self, op: str) -> None:
        """Separately spanned calls made after a traced operation, outside its time."""
        if op == "rank":
            args, kwargs = self.tracer.last_args["ranking.rank"]
            with self.tracer.span("ranking.prefilter"):
                geo_prefilter(*args, **kwargs)

    def final_checks(self) -> None:
        pass


class SweepWide(Workload):
    """CLI rank and simulate in sim mode and simulated runs, on consistent metrics."""

    name = "sweep-wide"
    runs_per_verify = SIM_RUNS_PER_VERIFY

    def setup(self) -> None:
        self.write(inputs.sweep_wide(self.seed))

    def prepare(self) -> None:
        super().prepare()
        catalog = cli.load_catalog(_read(self.paths["catalog.json"]))
        self.env = load_env(_read(self.paths["env.json"]))
        self.channels = 3 * len(catalog) * len(distinct_nodes(self.spec))
        self.vantages = [region.probe_host for region in catalog.regions[:2]]

    def rank(self) -> bool:
        code, out, err = _call_cli([
            "rank", "--mode", "sim", "--workflow", self.paths["workflow"],
            "--catalog", self.paths["catalog.json"], "--env", self.paths["env.json"],
            "--fail-threshold", "0",
        ])
        failed = 0
        if code != cli.EXIT_OK:
            counted = re.search(r"(\d+) of \d+ channels failed", err)
            failed = int(counted.group(1)) if counted else self.channels
        self.tally.count(self.channels, failed, f"rank exited {code}: {err[-200:]}")
        return failed == 0 and self.same_output("rank", out)

    def verify(self, index: int) -> bool:
        vantage = self.vantages[index % 2]
        ok = True
        for number in range(index * self.runs_per_verify, (index + 1) * self.runs_per_verify):
            seconds = sim_execution_time(self.env, self.spec, vantage, data_mb=1.0, run=number)
            ok &= self.tally.check(math.isfinite(seconds) and seconds > 0,
                                   f"simulated run {number} took {seconds!r} s")
        return ok

    def final_checks(self) -> None:
        # metrics are consistent, so the heuristic must pick the oracle's region
        recommended = _last_value(self.reference.get("rank", ""), "RECOMMENDED:")
        best = _last_value(self.reference.get("simulate", ""), "BEST:")
        self.tally.check(recommended is not None and recommended == best,
                         f"RECOMMENDED {recommended} differs from oracle BEST {best}")


class Loopback(Workload):
    """Live rank and real HTTP runs against a payload source and transform services."""

    name = "loopback"

    def __init__(self, *args):
        super().__init__(*args)
        self.services = []
        self.bytes_per_run = 0

    def setup(self) -> None:
        self.payload = inputs.loopback_payload(self.seed)
        self.services = [payload_source(self.payload)]
        self.services += [transform_service(delay_ms=0.0, mode="rotate")
                          for _ in range(inputs.LOOPBACK["services"])]
        ports = [service.port for service in self.services]
        catalog_text = fixture_text("regions.json")
        files = inputs.loopback(self.seed, ports[0], ports[1:], catalog_text)
        files["catalog.json"] = catalog_text
        self.write(files)

    def teardown(self) -> None:
        # each close waits out its server's 0.5 s poll, so close them together
        closers = [threading.Thread(target=service.close) for service in self.services]
        for closer in closers:
            closer.start()
        for closer in closers:
            closer.join()
        self.services = []

    def rank(self) -> bool:
        params = inputs.LOOPBACK
        spec = cli.parse_workflow(_read(self.paths["workflow"]), format="lines")
        catalog = cli.load_catalog(_read(self.paths["catalog.json"]))
        resolver = FixtureResolver.from_json(_read(self.paths["geo.json"]))
        probe = LiveProbe()
        if self.counters is not None:
            probe = tracing.CountingProbe(probe, self.counters)
        matrix = cli.gather_metric_matrix(probe, resolver, catalog, distinct_nodes(spec),
                                          k=params["samples"], parallelism=params["parallelism"])
        report = cli.rank(spec, catalog, matrix, n=params["top_n"])
        cli.render_report(report)
        failed = matrix.failed_channels()
        self.tally.count(3 * len(matrix.entries), len(failed), f"failed channels: {failed[:5]}")
        return not failed

    def verify(self, index: int) -> bool:
        try:
            stats = execute_workflow(self.spec, runs=1, timeout=HTTP_TIMEOUT_S)
        except RegionRankError as exc:
            self.tally.count(1, 1, f"workflow run {index} failed: {exc}")
            return False
        self.tally.count(1, stats.failures, f"workflow run {index} failed")
        return stats.failures == 0

    def after_traced(self, op: str) -> None:
        super().after_traced(op)
        if op == "verify":
            self.drive_hops()

    def drive_hops(self) -> None:
        """Time the GET and POST hops of one run one by one, as the harness sends them."""
        chain = [node.endpoint for node in self.spec.nodes]
        moved = 0
        with self.tracer.span("hops"):
            with self.tracer.span("harness.get"):
                with urllib.request.urlopen(chain[0], timeout=HTTP_TIMEOUT_S) as response:
                    data = response.read()
            moved += len(data)
            for url in chain[1:]:
                request = urllib.request.Request(
                    url, data=data, method="POST",
                    headers={"Content-Type": "application/octet-stream"})
                with self.tracer.span("harness.post"):
                    with urllib.request.urlopen(request, timeout=HTTP_TIMEOUT_S) as response:
                        reply = response.read()
                moved += len(data) + len(reply)
                data = reply
        self.bytes_per_run = moved
        self.tally.check(data == self.payload, "hop-by-hop payload differs from the source")

    def final_checks(self) -> None:
        try:
            _, outputs = run_workflow_once(self.spec, timeout=HTTP_TIMEOUT_S)
            final = outputs.get(self.spec.nodes[-1].id)
        except RegionRankError as exc:
            final = None
            self.tally.problems.append(f"final payload run failed: {exc}")
        self.tally.check(final == self.payload, "final payload is not bit-exact with the source")


WORKLOAD_CLASSES = {cls.name: cls for cls in (SweepWide, Loopback)}


def _fresh_import_s() -> float:
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True,
                          text=True, check=True, timeout=120, cwd=ROOT)
    return float(done.stdout)


def set_up(workload: Workload) -> float:
    """Set up SETUP_REPEATS times, keeping the last; the median set-up time."""
    times = []
    for repeat in range(SETUP_REPEATS):
        if repeat:
            workload.teardown()
        import_s = _fresh_import_s()
        start = time.perf_counter()
        workload.setup()
        times.append(import_s + time.perf_counter() - start)
    workload.prepare()
    return statistics.median(times)


def measure(workload: Workload, ops, seconds: float, min_reps: dict) -> dict[str, list[float]]:
    """Run the operation furthest below its share next until `seconds` pass and min_reps are met."""
    samples = {op: [] for op in ops}
    tries = dict.fromkeys(ops, 0)
    spent = dict.fromkeys(ops, 0.0)
    deadline = time.perf_counter() + seconds
    while True:
        short = [op for op in ops if tries[op] < min_reps[op]]
        if time.perf_counter() < deadline:
            op = min(ops, key=lambda op: spent[op] / OP_SHARE[op])
        elif short:
            op = min(short, key=spent.get)
        else:
            return samples
        start = time.perf_counter()
        elapsed = workload.timed(op)
        spent[op] += time.perf_counter() - start
        tries[op] += 1
        if elapsed is not None:
            samples[op].append(elapsed)


def _median(values) -> float:
    """Median, or 0.0 for no values (every attempt failed; the run is then incorrect)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def _counted_rank(workload: Workload) -> dict:
    """One untimed rank with counters on: warm-up, probe count and reference output."""
    workload.counters = tracing.Counters()
    with tracing.instrumented(None, workload.counters):
        workload.timed("rank")
    workload.counters = None
    return workload.op_counts.pop("rank")[0]


def end_to_end(workload: Workload, seconds: float, setup_s: float) -> dict[str, tuple]:
    counts = _counted_rank(workload)
    samples = measure(workload, OPERATIONS, seconds, MIN_REPS)
    runs = samples["verify"]
    p90 = statistics.quantiles(runs, n=10)[-1] if len(runs) >= 2 else _median(runs)
    return {
        "setup_s": (setup_s, "s"),
        "rank_s": (_median(samples["rank"]), "s"),
        "simulate_s": (_median(samples["simulate"]), "s"),
        "verify_run_s": (_median(runs), "s"),
        "verify_run_p90_s": (p90, "s"),
        "probes_issued": (counts["latency_samples"] + counts["http_gets"], "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _paired_difference(spans: list[dict], minuend: str, subtrahend: dict[str, float]) -> float:
    """Median over runs of (duration of the `minuend` span - subtrahend[run])."""
    values = [tracing.duration(span) - subtrahend[span["run"]]
              for span in spans if span["name"] == minuend and span["run"] in subtrahend]
    return _median(values)


def per_layer(workload: Workload, seconds: float) -> dict[str, tuple]:
    _counted_rank(workload)
    untraced = measure(workload, ("rank",), seconds * UNTRACED_SHARE, TRACED_MIN_REPS)["rank"]

    tracer = tracing.Tracer()
    workload.tracer, workload.counters = tracer, tracing.Counters()
    with tracing.instrumented(tracer, workload.counters):
        traced = measure(workload, OPERATIONS, seconds * (1 - UNTRACED_SHARE), TRACED_MIN_REPS)
    workload.tracer = workload.counters = None
    tracer.write_jsonl(WORK / f"trace-{workload.name}-{workload.seed}.jsonl")

    spans = tracer.spans
    prefilter_s, hops_s = {}, Counter()
    for span in spans:
        if span["name"] == "ranking.prefilter":
            prefilter_s[span["run"]] = tracing.duration(span)
        elif span["name"] in ("harness.get", "harness.post"):
            hops_s[span["run"]] += tracing.duration(span)

    def per_op(op: str, field: str) -> float:
        return _median(counts[field] for counts in workload.op_counts[op])

    def self_s(name: str) -> tuple[float, str]:
        return tracing.median_self(spans, name), "s"

    live = isinstance(workload, Loopback)
    run_s = tracing.median_self(spans, "verify") / workload.runs_per_verify
    return {
        "workflow.parse_s": self_s("workflow.parse"),
        "workflow.host_lookups": (per_op("rank", "host_lookups"), "count"),
        "regions.load_s": self_s("regions.load"),
        "metrics.gather_s": self_s("metrics.gather"),
        "metrics.latency_samples": (per_op("rank", "latency_samples"), "count"),
        "metrics.http_gets": (per_op("rank", "http_gets"), "count"),
        "metrics.probe_failures": (per_op("rank", "probe_failures"), "count"),
        "metrics.probe_busy_s": (per_op("rank", "probe_busy_s"), "s"),
        "ranking.prefilter_s": self_s("ranking.prefilter"),
        "ranking.rank_s": self_s("ranking.rank"),
        "ranking.score_s": (_paired_difference(spans, "ranking.rank", prefilter_s), "s"),
        "ranking.render_s": self_s("ranking.render"),
        "simulator.oracle_s": self_s("simulator.oracle"),
        "simulator.host_lookups": (per_op("simulate", "host_lookups"), "count"),
        "simulator.run_s": (0.0 if live else run_s, "s"),
        "harness.run_s": (run_s if live else 0.0, "s"),
        "harness.get_s": self_s("harness.get"),
        "harness.post_s": self_s("harness.post"),
        "harness.overhead_s": (_paired_difference(spans, "verify", hops_s) if live else 0.0, "s"),
        "harness.bytes_per_run": (workload.bytes_per_run if live else 0, "bytes"),
        "cli.self_s": self_s("rank"),
        "trace.overhead_s": (_median(traced["rank"]) - _median(untraced), "s"),
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    tally = Tally()
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    workload = WORKLOAD_CLASSES[name](seed, workdir, tally)
    try:
        setup_s = set_up(workload)
        metrics = per_layer(workload, seconds) if traced else end_to_end(workload, seconds, setup_s)
        if tuple(metrics) != (PER_LAYER_METRICS if traced else E2E_METRICS):
            raise RuntimeError(f"metric names drifted from the declared lists: {list(metrics)}")
        workload.final_checks()
    finally:
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in tally.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    correct = tally.failed == 0
    for key, (value, unit) in metrics.items():
        print(f"{name} {key} {value:.6g} {unit}")
    print(f"{name} failed_ratio {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed} of {tally.attempted})")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, traced: bool, out: str | None) -> int:
    """Run every workload in its own process; print their lines and a summary."""
    results, code = {}, 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(traced))],
            capture_output=True, text=True, timeout=600, cwd=ROOT)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1]) if lines else None
        code = code or done.returncode or int(not lines)
    doc = {
        "seed": seed, "seconds": seconds, "trace": int(traced),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform(), "workloads": results,
    }
    if out:
        Path(out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(doc, sort_keys=True))
    return code


def pin_to_one_cpu() -> None:
    """Run this process, its threads and its children on one CPU.

    With the probe pool's threads free to run on every CPU, each hand-over of
    the interpreter lock between CPUs costs a variable wake-up: on a 2-CPU
    host, sweep-wide CLI rank took a median 1.34x as long as the same rank
    kept on one CPU, and varied more.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: also write the summary JSON here")
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    WORK.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace), args.out)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
