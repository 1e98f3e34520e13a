"""Command-line front end.

Subcommands: rank (gather metrics and recommend a region), verify (execute a
workflow from two vantages and compare statistics), simulate (brute-force
region sweep in a simulated environment), serve (run the toy transform
service), gen (generate a random chain workflow).

Exit codes: 0 success, 2 input error, 3 probe failure beyond threshold.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Optional

from .bundled import fixture_text
from .errors import RegionRankError
from .geo import FixtureResolver
from .harness import (
    DEFAULT_RUNS,
    ExecutionStats,
    compare_stats,
    execute_workflow,
    transform_service,
)
from .metrics import DEFAULT_SAMPLE_COUNT, LiveProbe, gather_metric_matrix
from .ranking import DEFAULT_PREFILTER_N, geo_prefilter, rank, render_report
from .regions import load_catalog
from .simulator import SimEnvironment, SimulatedProbe, best_region_oracle, load_env, sim_execution_time
from .workflow import (
    distinct_nodes,
    generate_random_workflow,
    parse_workflow,
    render_workflow,
)

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_PROBE_FAILURE = 3


class UsageError(RegionRankError):
    """Bad flag combination caught after argparse."""


def _read_text(path: str, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read {what} file {path!r}: {exc}") from exc


def _load_workflow(path: str):
    text = _read_text(path, "workflow")
    format = "dag" if text.lstrip().startswith("{") else "lines"
    return parse_workflow(text, format=format)


def _load_geo_resolver(path: Optional[str]) -> FixtureResolver:
    text = _read_text(path, "geolocation") if path else fixture_text("geolocations.json")
    return FixtureResolver.from_json(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regionrank",
        description="Rank cloud regions for hosting an HTTP workflow orchestrator.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_rank = sub.add_parser("rank", help="gather metrics and recommend a region")
    p_rank.add_argument("--workflow", required=True, help="workflow file (lines or dag JSON)")
    p_rank.add_argument("--catalog", required=True, help="region catalog JSON file")
    p_rank.add_argument("--mode", choices=("live", "sim"), default="live")
    p_rank.add_argument("--env", help="simulated environment JSON (sim mode)")
    p_rank.add_argument("--seed", type=int, help="override the environment seed (sim mode)")
    p_rank.add_argument("--top-n", type=int, default=DEFAULT_PREFILTER_N,
                        help="regions surviving the geographic prefilter; only they are probed")
    p_rank.add_argument("--format", choices=("table", "json"), default="table")
    p_rank.add_argument("--samples", type=int, default=DEFAULT_SAMPLE_COUNT,
                        help="latency samples per (region, host) pair")
    p_rank.add_argument("--geo", help="host geolocation JSON (live mode; bundled default)")
    p_rank.add_argument("--fail-threshold", type=float, default=0.5,
                        help="max tolerated fraction of failed channels, of those attempted")

    p_verify = sub.add_parser("verify", help="run a workflow from two vantages and compare")
    p_verify.add_argument("--workflow", required=True)
    p_verify.add_argument("--vantage-a", required=True, help="baseline vantage (label, or env host in sim mode)")
    p_verify.add_argument("--vantage-b", required=True, help="candidate vantage")
    p_verify.add_argument("--runs", type=int, default=DEFAULT_RUNS)
    p_verify.add_argument("--mode", choices=("live", "sim"), default="live")
    p_verify.add_argument("--env", help="simulated environment JSON (sim mode)")
    p_verify.add_argument("--seed", type=int, help="override the environment seed (sim mode)")
    p_verify.add_argument("--data-mb", type=float, default=1.0, help="per-hop payload size (sim mode)")

    p_sim = sub.add_parser("simulate", help="brute-force region sweep in a simulated environment")
    p_sim.add_argument("--workflow", required=True)
    p_sim.add_argument("--catalog", required=True)
    p_sim.add_argument("--env", required=True)
    p_sim.add_argument("--data-mb", type=float, default=1.0)

    p_serve = sub.add_parser("serve", help="run the toy transform service in the foreground")
    p_serve.add_argument("--port", type=int, required=True)
    p_serve.add_argument("--delay-ms", type=float, default=0.0)
    p_serve.add_argument("--mode", choices=("rotate", "echo"), default="rotate")

    p_gen = sub.add_parser("gen", help="generate a random chain workflow")
    p_gen.add_argument("--pool", required=True, help="file with one processor URL per line")
    p_gen.add_argument("--length", type=int, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--source", required=True, help="source URL for the chain")

    return parser


def _load_sim_env(args) -> SimEnvironment:
    """The --env environment, with its seed replaced by --seed when given."""
    if not args.env:
        raise UsageError("--mode sim requires --env")
    env = load_env(_read_text(args.env, "environment"))
    if getattr(args, "seed", None) is not None:
        env = replace(env, seed=args.seed)
    return env


def cmd_rank(args) -> int:
    spec = _load_workflow(args.workflow)
    catalog = load_catalog(_read_text(args.catalog, "catalog"))
    if args.top_n < 1:
        raise UsageError("--top-n must be at least 1")
    if not 0 <= args.fail_threshold <= 1:
        raise UsageError(f"--fail-threshold must be between 0 and 1, not {args.fail_threshold}")
    if args.mode == "sim":
        env = _load_sim_env(args)
        probe, resolver = SimulatedProbe(env), env.resolver()
    else:
        probe = LiveProbe()
        resolver = _load_geo_resolver(args.geo)
    # distances for every region, then latency and rtt probes for the
    # prefilter's survivors only: --top-n is the probe budget
    nodes = distinct_nodes(spec)
    distances = gather_metric_matrix(probe, resolver, catalog, nodes, probe_regions=())
    survivors = geo_prefilter(spec, catalog, distances, args.top_n)
    probed = gather_metric_matrix(probe, resolver, survivors, nodes, k=args.samples)
    matrix = replace(probed, distances=distances.distances)
    failed = matrix.failed_channels()
    attempted = matrix.attempted_channels()
    if attempted and len(failed) / attempted > args.fail_threshold:
        for region_id, host, channel in failed:
            print(f"failed channel: {region_id} -> {host} [{channel}]", file=sys.stderr)
        print(
            f"error: {len(failed)} of {attempted} channels failed "
            f"(threshold {args.fail_threshold:.2f})",
            file=sys.stderr,
        )
        return EXIT_PROBE_FAILURE
    report = rank(spec, catalog, matrix, n=args.top_n)
    sys.stdout.write(render_report(report, format=args.format))
    print(f"RECOMMENDED: {report.recommended}")
    return EXIT_OK


def _sim_stats(env, spec, vantage: str, runs: int, data_mb: float) -> ExecutionStats:
    samples = [
        sim_execution_time(env, spec, vantage, data_mb=data_mb, run=i) for i in range(runs)
    ]
    return ExecutionStats(workflow=spec.name, runs=tuple(samples))


def cmd_verify(args) -> int:
    spec = _load_workflow(args.workflow)
    if args.runs < 1:
        raise UsageError("--runs must be at least 1")
    if args.mode == "sim":
        env = _load_sim_env(args)
        stats_a = _sim_stats(env, spec, args.vantage_a, args.runs, args.data_mb)
        stats_b = _sim_stats(env, spec, args.vantage_b, args.runs, args.data_mb)
    else:
        # Live mode times the workflow from this process; the vantage names
        # label the two measurement batches (deploying the orchestrator into
        # a remote region is outside this tool's scope).
        stats_a = execute_workflow(spec, runs=args.runs)
        stats_b = execute_workflow(spec, runs=args.runs)
    for label, vantage, stats in (
        ("vantage-a", args.vantage_a, stats_a),
        ("vantage-b", args.vantage_b, stats_b),
    ):
        print(
            f"{label} ({vantage}): mean {stats.mean:.3f} s  stddev {stats.stddev:.3f} s  "
            f"runs {len(stats.runs)}  failures {stats.failures}"
        )
    comparison = compare_stats(stats_a, stats_b)
    print(f"speedup: {comparison.speedup_pct:.2f}%")
    if comparison.delta_sigma_pct is None:
        print("delta-sigma: n/a (baseline stddev is 0)")
    else:
        print(f"delta-sigma: {comparison.delta_sigma_pct:.2f}%")
    return EXIT_OK


def cmd_simulate(args) -> int:
    spec = _load_workflow(args.workflow)
    catalog = load_catalog(_read_text(args.catalog, "catalog"))
    env = _load_sim_env(args)
    best, table = best_region_oracle(env, spec, catalog, data_mb=args.data_mb)
    print("region | predicted seconds")
    for region_id, seconds in table:
        print(f"{region_id} | {seconds:.3f}")
    print(f"BEST: {best}")
    return EXIT_OK


def cmd_serve(args) -> int:
    service = transform_service(port=args.port, delay_ms=args.delay_ms, mode=args.mode)
    print(f"serving transform ({args.mode}) on {service.url}", flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        return EXIT_OK
    finally:
        service.close()


def cmd_gen(args) -> int:
    pool = [
        line.strip()
        for line in _read_text(args.pool, "pool").splitlines()
        if line.strip() and not line.strip().startswith("#")
    ]
    spec = generate_random_workflow(pool, length=args.length, seed=args.seed, source=args.source)
    sys.stdout.write(render_workflow(spec, format="lines"))
    return EXIT_OK


_COMMANDS = {
    "rank": cmd_rank,
    "verify": cmd_verify,
    "simulate": cmd_simulate,
    "serve": cmd_serve,
    "gen": cmd_gen,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.subcommand](args)
    except (RegionRankError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
