"""Two-stage region ranking: geographic prefilter, then latency/RTT scoring.

Deploying the orchestrator in region R turns each workflow hop (u, v) into
two transfers that traverse R (u -> R, then R -> v), and routes each terminal
node's final output back to R. A workflow with H hops and T terminal nodes
therefore yields 2H + T candidate edges, every one of them with R at one end.
So a region's score on any channel m is sum_h w_h * m(R, h), where w_h,
WorkflowSpec.host_weights, counts the edges whose far end is host h; every
region shares it, and MetricMatrix.weighted_sums computes it over each
region's row of the matrix.

Stage one ranks every candidate region by total great-circle distance and
keeps the top n. Stage two scores each survivor as the average of its summed
HTTP round-trip and summed network latency. All tables are ordinal: scores
order regions but do not predict run times.
"""

from __future__ import annotations

import json
import math

from .errors import Record, RegionRankError
from .metrics import MetricMatrix
from .regions import Region, RegionCatalog
from .workflow import WorkflowSpec

DEFAULT_PREFILTER_N = 3

Table = tuple[tuple[str, float], ...]


class RankingError(RegionRankError):
    """The metrics give a region a score that no table can order."""


class RankingReport(Record):
    """Outcome of one ranking run.

    prefiltered_regions are the survivors, at most n, in prefilter order;
    distance_table covers every region while the latency, rtt and final
    tables cover only the survivors. Every table is sorted ascending by
    (score, region-id).
    """

    def __init__(self, recommended: str, prefiltered_regions: tuple[str, ...], distance_table: Table,
                 latency_table: Table, rtt_table: Table, final_table: Table):
        self.__dict__.update(recommended=recommended, prefiltered_regions=prefiltered_regions,
                             distance_table=distance_table, latency_table=latency_table,
                             rtt_table=rtt_table, final_table=final_table)


def _sorted_table(scores: dict[str, float]) -> Table:
    return tuple(sorted(scores.items(), key=lambda item: (item[1], item[0])))


def _prefilter(
    spec: WorkflowSpec,
    catalog: RegionCatalog,
    matrix: MetricMatrix,
    n: int,
) -> tuple[Table, list[Region]]:
    """Distance table over every region, and the top n regions."""
    if n < 1:
        raise ValueError("prefilter size must be at least 1")
    regions = {region.id: region for region in catalog}
    totals = matrix.weighted_sums(spec.host_weights, regions, "distance")
    table = _sorted_table(dict(zip(regions, totals)))
    return table, [regions[region_id] for region_id, _ in table[:n]]


def geo_prefilter(
    spec: WorkflowSpec,
    catalog: RegionCatalog,
    matrix: MetricMatrix,
    n: int,
) -> list[Region]:
    """Top n regions by total geographic distance (ascending, ties by id)."""
    return _prefilter(spec, catalog, matrix, n)[1]


def rank(
    spec: WorkflowSpec,
    catalog: RegionCatalog,
    matrix: MetricMatrix,
    n: int = DEFAULT_PREFILTER_N,
) -> RankingReport:
    """Rank candidate regions for hosting the workflow orchestrator.

    The recommendation is the argmin of final_score = (total rtt +
    total latency) / 2 over prefilter survivors, ties broken by region id.
    A survivor whose latency, rtt or final score is not finite (summed
    metrics that overflow, from any probe) raises RankingError naming the
    region and the score.
    """
    distance_table, survivors = _prefilter(spec, catalog, matrix, n)
    survivor_ids = [region.id for region in survivors]
    latencies = matrix.weighted_sums(spec.host_weights, survivor_ids, "latency")
    rtts = matrix.weighted_sums(spec.host_weights, survivor_ids, "rtt")

    latency_scores, rtt_scores, final_scores = {}, {}, {}
    for region_id, latency, rtt in zip(survivor_ids, latencies, rtts):
        final = (rtt + latency) / 2.0
        for channel, score in (("latency", latency), ("rtt", rtt), ("final", final)):
            if not math.isfinite(score):
                raise RankingError(f"{channel} score of region {region_id!r} is not finite: {score}")
        latency_scores[region_id] = latency
        rtt_scores[region_id] = rtt
        final_scores[region_id] = final

    final_table = _sorted_table(final_scores)
    return RankingReport(
        recommended=final_table[0][0],
        prefiltered_regions=tuple(survivor_ids),
        distance_table=distance_table,
        latency_table=_sorted_table(latency_scores),
        rtt_table=_sorted_table(rtt_scores),
        final_table=final_table,
    )


def _render_rows(table: Table, header: str) -> list[str]:
    lines = [header]
    for region_id, score in table:
        lines.append(f"{region_id} | {score:.3f}")
    return lines


def render_report(report: RankingReport, format: str = "table") -> str:
    """Render a report as a human table or as machine-readable JSON.

    Table scores are ordinal; units: final/latency/rtt in milliseconds summed
    over candidate edges, distance in kilometres.
    """
    if format == "table":
        lines = ["# scores are ordinal; final/latency/rtt in ms, distance in km"]
        lines += _render_rows(report.final_table, "EC2 endpoint | final score")
        lines.append("")
        lines += _render_rows(report.distance_table, "EC2 endpoint | distance score (km)")
        lines.append("")
        lines += _render_rows(report.latency_table, "EC2 endpoint | latency score (ms)")
        lines.append("")
        lines += _render_rows(report.rtt_table, "EC2 endpoint | rtt score (ms)")
        return "\n".join(lines) + "\n"
    if format == "json":
        doc = {
            "recommended": report.recommended,
            "prefilter_n": len(report.prefiltered_regions),
            "prefiltered_regions": list(report.prefiltered_regions),
            "distance_table": [list(row) for row in report.distance_table],
            "latency_table": [list(row) for row in report.latency_table],
            "rtt_table": [list(row) for row in report.rtt_table],
            "final_table": [list(row) for row in report.final_table],
        }
        return json.dumps(doc, indent=2) + "\n"
    raise ValueError(f"unknown report format {format!r}")

