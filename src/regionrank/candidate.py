"""Candidate deployment graphs: the network paths a region would add.

Deploying the orchestrator in region R turns each workflow hop (u, v) into
two transfers that traverse R (u -> R, then R -> v), and routes each terminal
node's final output back to R. A workflow with H hops and T terminal nodes
therefore yields 2H + T edges, every one of them with R at one end.

So a region's score on any channel m is sum_h w_h * m(R, h), where w_h counts
the edges whose far end is host h. The weight vector w depends only on the
workflow: it is WorkflowSpec.host_weights, derived once when the workflow is
validated, and every region's graph shares it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .metrics import FAILURE_SENTINEL_MS, MetricMatrix
from .regions import Region
from .workflow import WorkflowSpec


@dataclass(frozen=True)
class CandidateGraph:
    """One region's candidate graph, as the host weight vector of its edges."""

    region: Region
    weights: Mapping[str, int]


def build_candidate_graph(spec: WorkflowSpec, region: Region) -> CandidateGraph:
    """The transfers a workflow would route through one region."""
    return CandidateGraph(region, spec.host_weights)


def total_weight(graph: CandidateGraph, channel: str, matrix: MetricMatrix) -> float:
    """Sum one measured channel over every edge of a candidate graph.

    Each host's (region, host) measurement counts once per edge ending there;
    a failed channel contributes FAILURE_SENTINEL_MS per edge so incomplete
    regions rank last rather than looking free.
    """
    values = matrix.column(graph.region.id, graph.weights, channel)
    total = 0.0
    for count, value in zip(graph.weights.values(), values):
        total += count * (FAILURE_SENTINEL_MS if value is None else value)
    return total
