"""Candidate deployment graphs: the network paths a region would add.

Deploying the orchestrator in region R turns each workflow hop (u, v) into
two transfers that traverse R (u -> R, then R -> v), and routes each terminal
node's final output back to R. A workflow with H hops and T terminal nodes
therefore yields 2H + T edges, every one of them with R at one end.

So a region's score on any channel m is sum_h w_h * m(R, h), where w_h counts
the edges whose far end is host h. The weight vector w depends only on the
workflow: its edges are listed once per workflow, when the WorkflowSpec is
validated, and every region shares them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping

from .metrics import FAILURE_SENTINEL_MS, MetricMatrix
from .regions import Region
from .workflow import WorkflowSpec


def candidate_peers(spec: WorkflowSpec) -> list[str]:
    """Host at the far end of each candidate edge, in edge order.

    Every hop (u, v) contributes host(u) (u -> R) then host(v) (R -> v); then
    every node with no outgoing hop contributes its return edge (t -> R).
    """
    return list(spec.edge_peers)


def host_weights(spec: WorkflowSpec) -> Counter[str]:
    """Per-host weight vector: how many candidate edges end at each host."""
    return Counter(spec.edge_peers)


@dataclass(frozen=True)
class CandidateGraph:
    """One region's candidate graph, as the host weight vector of its edges."""

    region: Region
    weights: Mapping[str, int]


def build_candidate_graph(spec: WorkflowSpec, region: Region) -> CandidateGraph:
    """The transfers a workflow would route through one region."""
    return CandidateGraph(region, host_weights(spec))


def processor_invocations(spec: WorkflowSpec) -> int:
    """How many hop deliveries trigger processing work (target is a processor)."""
    return spec.invocations


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
