"""Candidate deployment graphs: the network paths a region would add.

Deploying the orchestrator in region R turns each workflow hop (u, v) into
two transfers that traverse R (u -> R, then R -> v), and routes each terminal
node's final output back to R. A workflow with H hops and T terminal nodes
therefore yields 2H + T edges, every one of them with R at one end.

So a region's score on any channel m is sum_h w_h * m(R, h), where w_h counts
the edges whose far end is host h. The weight vector w depends only on the
workflow: it is computed once and shared by every region.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping

from .metrics import FAILURE_SENTINEL_MS, MetricMatrix
from .regions import Region
from .workflow import ROLE_PROCESSOR, WorkflowSpec


def candidate_peers(spec: WorkflowSpec) -> list[str]:
    """Host at the far end of each candidate edge, in edge order.

    Every hop (u, v) contributes host(u) (u -> R) then host(v) (R -> v); then
    every node with no outgoing hop contributes its return edge (t -> R).
    """
    hosts = {node.id: node.host for node in spec.nodes}
    peers = []
    for u, v in spec.hops:
        peers.append(hosts[u])
        peers.append(hosts[v])
    has_outgoing = {u for u, _ in spec.hops}
    for node in spec.nodes:
        if node.id not in has_outgoing:
            peers.append(hosts[node.id])
    return peers


def host_weights(spec: WorkflowSpec) -> Counter[str]:
    """Per-host weight vector: how many candidate edges end at each host."""
    return Counter(candidate_peers(spec))


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
    roles = {node.id: node.role for node in spec.nodes}
    return sum(1 for _, v in spec.hops if roles[v] == ROLE_PROCESSOR)


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
