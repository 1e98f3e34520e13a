"""One region's candidate graph and its score on one channel, in the form older callers use.

A graph is (region, host weights): the edges a workflow would route through
the region, as WorkflowSpec.host_weights (see the ranking module for the
2H + T edge model). Its score is one row of MetricMatrix.weighted_sums.
"""

from __future__ import annotations

from typing import Mapping

from .metrics import MetricMatrix
from .regions import Region
from .workflow import WorkflowSpec

CandidateGraph = tuple[Region, Mapping[str, int]]


def build_candidate_graph(spec: WorkflowSpec, region: Region) -> CandidateGraph:
    """The transfers a workflow would route through one region."""
    return region, spec.host_weights


def total_weight(graph: CandidateGraph, channel: str, matrix: MetricMatrix) -> float:
    """Sum one measured channel over every edge of a candidate graph."""
    region, weights = graph
    return matrix.weighted_sums(weights, [region.id], channel)[0]
