"""Pre-deployment placement ranking for HTTP service workflows.

Given a workflow of HTTP services and a catalog of candidate cloud regions,
this package measures (or simulates) one row of network metrics per region,
weights each host by the workflow's candidate transfers that end there, and
ranks the regions by a combined latency/RTT score to suggest where to host
the orchestrator.
"""

from .errors import RegionRankError
from .geo import EARTH_RADIUS_KM, FixtureResolver, GeoPoint, haversine_km
from .metrics import MetricMatrix, gather_metric_matrix
from .ranking import RankingReport, geo_prefilter, rank, render_report
from .regions import Region, RegionCatalog, load_catalog, load_default_catalog
from .simulator import SimEnvironment, SimulatedProbe, best_region_oracle, sim_execution_time
from .stats import ComparisonStats, ExecutionStats, compare_stats
from .workflow import ServiceNode, WorkflowSpec, parse_workflow, render_workflow

__version__ = "0.1.0"


def __getattr__(name):
    # deferred: the harness loads http.server and the HTTP client, which only
    # live verification uses; execute_workflow resolves on first access
    if name == "execute_workflow":
        from .harness import execute_workflow

        return execute_workflow
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "RegionRankError",
    "EARTH_RADIUS_KM",
    "GeoPoint",
    "FixtureResolver",
    "haversine_km",
    "ServiceNode",
    "WorkflowSpec",
    "parse_workflow",
    "render_workflow",
    "Region",
    "RegionCatalog",
    "load_catalog",
    "load_default_catalog",
    "MetricMatrix",
    "gather_metric_matrix",
    "RankingReport",
    "geo_prefilter",
    "rank",
    "render_report",
    "SimEnvironment",
    "SimulatedProbe",
    "best_region_oracle",
    "sim_execution_time",
    "ExecutionStats",
    "ComparisonStats",
    "compare_stats",
    "execute_workflow",
    "__version__",
]
