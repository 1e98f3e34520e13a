"""Run statistics of a verification batch and the comparison of two batches.

Both verify modes summarise through these: the harness times real runs over
HTTP, the simulator predicts them. Neither this module nor its callers in the
CLI load the HTTP stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import RegionRankError

DEFAULT_RUNS = 5


class HarnessError(RegionRankError):
    """The whole verification batch failed."""


@dataclass(frozen=True)
class ExecutionStats:
    """Wall-clock seconds of successful runs, plus the failed-run count."""

    workflow: str
    runs: tuple[float, ...]
    failures: int = 0

    def __post_init__(self):
        object.__setattr__(self, "runs", tuple(float(r) for r in self.runs))
        if not self.runs:
            raise HarnessError("stats need at least one successful run")
        if self.failures < 0:
            raise HarnessError("failure count cannot be negative")

    @property
    def mean(self) -> float:
        # deferred: statistics pulls in decimal and fractions, about 5 ms of
        # every CLI start, and only verify reads a mean or a stddev
        import statistics

        return statistics.fmean(self.runs)

    @property
    def stddev(self) -> float:
        # sample (n-1) stddev; a single run has no spread to report
        if len(self.runs) < 2:
            return 0.0
        import statistics  # deferred, as in mean

        return statistics.stdev(self.runs)


@dataclass(frozen=True)
class ComparisonStats:
    """Relative change of candidate vs baseline; negative delta = less spread."""

    speedup_pct: float
    delta_sigma_pct: Optional[float]


def compare_stats(baseline: ExecutionStats, candidate: ExecutionStats) -> ComparisonStats:
    """speedup_pct = (baseline.mean/candidate.mean - 1)*100, likewise for stddev.

    A baseline with zero spread makes the sigma ratio undefined, so
    delta_sigma_pct is None in that case rather than infinite.
    """
    if baseline.mean <= 0:
        raise HarnessError("baseline mean must be positive")
    if candidate.mean == 0:
        raise HarnessError("candidate mean is zero; speedup undefined")
    speedup = (baseline.mean / candidate.mean - 1.0) * 100.0
    if baseline.stddev == 0:
        delta = None
    else:
        delta = (candidate.stddev / baseline.stddev - 1.0) * 100.0
    return ComparisonStats(speedup_pct=speedup, delta_sigma_pct=delta)
