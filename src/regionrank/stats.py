"""Run statistics of a verification batch and the comparison of two batches.

Both verify modes summarise through these: the harness times real runs over
HTTP, the simulator predicts them. Neither this module nor its callers in the
CLI load the HTTP stack.
"""

from __future__ import annotations

from typing import Optional

from .errors import Record, RegionRankError

DEFAULT_RUNS = 5


class HarnessError(RegionRankError):
    """The whole verification batch failed."""


class ExecutionStats(Record):
    """Wall-clock seconds of successful runs, plus the failed-run count."""

    def __init__(self, workflow: str, runs: tuple[float, ...], failures: int = 0):
        runs = tuple(float(r) for r in runs)
        if not runs:
            raise HarnessError("stats need at least one successful run")
        if failures < 0:
            raise HarnessError("failure count cannot be negative")
        self.__dict__.update(workflow=workflow, runs=runs, failures=failures)

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


class ComparisonStats(Record):
    """Relative change of candidate vs baseline; negative delta = less spread."""

    def __init__(self, speedup_pct: float, delta_sigma_pct: Optional[float]):
        self.__dict__.update(speedup_pct=speedup_pct, delta_sigma_pct=delta_sigma_pct)


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
