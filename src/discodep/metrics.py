"""Dependency-distance statistics: MDD, SD, Pearson correlation.

Root arcs never contribute a distance. Undefined metrics propagate as
absent values (never 0) so correlations over a corpus stay honest.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

from .model import DependencyGraph, DiscodepError


class UndefinedMetric(DiscodepError):
    """Raised when a metric's denominator is zero."""


class CorrelationError(DiscodepError):
    pass


class LengthMismatch(CorrelationError):
    pass


class ConstantSeries(CorrelationError):
    pass


@dataclass(frozen=True)
class MetricsRecord:
    doc_id: str
    unit_count: int
    arc_count: int
    mdd: float | None
    sd: float | None


@dataclass(frozen=True)
class CorrelationResult:
    r: float
    t: float
    df: int

    @property
    def n_pairs(self) -> int:
        return self.df + 2


def mdd_rooted(graph: DependencyGraph) -> float:
    """Mean dependency distance of a rooted tree: sum |DD| / (n - 1).

    The root arc carries no distance and is excluded from the sum; the
    denominator counts discourse units, not arcs.
    """
    if graph.unit_count < 2:
        raise UndefinedMetric(
            f"{graph.doc_id}: rooted MDD needs at least 2 units, got {graph.unit_count}"
        )
    return sum(graph.distances()) / (graph.unit_count - 1)


def mdd_local(graph: DependencyGraph) -> float:
    """Mean dependency distance of a local forest: sum |DD| / arc count.

    The denominator is the number of distance-bearing arcs (the units
    actually participating in dependencies), not the document length.
    """
    distances = graph.distances()
    if not distances:
        raise UndefinedMetric(f"{graph.doc_id}: local MDD undefined without arcs")
    return sum(distances) / len(distances)


def sd_distances(graph: DependencyGraph) -> float:
    """Sample standard deviation (k-1 denominator) of the arc distances."""
    distances = graph.distances()
    if len(distances) < 2:
        raise UndefinedMetric(
            f"{graph.doc_id}: SD needs at least 2 distances, got {len(distances)}"
        )
    return statistics.stdev(distances)


def metrics_record(graph: DependencyGraph, mode: str) -> MetricsRecord:
    """Per-document record; undefined metrics become absent values."""
    if mode not in ("local", "rooted"):
        raise ValueError(f"mode must be 'local' or 'rooted', got {mode!r}")
    mdd_fn = mdd_local if mode == "local" else mdd_rooted
    try:
        mdd = mdd_fn(graph)
    except UndefinedMetric:
        mdd = None
    try:
        sd = sd_distances(graph)
    except UndefinedMetric:
        sd = None
    return MetricsRecord(
        doc_id=graph.doc_id,
        unit_count=graph.unit_count,
        arc_count=len(graph.arcs),
        mdd=mdd,
        sd=sd,
    )


def pearson(xs: list[float], ys: list[float]) -> CorrelationResult:
    """Pearson's r over paired series, with t statistic and df = n - 2.

    Uses sample moments: r = cov(x, y) / (sx * sy). Requires at least 3
    pairs, non-constant series, and moments that are finite floats.
    """
    if len(xs) != len(ys):
        raise LengthMismatch(f"series lengths differ: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 3:
        raise LengthMismatch(f"need at least 3 pairs, got {n}")
    try:
        mx = statistics.fmean(xs)
        my = statistics.fmean(ys)
        # fsum keeps the moments exact, so r is invariant under permutations
        sx = math.sqrt(math.fsum((x - mx) ** 2 for x in xs) / (n - 1))
        sy = math.sqrt(math.fsum((y - my) ** 2 for y in ys) / (n - 1))
        cov = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys)) / (n - 1)
    except (OverflowError, ValueError):  # a float overflowed, or fsum met inf - inf
        sx = sy = cov = math.nan
    if not all(map(math.isfinite, (sx, sy, cov))):
        raise CorrelationError("a moment is not a finite float; r is undefined")
    if sx == 0 or sy == 0:
        which = "left" if sx == 0 else "right"
        raise ConstantSeries(f"{which} series is constant; r is undefined")
    r = cov / (sx * sy)
    r = max(-1.0, min(1.0, r))
    df = n - 2
    if abs(r) == 1.0:
        t = math.inf if r > 0 else -math.inf
    else:
        t = r * math.sqrt(df / (1.0 - r * r))
    return CorrelationResult(r=r, t=t, df=df)
