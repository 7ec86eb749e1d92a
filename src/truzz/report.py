"""Post-campaign analysis: stats CSV parsing, campaign comparison, and the
Vargha-Delaney probability-of-superiority effect size."""

from __future__ import annotations

import csv
import enum
import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from pathlib import Path as FsPath
from typing import Sequence

from .engine import STATS_HEADER

STATS_COLUMNS = STATS_HEADER.split(",")


class StatsSchemaError(ValueError):
    """A stats CSV does not carry the expected columns."""


class Magnitude(enum.Enum):
    NONE = "none"
    SMALL = "small"
    MEDIUM = "medium"
    BIG = "big"


# Effect-size thresholds on the score's distance from equivalence (0.5),
# applied symmetrically in both directions.
_THRESHOLDS = ((0.71, Magnitude.BIG), (0.64, Magnitude.MEDIUM), (0.56, Magnitude.SMALL))


@dataclass(frozen=True)
class A12Result:
    score: float
    magnitude: Magnitude


def a12(sample1: Sequence[float], sample2: Sequence[float]) -> A12Result:
    """Probability that a draw from sample1 exceeds one from sample2.

    Ties count half, so a12(x, y) + a12(y, x) = 1 and equivalent samples
    score exactly 0.5.
    """
    if not len(sample1) or not len(sample2):
        raise ValueError("both samples must be non-empty")
    ys = sorted(float(v) for v in sample2)
    wins = ties = 0
    for x in map(float, sample1):
        below = bisect_left(ys, x)
        wins += below
        ties += bisect_right(ys, x, below) - below
    score = (wins + 0.5 * ties) / (len(sample1) * len(ys))
    effect = max(score, 1.0 - score)
    magnitude = Magnitude.NONE
    for threshold, mag in _THRESHOLDS:
        if effect >= threshold:
            magnitude = mag
            break
    return A12Result(score, magnitude)


# ---------------------------------------------------------------------------
# Stats CSV handling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StatsRow:
    elapsed_s: float
    executions: int
    seeds: int
    edges_covered: int
    valid: int
    invalid: int
    crashes: int


def read_stats(path: str | os.PathLike) -> list[StatsRow]:
    # A byte that is not ASCII reads as U+FFFD, which no column accepts.
    with open(path, "r", encoding="ascii", errors="replace", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != STATS_COLUMNS:
            raise StatsSchemaError(
                f"{path}: expected columns {STATS_COLUMNS}, got {header}"
            )
        rows = []
        for rec in reader:
            if len(rec) != len(STATS_COLUMNS):
                raise StatsSchemaError(f"{path}: malformed row {rec}")
            try:
                rows.append(StatsRow(float(rec[0]), *map(int, rec[1:])))
            except ValueError:
                raise StatsSchemaError(
                    f"{path}: non-numeric cell in row {reader.line_num}: {rec}"
                ) from None
    if not rows:
        raise StatsSchemaError(f"{path}: no data rows")
    return rows


@dataclass
class CampaignComparison:
    """Final ratios and coverage of two campaigns, plus an aligned series.

    Valid-ratio delta is in absolute percentage points; the edge delta is
    relative to campaign A's final edge count.
    """

    valid_ratio_a: float
    valid_ratio_b: float
    valid_delta_points: float
    edges_a: int
    edges_b: int
    edges_delta_pct: float
    series: list[tuple[int, int, int]]  # (executions, edges_a, edges_b)

    def render(self) -> str:
        lines = [
            f"valid ratio A: {self.valid_ratio_a * 100:.2f}%",
            f"valid ratio B: {self.valid_ratio_b * 100:.2f}%",
            f"valid ratio delta (percentage points): "
            f"{self.valid_delta_points * 100:+.2f}",
            f"edges covered A: {self.edges_a}",
            f"edges covered B: {self.edges_b}",
            f"edge delta (relative): {self.edges_delta_pct:+.2f}%",
            "",
            "executions\tedges_a\tedges_b",
        ]
        lines += [f"{e}\t{a}\t{b}" for e, a, b in self.series]
        return "\n".join(lines)


def compare_campaigns(
    stats_a: str | os.PathLike, stats_b: str | os.PathLike
) -> CampaignComparison:
    """Compare two stats CSVs: final valid ratios, final coverage, and the
    coverage-over-time series aligned on matching execution counts."""
    rows_a = read_stats(stats_a)
    rows_b = read_stats(stats_b)
    final_a, final_b = rows_a[-1], rows_b[-1]

    ratio_a = final_a.valid / final_a.executions if final_a.executions else 0.0
    ratio_b = final_b.valid / final_b.executions if final_b.executions else 0.0
    edges_delta = (
        100.0 * (final_b.edges_covered - final_a.edges_covered) / final_a.edges_covered
        if final_a.edges_covered
        else 0.0
    )

    by_exec_b = {r.executions: r.edges_covered for r in rows_b}
    series = [
        (r.executions, r.edges_covered, by_exec_b[r.executions])
        for r in rows_a
        if r.executions in by_exec_b
    ]
    return CampaignComparison(
        valid_ratio_a=ratio_a,
        valid_ratio_b=ratio_b,
        valid_delta_points=ratio_b - ratio_a,
        edges_a=final_a.edges_covered,
        edges_b=final_b.edges_covered,
        edges_delta_pct=edges_delta,
        series=series,
    )


def collect_final_metric(run_dir: str | os.PathLike, metric: str) -> list[float]:
    """Final-row values of ``metric`` from every stats.csv under ``run_dir``.

    Accepts a directory of repeated runs: any ``*.csv`` directly inside, or
    ``stats.csv`` files in immediate subdirectories.
    """
    if metric not in STATS_COLUMNS:
        raise ValueError(f"unknown metric {metric!r}; choose from {STATS_COLUMNS}")
    root = FsPath(run_dir)
    files: list[FsPath] = sorted(root.glob("*.csv"))
    files += sorted(root.glob("*/stats.csv"))
    if not files:
        raise FileNotFoundError(f"no stats CSVs under {run_dir}")
    values = []
    for f in files:
        final = read_stats(f)[-1]
        values.append(float(getattr(final, metric)))
    return values
