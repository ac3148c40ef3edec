"""Minimal ASCII chart rendering for figure experiments.

The paper's figures are line charts; the harness regenerates their data
as tables, and this module renders the same data as terminal plots so
`repro plot figN` gives a visual check of the *shape* (clustering
decay, threshold trade-off fronts) without any plotting dependency.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

Series = Sequence[Tuple[float, float]]

MARKERS = "ox+*#@%&"


def _format_axis_value(value: float, as_percent: bool) -> str:
    return f"{value:6.1%}" if as_percent else f"{value:6.2f}"


def line_chart(
    series: Dict[str, Series],
    title: str = "",
    width: int = 60,
    height: int = 18,
    x_label: str = "",
    y_label: str = "",
    y_percent: bool = True,
    y_min: float = None,
    y_max: float = None,
) -> str:
    """Render named (x, y) series on one ASCII grid.

    Each series gets a marker from :data:`MARKERS`; later series
    overwrite earlier ones where they collide (collisions are rendered
    with the later marker, which is fine for shape inspection).
    """
    if not series or all(not points for points in series.values()):
        return f"{title}\n(no data)"
    points_all = [point for points in series.values() for point in points]
    xs = [x for x, __ in points_all]
    ys = [y for __, y in points_all]
    x_low, x_high = min(xs), max(xs)
    y_low = min(ys) if y_min is None else y_min
    y_high = max(ys) if y_max is None else y_max
    if x_high == x_low:
        x_high = x_low + 1.0
    if y_high == y_low:
        y_high = y_low + 1.0

    grid: List[List[str]] = [[" "] * width for __ in range(height)]

    def place(x: float, y: float, marker: str) -> None:
        column = round((x - x_low) / (x_high - x_low) * (width - 1))
        row = round((y - y_low) / (y_high - y_low) * (height - 1))
        row = height - 1 - max(0, min(height - 1, row))
        column = max(0, min(width - 1, column))
        grid[row][column] = marker

    for marker, (label, points) in zip(MARKERS, series.items()):
        for x, y in points:
            place(x, y, marker)

    lines: List[str] = []
    if title:
        lines.append(title)
    if y_label:
        lines.append(f"[y: {y_label}]")
    top = _format_axis_value(y_high, y_percent)
    bottom = _format_axis_value(y_low, y_percent)
    for row_index, row in enumerate(grid):
        if row_index == 0:
            prefix = top
        elif row_index == height - 1:
            prefix = bottom
        else:
            prefix = " " * len(top)
        lines.append(f"{prefix} |{''.join(row)}")
    axis = "-" * width
    lines.append(f"{' ' * len(top)} +{axis}")
    x_left = f"{x_low:g}"
    x_right = f"{x_high:g}"
    padding = width - len(x_left) - len(x_right)
    lines.append(
        f"{' ' * (len(top) + 2)}{x_left}{' ' * max(1, padding)}{x_right}"
        + (f"  [x: {x_label}]" if x_label else "")
    )
    legend = "   ".join(
        f"{marker}={label}" for marker, label in zip(MARKERS, series.keys())
    )
    lines.append(f"{' ' * (len(top) + 2)}{legend}")
    return "\n".join(lines)


def distance_chart(curves: Dict[str, object], title: str) -> str:
    """Chart DistanceCurve objects (misprediction rate vs distance); a
    distance no branch fell at draws no point."""
    series: Dict[str, Series] = {}
    for label, curve in curves.items():
        values = [
            (bucket.distance, bucket.misprediction_rate) for bucket in curve.buckets
        ]
        series[label] = [(x, y) for x, y in values if y is not None]
    return line_chart(
        series,
        title=title,
        x_label="branches since previous misprediction",
        y_label="misprediction rate",
        y_min=0.0,
    )


def sweep_chart(lines_by_label: Dict[str, object], title: str, metric: str) -> str:
    """Chart SweepLine objects (metric vs threshold); a threshold where
    the metric is undefined draws no point."""
    series: Dict[str, Series] = {}
    for label, sweep in lines_by_label.items():
        values = [
            (point.threshold, getattr(point.quadrant, metric)) for point in sweep.points
        ]
        series[label] = [(x, y) for x, y in values if y is not None]
    return line_chart(
        series,
        title=title,
        x_label="threshold",
        y_label=metric,
        y_min=0.0,
    )


def figure1_chart(curves) -> str:
    """Chart Figure 1's (PVP, PVN) parametric trajectories."""
    series: Dict[str, Series] = {}
    for curve in curves:
        series[curve.label] = [(pvn, pvp) for __, pvp, pvn in curve.points]
    return line_chart(
        series,
        title="Figure 1: PVP (y) vs PVN (x) trajectories",
        x_label="PVN",
        y_label="PVP",
        y_min=0.0,
        y_max=1.0,
    )
