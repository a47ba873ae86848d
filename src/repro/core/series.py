"""Figure-series rendering: ASCII charts for the terminal.

The paper's figures plot rates/latencies against CPU counts, one curve
per node type or network.  ``plot_series`` renders the same curves as
an ASCII chart so ``python -m repro run fig6 --format chart`` shows
shape at a glance without any plotting dependency.
"""

from __future__ import annotations

import math

from repro.core.experiment import ExperimentResult
from repro.errors import ConfigurationError

__all__ = ["plot_series", "chart_experiment", "default_chart"]

_MARKS = "*o+x#@%&"


def plot_series(
    series: dict[str, list[tuple[float, float]]],
    width: int = 64,
    height: int = 16,
    title: str = "",
    log_x: bool = True,
) -> str:
    """Render named (x, y) curves as an ASCII chart.

    X values are laid out on a log2 axis by default (CPU-count sweeps
    double); Y is linear from 0 to the max.
    """
    if not series or all(not pts for pts in series.values()):
        raise ConfigurationError("nothing to plot")
    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_hi = max(ys) or 1.0

    def col(x: float) -> int:
        if x_hi == x_lo:
            return 0
        if log_x:
            if x <= 0 or x_lo <= 0:
                raise ConfigurationError("log axis needs positive x")
            frac = (math.log2(x) - math.log2(x_lo)) / (
                math.log2(x_hi) - math.log2(x_lo)
            )
        else:
            frac = (x - x_lo) / (x_hi - x_lo)
        return min(width - 1, int(round(frac * (width - 1))))

    def row(y: float) -> int:
        frac = y / y_hi
        return min(height - 1, int(round(frac * (height - 1))))

    grid = [[" "] * width for _ in range(height)]
    legend = []
    for i, (name, pts) in enumerate(series.items()):
        mark = _MARKS[i % len(_MARKS)]
        legend.append(f"{mark} = {name}")
        for x, y in pts:
            r, c = row(y), col(x)
            grid[height - 1 - r][c] = mark
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{y_hi:8.3g} +" + "-" * width)
    for raw in grid:
        lines.append(" " * 9 + "|" + "".join(raw))
    lines.append(f"{0:8.3g} +" + "-" * width)
    lines.append(
        " " * 10 + f"{x_lo:<8.3g}" + " " * max(0, width - 16) + f"{x_hi:>8.3g}"
    )
    lines.append("  " + "   ".join(legend))
    return "\n".join(lines)


def chart_experiment(
    result: ExperimentResult,
    x: str,
    y: str,
    series_by: str,
    width: int = 64,
    height: int = 16,
    **filters,
) -> str:
    """Chart one experiment: ``y`` vs ``x``, one curve per value of
    ``series_by``, optionally filtered by other columns."""
    rows = result.select(**filters) if filters else list(result.rows)
    if not rows:
        raise ConfigurationError(f"no rows match {filters}")
    xi = result.columns.index(x)
    yi = result.columns.index(y)
    si = result.columns.index(series_by)
    series: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        series.setdefault(str(row[si]), []).append((float(row[xi]), float(row[yi])))
    for pts in series.values():
        pts.sort()
    return plot_series(series, width=width, height=height, title=result.title)


def default_chart(
    result: ExperimentResult, width: int = 64, height: int = 16
) -> str:
    """Chart an experiment by the ``chart=`` projection its declaration
    names (the CLI's ``--format chart``)."""
    from repro.core.registry import experiment_specs, resolve_experiment

    chart = resolve_experiment(result.experiment_id).chart
    if chart is None:
        raise ConfigurationError(
            f"no chart projection for {result.experiment_id!r}; available: "
            f"{sorted(s.experiment_id for s in experiment_specs() if s.chart)}"
        )
    x, y, series_by, filters = chart
    return chart_experiment(result, x=x, y=y, series_by=series_by,
                            width=width, height=height, **dict(filters))
