"""Tests for the ASCII series/chart rendering."""

import pytest

from repro.core import run_experiment
from repro.core.experiment import ExperimentResult
from repro.core.registry import experiment_specs
from repro.core.series import chart_experiment, default_chart, plot_series
from repro.errors import ConfigurationError


def sample_result():
    r = ExperimentResult(
        experiment_id="fig6",
        title="demo",
        columns=("cpus", "rate", "kind"),
    )
    for cpus, rate, kind in ((4, 1.0, "a"), (16, 0.8, "a"), (64, 0.5, "a"),
                             (4, 2.0, "b"), (16, 1.9, "b"), (64, 1.7, "b")):
        r.add(cpus, rate, kind)
    return r


class TestPlotSeries:
    def test_marks_appear(self):
        text = plot_series({"one": [(1, 1.0), (2, 2.0)]}, width=20, height=6)
        assert "*" in text and "one" in text

    def test_max_value_on_axis(self):
        text = plot_series({"s": [(1, 5.0), (8, 10.0)]}, width=20, height=6)
        assert "10" in text

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            plot_series({})
        with pytest.raises(ConfigurationError):
            plot_series({"s": []})

    def test_log_axis_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            plot_series({"s": [(0, 1.0), (2, 2.0)]})

    def test_linear_axis_allows_zero(self):
        text = plot_series({"s": [(0, 1.0), (2, 2.0)]}, log_x=False)
        assert "*" in text

    def test_multiple_series_use_distinct_marks(self):
        text = plot_series(
            {"a": [(1, 1.0)], "b": [(2, 2.0)], "c": [(4, 3.0)]},
            width=20, height=6,
        )
        assert "* = a" in text and "o = b" in text and "+ = c" in text


class TestChartExperiment:
    def test_filters_and_series(self):
        text = chart_experiment(sample_result(), x="cpus", y="rate",
                                series_by="kind")
        assert "* = a" in text and "o = b" in text

    def test_filter_to_one_series(self):
        text = chart_experiment(sample_result(), x="cpus", y="rate",
                                series_by="kind", kind="a")
        assert "* = a" in text and "= b" not in text

    def test_no_matching_rows_rejected(self):
        with pytest.raises(ConfigurationError):
            chart_experiment(sample_result(), x="cpus", y="rate",
                             series_by="kind", kind="zzz")


class TestChartHints:
    def test_hinted_experiments_chart(self):
        # table5 is cheap; fig6 covers the filtered path.
        for eid in ("table5", "fig6"):
            result = run_experiment(eid, fast=True)
            text = default_chart(result)
            assert result.title.split(":")[0] in text

    def test_unknown_hint_rejected(self):
        r = ExperimentResult("table1", "t", ("a",))
        r.add(1)
        with pytest.raises(ConfigurationError, match="no chart projection"):
            default_chart(r)

    def test_hints_reference_real_columns(self):
        """Every figure declares a chart over its own columns (checked
        when declared), filters as a tuple of pairs."""
        charted = [s for s in experiment_specs() if s.chart is not None]
        assert [s.experiment_id for s in charted] == [
            "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
            "table5",
        ]
        for spec in charted:
            x, y, series_by, filters = spec.chart
            assert isinstance(filters, tuple)
            for col in (x, y, series_by, *(name for name, _ in filters)):
                assert col in spec.columns, (spec.experiment_id, col)
