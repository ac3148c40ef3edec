"""Tests for the ASCII chart renderer."""

from repro.analysis.sweeps import SweepLine, SweepPoint
from repro.harness.plot import (
    distance_chart,
    figure1_chart,
    line_chart,
    sweep_chart,
)
from repro.metrics import QuadrantCounts, figure1_family
from test_analysis_distance import columns_curve


class TestLineChart:
    def test_renders_grid_and_legend(self):
        chart = line_chart(
            {"a": [(0, 0.0), (1, 1.0)], "b": [(0, 1.0), (1, 0.0)]},
            title="demo",
            width=20,
            height=6,
        )
        assert "demo" in chart
        assert "o=a" in chart and "x=b" in chart
        assert "100.0%" in chart

    def test_extremes_land_on_borders(self):
        chart = line_chart({"a": [(0, 0.0), (10, 1.0)]}, width=11, height=5)
        rows = [line for line in chart.splitlines() if "|" in line]
        assert rows[0].rstrip().endswith("o")  # max at top-right
        assert rows[-1].split("|")[1][0] == "o"  # min at bottom-left

    def test_empty_series(self):
        assert "(no data)" in line_chart({}, title="nothing")
        assert "(no data)" in line_chart({"a": []}, title="nothing")

    def test_degenerate_single_point(self):
        chart = line_chart({"a": [(3, 0.5)]}, width=10, height=4)
        assert "o" in chart

    def test_non_percent_axis(self):
        chart = line_chart({"a": [(0, 2.0), (1, 4.0)]}, y_percent=False)
        assert "4.00" in chart


class TestDomainCharts:
    def test_distance_chart(self):
        curve = columns_curve(
            [(0, True), (1, False), (2, False)], "t", max_distance=4
        )
        chart = distance_chart({"all": curve}, "demo distances")
        assert "misprediction rate" in chart
        assert "demo distances" in chart

    def test_distance_chart_skips_empty_buckets(self):
        # no branch fell at distances 1-3: only distances 0 and 4 are
        # charted, not made-up 0.0% points in between
        curve = columns_curve([(0, True), (4, False)], "t", max_distance=4)
        chart = distance_chart({"all": curve}, "demo distances")
        grid = [row.split("|", 1)[1] for row in chart.splitlines() if "|" in row]
        assert sum(row.count("o") for row in grid) == 2

    def test_sweep_chart(self):
        line = SweepLine(
            "demo",
            (
                SweepPoint(0, QuadrantCounts(c_hc=2, i_hc=1)),
                SweepPoint(1, QuadrantCounts(c_hc=3, i_hc=0, i_lc=1)),
            ),
        )
        chart = sweep_chart({"demo": line}, "sweep", "pvp")
        assert "threshold" in chart

    def test_sweep_chart_skips_undefined_points(self):
        # threshold 0 tags nothing LC, so PVN is undefined there: only
        # threshold 1 is charted, not a made-up 0.0% at threshold 0
        line = SweepLine(
            "demo",
            (
                SweepPoint(0, QuadrantCounts(c_hc=3, i_hc=1)),
                SweepPoint(1, QuadrantCounts(c_hc=2, c_lc=1, i_lc=1)),
            ),
        )
        chart = sweep_chart({"demo": line}, "sweep", "pvn")
        grid = [row.split("|", 1)[1] for row in chart.splitlines() if "|" in row]
        assert sum(row.count("o") for row in grid) == 1

    def test_figure1_chart(self):
        chart = figure1_chart(figure1_family())
        assert "PVP" in chart and "PVN" in chart
        assert "vary sens" in chart


class TestCliPlot:
    def test_plot_fig1(self, capsys):
        from repro.cli import main

        assert main(["plot", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out

    def test_plot_fig3(self, capsys):
        from repro.cli import main

        code = main(
            ["plot", "fig3", "--iterations", "40", "--workloads", "compress"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pvp" in out and "pvn" in out

    def test_plot_distance_figure(self, capsys):
        from repro.cli import main

        code = main(
            [
                "plot",
                "fig6",
                "--iterations",
                "60",
                "--workloads",
                "compress",
                "--pipeline-instructions",
                "8000",
            ]
        )
        assert code == 0
        assert "committed" in capsys.readouterr().out
