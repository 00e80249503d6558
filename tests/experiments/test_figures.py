"""Smoke + shape tests for the figure/table experiment functions (TINY scale).

These run the real experiment code end-to-end at unit-test scale; the
full-scale shapes are asserted in tests/integration/test_paper_properties.py
and regenerated by the benches.
"""

import pytest

from repro.experiments import figures
from repro.experiments.attack_grid import column_mean
from repro.experiments.scenarios import Scale, make_scenario


@pytest.fixture(scope="module")
def scenario():
    return make_scenario(Scale.TINY)


class TestTable1:
    def test_rows_and_render(self, scenario):
        result = figures.table1(scenario, include_month=False,
                                measure_requests_out=False)
        assert len(result.cells) == 5
        text = result.render()
        assert "TRC1" in text and "TRC5" in text
        assert result.cells[0].requests_out is None

    def test_requests_out_measured(self, scenario):
        result = figures.table1(scenario, include_month=False)
        assert all(row.requests_out > 0 for row in result.cells)


class TestFigure3:
    def test_cdf_shapes(self, scenario):
        result = figures.figure3(scenario, trace_limit=2)
        cdf_days, _ = figures.gap_cdfs(result)
        assert len(cdf_days) > 100
        # CDFs are monotone and end at 1.
        days_series = cdf_days.evaluate(figures.GAP_DAY_POINTS)
        values = [v for _, v in days_series]
        assert values == sorted(values)
        assert values[-1] == pytest.approx(1.0, abs=0.01)
        assert "Figure 3" in result.render()

    def test_most_gaps_are_short(self, scenario):
        result = figures.figure3(scenario, trace_limit=2)
        cdf_days, _ = figures.gap_cdfs(result)
        assert cdf_days.probability_at_or_below(5.0) > 0.9


class TestAttackGridFigures:
    def test_figure4_grid_layout(self, scenario):
        grid = figures.figure4(scenario, trace_limit=2)
        assert grid.axes["column"] == ("3 h", "6 h", "12 h", "24 h")
        assert grid.axes["trace"] == ("TRC1", "TRC2")
        text = grid.render()
        assert "stub resolvers" in text and "caching servers" in text

    def test_figure4_failures_grow_with_duration(self, scenario):
        grid = figures.figure4(scenario, trace_limit=2)
        assert column_mean(grid, "24 h") > column_mean(grid, "3 h")

    def test_figure5_improves_on_figure4(self, scenario):
        vanilla = figures.figure4(scenario, trace_limit=1)
        refresh = figures.figure5(scenario, trace_limit=1)
        assert column_mean(refresh, "6 h") < column_mean(vanilla, "6 h")

    def test_renewal_figure_columns(self, scenario):
        grid = figures.figure9(scenario, trace_limit=1, credits=(1, 3))
        assert grid.axes["column"] == ("DNS", "A-LFU 1", "A-LFU 3")
        assert column_mean(grid, "A-LFU 3") <= column_mean(grid, "DNS")

    def test_all_renewal_figures_run(self, scenario):
        for figure in (figures.figure6, figures.figure7, figures.figure8):
            grid = figure(scenario, trace_limit=1, credits=(3,))
            assert len(grid.axes["column"]) == 2

    def test_figure10_long_ttl_columns(self, scenario):
        grid = figures.figure10(scenario, days=(1, 7), trace_limit=1)
        assert grid.axes["column"] == ("DNS", "1 Day TTL", "7 Day TTL")
        assert column_mean(grid, "7 Day TTL") <= column_mean(grid, "1 Day TTL")

    def test_figure11_combination(self, scenario):
        grid = figures.figure11(scenario, days=(3,), trace_limit=1)
        assert column_mean(grid, "3 Day TTL") < column_mean(grid, "DNS")


class TestTable2:
    def test_overheads_have_expected_signs(self, scenario):
        result = figures.table2(scenario, trace_limit=1)

        def overhead(scheme):
            return figures.mean_overhead(result, scheme)

        assert overhead("Refresh") < 0.10
        # Renewal policies add traffic; adaptive ones add the most.
        assert overhead("A-LFU") > overhead("LFU")
        assert overhead("Long-TTL") < 0.0
        assert "Table 2" in result.render()


class TestFigure12:
    def test_memory_series_and_ratios(self, scenario):
        schemes = (
            figures.FIGURE12_SCHEMES[0],   # DNS
            figures.FIGURE12_SCHEMES[4],   # A-LFU 5
        )
        result = figures.figure12(scenario, schemes=schemes,
                                  sample_interval=86400.0)
        series = figures.memory_series(result)
        assert set(series) == {"DNS", "A-LFU 5"}
        assert series["DNS"].samples
        # Enhanced scheme caches at least as much as vanilla.
        assert figures.occupancy_ratio(result, "A-LFU 5") >= 1.0
        assert "Figure 12" in result.render()
