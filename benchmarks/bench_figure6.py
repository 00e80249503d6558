"""Bench F6 — regenerate Figure 6 (refresh + LRU renewal, credits 1/3/5)."""

from repro.experiments import figures
from repro.experiments.attack_grid import column_mean

TRACE_LIMIT = 3  # renewal grids are the costliest; 3 traces by default


def bench_figure6(run_once, scenario, record_artifact):
    grid = run_once(figures.figure6, scenario, trace_limit=TRACE_LIMIT)
    record_artifact("figure6", grid.render())
    assert column_mean(grid, "LRU 5") <= column_mean(grid, "LRU 1") + 0.01
    assert column_mean(grid, "LRU 3") < column_mean(grid, "DNS")
