"""Bench F7 — regenerate Figure 7 (refresh + LFU renewal, credits 1/3/5)."""

from repro.experiments import figures
from repro.experiments.attack_grid import column_mean

TRACE_LIMIT = 3


def bench_figure7(run_once, scenario, record_artifact):
    grid = run_once(figures.figure7, scenario, trace_limit=TRACE_LIMIT)
    record_artifact("figure7", grid.render())
    assert column_mean(grid, "LFU 5") <= column_mean(grid, "LFU 1") + 0.01
    assert column_mean(grid, "LFU 3") < column_mean(grid, "DNS")
