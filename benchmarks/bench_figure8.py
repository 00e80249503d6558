"""Bench F8 — regenerate Figure 8 (refresh + A-LRU renewal, credits 1/3/5)."""

from repro.experiments import figures
from repro.experiments.attack_grid import column_mean

TRACE_LIMIT = 3


def bench_figure8(run_once, scenario, record_artifact):
    grid = run_once(figures.figure8, scenario, trace_limit=TRACE_LIMIT)
    record_artifact("figure8", grid.render())
    # Adaptive LRU should beat plain behaviour decisively vs vanilla.
    assert column_mean(grid, "A-LRU 3") < 0.5 * column_mean(grid, "DNS")
