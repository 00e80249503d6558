"""Bench F11 — regenerate Figure 11 (refresh + A-LFU renewal + long TTL)."""

from repro.experiments import figures
from repro.experiments.attack_grid import column_mean

TRACE_LIMIT = 3


def bench_figure11(run_once, scenario, record_artifact):
    grid = run_once(figures.figure11, scenario, trace_limit=TRACE_LIMIT)
    record_artifact("figure11", grid.render())
    # Paper: with renewal on top, a 3-day TTL already reaches the maximum
    # resilience; longer TTLs add nothing.
    three = column_mean(grid, "3 Day TTL")
    seven = column_mean(grid, "7 Day TTL")
    assert abs(three - seven) < 0.02
    assert three < column_mean(grid, "DNS") / 5
