"""Bench F4 — regenerate Figure 4 (vanilla DNS under 3-24 h attacks)."""

from repro.experiments import figures
from repro.experiments.attack_grid import column_mean


def bench_figure4(run_once, scenario, record_artifact):
    grid = run_once(figures.figure4, scenario)
    record_artifact("figure4", grid.render())
    # Failures grow with attack duration...
    assert column_mean(grid, "24 h") > column_mean(grid, "3 h")
    # ...and the attack visibly hurts the current DNS.
    assert column_mean(grid, "6 h") > 0.15
    # CS failures exceed SR failures (caches still answer stubs).
    assert column_mean(grid, "6 h", "cs") > column_mean(grid, "6 h")
