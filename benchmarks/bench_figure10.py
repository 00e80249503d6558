"""Bench F10 — regenerate Figure 10 (refresh + long IRR TTLs, 1-7 days)."""

from repro.experiments import figures
from repro.experiments.attack_grid import column_mean


def bench_figure10(run_once, scenario, record_artifact):
    grid = run_once(figures.figure10, scenario)
    record_artifact("figure10", grid.render())
    # Longer TTLs help monotonically...
    assert column_mean(grid, "7 Day TTL") <= column_mean(grid, "1 Day TTL") + 0.01
    # ...but 5 days is already nearly as good as 7 (gap CDF saturation).
    five = column_mean(grid, "5 Day TTL")
    seven = column_mean(grid, "7 Day TTL")
    assert abs(five - seven) < 0.02
    # And the scheme crushes vanilla.
    assert column_mean(grid, "5 Day TTL") < 0.5 * column_mean(grid, "DNS")
