"""Bench F5 — regenerate Figure 5 (TTL refresh under 3-24 h attacks)."""

from repro.experiments import figures
from repro.experiments.attack_grid import column_mean


def bench_figure5(run_once, scenario, record_artifact):
    vanilla = figures.figure4(scenario)
    grid = run_once(figures.figure5, scenario)
    record_artifact("figure5", grid.render())
    # Paper: refresh cuts the failure percentage substantially relative
    # to Figure 4, with the gap widening for longer attacks.  Every cell
    # must improve; the 24 h column must improve by >= 25 % relative.
    for point in grid.points():
        assert grid.cell(**point).sr_attack_failure_rate < \
            vanilla.cell(**point).sr_attack_failure_rate
    assert column_mean(grid, "24 h") < 0.75 * column_mean(vanilla, "24 h")
    assert column_mean(grid, "6 h") < column_mean(vanilla, "6 h")
