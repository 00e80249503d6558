"""Bench F9 — regenerate Figure 9 (refresh + A-LFU renewal, credits 1/3/5).

A-LFU is the paper's best renewal policy: SR failures < 2.5 %, CS
failures < 10 %, an order of magnitude better than vanilla DNS.
"""

from repro.experiments import figures
from repro.experiments.attack_grid import column_mean

TRACE_LIMIT = 3


def bench_figure9(run_once, scenario, record_artifact):
    grid = run_once(figures.figure9, scenario, trace_limit=TRACE_LIMIT)
    record_artifact("figure9", grid.render())
    vanilla = column_mean(grid, "DNS")
    best = column_mean(grid, "A-LFU 5")
    # Paper headline: one order of magnitude improvement; SR < 2.5 %.
    assert best < vanilla / 8
    assert best < 0.025
    assert column_mean(grid, "A-LFU 5", "cs") < 0.10
