"""One function per paper figure/table (the per-experiment index of
DESIGN.md §4 maps each to its bench target).

Each function returns a :class:`~repro.experiments.sweep.Grid` of the
raw numbers plus its ``render()`` text form; benches print that text
and EXPERIMENTS.md records it against the paper.
"""

from __future__ import annotations

from functools import partial

from repro.analysis.cdf import Cdf
from repro.analysis.overhead import MemoryOverheadSeries
from repro.analysis.report import render_series
from repro.core.config import ResilienceConfig
from repro.experiments.attack_grid import (
    CREDITS,
    DURATIONS_HOURS,
    LONG_TTL_DAYS,
    duration_columns,
    failure_grid,
    scheme_columns,
)
from repro.experiments.parallel import ReplaySpec
from repro.experiments.scenarios import Scenario
from repro.experiments.sweep import Grid, Sweep, Table, coord
from repro.workload.stats import compute_statistics

DAY = 86400.0

#: X-axis points for the Figure 3 CDFs.
GAP_DAY_POINTS = (0.25, 0.5, 1, 2, 3, 4, 5, 7, 10)
GAP_FRACTION_POINTS = (0.5, 1, 2, 5, 10, 20, 50, 100)


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------

TABLE1_HEADERS = (
    "Trace", "Duration", "Clients", "Requests In", "Requests Out", "Names",
    "Zones",
)


def table1(scenario: Scenario, include_month: bool = True,
           measure_requests_out: bool = True,
           workers: int | None = None) -> Grid:
    """Table 1: per-trace statistics; requests-out measured by vanilla replay.

    Cells are :class:`~repro.workload.stats.TraceStatistics`.
    """
    names = list(Scenario.WEEK_TRACES)
    if include_month:
        names.append(Scenario.MONTH_TRACE)
    requests_out: dict[str, int | None] = dict.fromkeys(names)
    if measure_requests_out:
        replays = Sweep(
            {"trace": names},
            lambda trace: ReplaySpec.for_scenario(
                scenario, trace, ResilienceConfig.vanilla()
            ),
        ).run(workers)
        for name in names:
            requests_out[name] = replays.cell(trace=name).total_outgoing
    grid = Grid(
        axes={"trace": tuple(names)},
        cells=tuple(
            compute_statistics(scenario.trace(name), tree=scenario.built.tree,
                               requests_out=requests_out[name])
            for name in names
        ),
    )
    return grid.tabulate(Table(
        "Table 1 — DNS trace statistics (synthetic workload)",
        rows=("trace",),
        columns=[
            (header, lambda g, i=index: g.one.as_row()[i])
            for index, header in enumerate(TABLE1_HEADERS)
        ],
    ))


# ---------------------------------------------------------------------------
# Figure 3
# ---------------------------------------------------------------------------


def gap_cdfs(grid: Grid) -> tuple[Cdf, Cdf]:
    """Figure 3's two CDFs (gap in days, gap / TTL) over every trace."""
    samples = [sample for cell in grid.cells for sample in cell.gap_samples]
    return (
        Cdf.from_samples([sample.gap_days for sample in samples]),
        Cdf.from_samples([sample.gap_as_ttl_fraction for sample in samples]),
    )


def _render_figure3(grid: Grid) -> str:
    cdf_days, cdf_fraction = gap_cdfs(grid)
    days = render_series(
        "Figure 3 (upper) — gap duration CDF",
        cdf_days.evaluate(GAP_DAY_POINTS),
        x_name="days",
        y_name="CDF",
    )
    fractions = render_series(
        "Figure 3 (lower) — gap / TTL CDF",
        cdf_fraction.evaluate(GAP_FRACTION_POINTS),
        x_name="gap as fraction of TTL",
        y_name="CDF",
    )
    summary = (
        f"samples: {len(cdf_days)}; gaps under 5 days: "
        f"{cdf_days.probability_at_or_below(5.0) * 100:.1f} %"
    )
    return f"{days}\n\n{fractions}\n\n{summary}"


def figure3(scenario: Scenario, trace_limit: int | None = None,
            workers: int | None = None) -> Grid:
    """Figure 3: expiry-to-next-query gap CDFs from vanilla replays."""
    grid = Sweep(
        {"trace": scenario.week_trace_names(trace_limit)},
        lambda trace: ReplaySpec.for_scenario(
            scenario, trace, ResilienceConfig.vanilla(), track_gaps=True
        ),
    ).run(workers)
    return grid.tabulate(_render_figure3)


# ---------------------------------------------------------------------------
# Figures 4-11 (attack grids)
# ---------------------------------------------------------------------------

def figure4(scenario: Scenario, trace_limit: int | None = None,
            seed: int = 0) -> Grid:
    """Figure 4: vanilla DNS under 3/6/12/24 h root+TLD attacks."""
    return failure_grid(
        scenario, "Figure 4 — Vanilla DNS",
        duration_columns(ResilienceConfig.vanilla(), DURATIONS_HOURS),
        trace_limit=trace_limit, seed=seed,
    )


def figure5(scenario: Scenario, trace_limit: int | None = None,
            seed: int = 0) -> Grid:
    """Figure 5: TTL refresh under 3/6/12/24 h attacks."""
    return failure_grid(
        scenario, "Figure 5 — TTL Refresh",
        duration_columns(ResilienceConfig.refresh(), DURATIONS_HOURS),
        trace_limit=trace_limit, seed=seed,
    )


def renewal_figure(
    scenario: Scenario,
    policy: str,
    credits: tuple[int, ...] = CREDITS,
    trace_limit: int | None = None,
    seed: int = 0,
) -> Grid:
    """Figures 6-9: refresh + one renewal policy at credits 1/3/5, 6 h attack."""
    number, short = _POLICY_FIGURES[policy]
    schemes = [
        (f"{short} {credit}", ResilienceConfig.refresh_renew(policy, credit))
        for credit in credits
    ]
    return failure_grid(
        scenario, f"Figure {number} — TTL Refresh + Renew ({short})",
        scheme_columns(schemes), trace_limit=trace_limit, seed=seed,
    )


_POLICY_FIGURES = {
    "lru": (6, "LRU"), "lfu": (7, "LFU"), "a-lru": (8, "A-LRU"),
    "a-lfu": (9, "A-LFU"),
}

#: Figures 6-9, one renewal policy each.
figure6 = partial(renewal_figure, policy="lru")
figure7 = partial(renewal_figure, policy="lfu")
figure8 = partial(renewal_figure, policy="a-lru")
figure9 = partial(renewal_figure, policy="a-lfu")


def figure10(
    scenario: Scenario,
    days: tuple[int, ...] = LONG_TTL_DAYS,
    trace_limit: int | None = None,
    seed: int = 0,
) -> Grid:
    """Figure 10: refresh + long IRR TTLs of 1/3/5/7 days, 6 h attack."""
    schemes = [
        (f"{value} Day TTL", ResilienceConfig.refresh_long_ttl(value))
        for value in days
    ]
    return failure_grid(
        scenario, "Figure 10 — TTL Refresh + Long-TTL",
        scheme_columns(schemes), trace_limit=trace_limit, seed=seed,
    )


def figure11(
    scenario: Scenario,
    days: tuple[int, ...] = LONG_TTL_DAYS,
    policy: str = "a-lfu",
    credit: float = 3.0,
    trace_limit: int | None = None,
    seed: int = 0,
) -> Grid:
    """Figure 11: refresh + A-LFU renewal + long TTLs of 1/3/5/7 days."""
    schemes = [
        (
            f"{value} Day TTL",
            ResilienceConfig.combination(days=value, policy=policy,
                                         credit=credit),
        )
        for value in days
    ]
    return failure_grid(
        scenario, "Figure 11 — TTL Refresh + Renew + Long-TTL",
        scheme_columns(schemes), trace_limit=trace_limit, seed=seed,
    )


# ---------------------------------------------------------------------------
# Table 2
# ---------------------------------------------------------------------------

#: The schemes Table 2 reports, in the paper's row order.
TABLE2_SCHEMES: tuple[tuple[str, ResilienceConfig], ...] = (
    ("Refresh", ResilienceConfig.refresh()),
    ("LRU", ResilienceConfig.refresh_renew("lru", 3)),
    ("LFU", ResilienceConfig.refresh_renew("lfu", 3)),
    ("A-LRU", ResilienceConfig.refresh_renew("a-lru", 3)),
    ("A-LFU", ResilienceConfig.refresh_renew("a-lfu", 3)),
    ("Long-TTL", ResilienceConfig.refresh_long_ttl(7)),
    ("Combination", ResilienceConfig.combination(days=3, policy="a-lfu", credit=3)),
)

#: Table 2's vanilla baseline column (not a reported row).
BASELINE = "__baseline__"


def mean_overhead(grid: Grid, scheme: str, kind: str = "message") -> float:
    """A Table 2 scheme's ``kind`` ("message" or "byte") overhead vs the
    vanilla baseline, averaged over the traces."""
    overheads: list[float] = [
        getattr(grid.cell(trace=trace, scheme=scheme), f"{kind}_overhead_vs")(
            grid.cell(trace=trace, scheme=BASELINE)
        )
        for trace in grid.axes["trace"]
    ]
    return sum(overheads) / len(overheads)


def table2(
    scenario: Scenario,
    schemes: tuple[tuple[str, ResilienceConfig], ...] = TABLE2_SCHEMES,
    trace_limit: int | None = 3,
    seed: int = 0,
    workers: int | None = None,
) -> Grid:
    """Table 2: outgoing-message overhead of every scheme vs vanilla.

    The (trace × scheme) replays — baseline included — form one batch.
    """
    configs = {BASELINE: ResilienceConfig.vanilla(), **dict(schemes)}
    grid = Sweep(
        {"trace": scenario.week_trace_names(trace_limit),
         "scheme": tuple(configs)},
        lambda trace, scheme: ReplaySpec.for_scenario(
            scenario, trace, configs[scheme], seed=seed
        ),
    ).run(workers)
    table = Table(
        "Table 2 — traffic overhead vs vanilla (no attack)",
        rows=("scheme",),
        columns=[("Scheme", coord("scheme"))] + [
            (header, lambda g, kind=kind: (
                f"{mean_overhead(grid, g.at['scheme'], kind) * 100:+.1f} %"))
            for header, kind in (("Message overhead", "message"),
                                 ("Byte overhead", "byte"))
        ],
    )
    return grid.tabulate(
        lambda full: table(full.select(scheme=[label for label, _ in schemes]))
    )


# ---------------------------------------------------------------------------
# Figure 12
# ---------------------------------------------------------------------------

#: Figure 12's legend: vanilla plus every scheme at its strongest setting.
FIGURE12_SCHEMES: tuple[tuple[str, ResilienceConfig], ...] = (
    ("DNS", ResilienceConfig.vanilla()),
    ("LRU 5", ResilienceConfig.refresh_renew("lru", 5)),
    ("LFU 5", ResilienceConfig.refresh_renew("lfu", 5)),
    ("A-LRU 5", ResilienceConfig.refresh_renew("a-lru", 5)),
    ("A-LFU 5", ResilienceConfig.refresh_renew("a-lfu", 5)),
    ("Long-TTL", ResilienceConfig.refresh_long_ttl(7)),
    ("Combination", ResilienceConfig.combination(days=3, policy="a-lfu", credit=5)),
)


def memory_series(grid: Grid) -> dict[str, MemoryOverheadSeries]:
    """Figure 12's cache-occupancy series, one per scheme."""
    return {
        scheme: MemoryOverheadSeries(
            label=scheme, samples=list(grid.cell(scheme=scheme).memory_samples)
        )
        for scheme in grid.axes["scheme"]
    }


def occupancy_ratio(grid: Grid, scheme: str) -> float:
    """Mean records cached by ``scheme`` relative to "DNS" (1.0 without
    a DNS column)."""
    if "DNS" not in grid.axes["scheme"]:
        return 1.0
    series = memory_series(grid)
    return series[scheme].occupancy_ratio_vs(series["DNS"])


def figure12(
    scenario: Scenario,
    schemes: tuple[tuple[str, ResilienceConfig], ...] = FIGURE12_SCHEMES,
    sample_interval: float = 6 * 3600.0,
    seed: int = 0,
    workers: int | None = None,
) -> Grid:
    """Figure 12: cached zones/records over time for each scheme (TRC6)."""
    configs = dict(schemes)
    grid = Sweep(
        {"scheme": tuple(configs)},
        lambda scheme: ReplaySpec.for_scenario(
            scenario, Scenario.MONTH_TRACE, configs[scheme],
            memory_sample_interval=sample_interval, seed=seed,
        ),
    ).run(workers)

    def series(group: Grid) -> MemoryOverheadSeries:
        return memory_series(grid)[group.at["scheme"]]

    return grid.tabulate(Table(
        "Figure 12 — memory overhead over the one-month trace (TRC6)",
        rows=("scheme",),
        columns=(
            ("Scheme", coord("scheme")),
            ("Peak zones", lambda g: series(g).peak_zones()),
            ("Peak records", lambda g: series(g).peak_records()),
            ("Steady records",
             lambda g: f"{series(g).steady_state_mean_records():,.0f}"),
            ("vs DNS",
             lambda g: f"{occupancy_ratio(grid, g.at['scheme']):.2f}x"),
            ("Est. peak mem",
             lambda g: f"{series(g).estimated_peak_bytes() / 1e6:.1f} MB"),
        ),
    ))
