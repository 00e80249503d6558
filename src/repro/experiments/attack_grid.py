"""The Figures 4–11 failure grids and the Renewal 2.0 comparison.

Each figure is a grid of (trace × column) failure rates under the
root+TLD attack starting at day 7.  A column is a labelled (scheme,
attack duration) pair: attack durations for one scheme (Figures 4–5)
or scheme variants at a fixed 6-hour attack (Figures 6–11).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.report import format_percent
from repro.core.config import ResilienceConfig
from repro.core.schemes import parse_scheme
from repro.experiments.harness import AttackSpec
from repro.experiments.parallel import ReplaySpec
from repro.experiments.registry import resolve_scale
from repro.experiments.scenarios import Scale, Scenario, make_scenario
from repro.experiments.sweep import Grid, Sweep, Table, coord, per_stub, percent, pivot

HOUR = 3600.0

#: The paper's attack durations (Figures 4, 5).
DURATIONS_HOURS = (3, 6, 12, 24)

#: The paper's renewal credits (Figures 6-9).
CREDITS = (1, 3, 5)

#: The paper's long-TTL values in days (Figures 10, 11).
LONG_TTL_DAYS = (1, 3, 5, 7)

#: One grid column: (label, scheme, attack hours).
GridColumn = tuple[str, ResilienceConfig, float]


def failure_grid(
    scenario: Scenario,
    title: str,
    columns: Sequence[GridColumn],
    trace_limit: int | None = None,
    seed: int = 0,
    workers: int | None = None,
) -> Grid:
    """Failure rates over ``trace`` × ``column``, SR panel above CS.

    ``workers`` (default ``$REPRO_WORKERS``) fans the cells out over
    processes.
    """
    by_label = {label: (config, hours) for label, config, hours in columns}

    def replay(trace: str, column: str) -> ReplaySpec:
        config, hours = by_label[column]
        attack = AttackSpec(start=scenario.attack_start, duration=hours * HOUR)
        return ReplaySpec.for_scenario(scenario, trace, config, attack=attack,
                                       seed=seed)

    grid = Sweep(
        {"trace": scenario.week_trace_names(trace_limit),
         "column": tuple(by_label)},
        replay,
    ).run(workers)
    return grid.tabulate(*(
        Table(
            f"{title} — failed queries from {who}",
            rows=("trace",),
            columns=[("trace", coord("trace")), *pivot(
                "column", tuple(by_label), str,
                lambda cell, attr=attr: format_percent(getattr(cell, attr)),
            )],
        )
        for who, attr in (("stub resolvers", "sr_attack_failure_rate"),
                          ("caching servers", "cs_attack_failure_rate"))
    ))


def column_mean(grid: Grid, column: str, panel: str = "sr") -> float:
    """A failure grid column's mean ``panel`` ("sr" or "cs") failure rate
    over the traces."""
    return grid.where(column=column).mean(f"{panel}_attack_failure_rate")


def duration_columns(
    config: ResilienceConfig, durations_hours: Sequence[int] = DURATIONS_HOURS
) -> list[GridColumn]:
    """Figures 4-5: one scheme, attack durations as columns."""
    return [(f"{hours} h", config, hours) for hours in durations_hours]


def scheme_columns(
    schemes: Sequence[tuple[str, ResilienceConfig]], attack_hours: float = 6.0
) -> list[GridColumn]:
    """Figures 6-11: the "DNS" contrast column, then ``schemes``, at a
    fixed attack."""
    return [
        (label, config, attack_hours)
        for label, config in (("DNS", ResilienceConfig.vanilla()), *schemes)
    ]


@dataclass(frozen=True)
class AttackGridSpec:
    """Declarative duration-grid request (the registry's spec)."""

    scale: Scale | None = None
    seed: int = 7
    scheme: str = "vanilla"
    trace_limit: int | None = None
    durations_hours: tuple[int, ...] = DURATIONS_HOURS


def run(spec: AttackGridSpec) -> Grid:
    """Registry entry point: one scheme's failure grid over durations."""
    config = parse_scheme(spec.scheme)
    scenario = make_scenario(resolve_scale(spec.scale), seed=spec.seed)
    return failure_grid(
        scenario,
        f"Attack durations — {config.label}",
        duration_columns(config, spec.durations_hours),
        trace_limit=spec.trace_limit,
    )


# ---------------------------------------------------------------------------
# Renewal 2.0: swr / decoupled vs credit-based renewal at equal budget
# ---------------------------------------------------------------------------

#: The default comparison set: the paper's adaptive renewal policies
#: against the two post-paper families, all spelled in scheme syntax.
RENEWAL2_SCHEMES = ("a-lru:3", "a-lfu:3", "swr", "decoupled:7")


@dataclass(frozen=True)
class Renewal2Spec:
    """Declarative Renewal 2.0 comparison request (the registry's spec)."""

    scale: Scale | None = None
    seed: int = 7
    attack_hours: float = 6.0
    trace_limit: int | None = None
    schemes: tuple[str, ...] = RENEWAL2_SCHEMES


def renewal2_table(attack_hours: float) -> Table:
    """The equal-upstream-budget comparison over ``scheme`` × ``trace``."""
    return Table(
        f"Renewal 2.0 — {attack_hours:g} h attack, schemes compared at "
        "equal upstream query budget (demand + renewal)",
        rows=("scheme",),
        columns=(
            ("Scheme", coord("scheme")),
            ("SR fail (attack)", percent("sr_attack_failure_rate")),
            ("CS fail (attack)", percent("cs_attack_failure_rate")),
            ("Stale answers",
             lambda g: f"{per_stub(g, 'sr_stale_hits') * 100:.2f} %"),
            ("Upstream queries", lambda g: g.total("upstream_queries")),
            ("Upstream/stub",
             lambda g: f"{per_stub(g, 'upstream_queries'):.3f}"),
        ),
    )


def run_renewal2(spec: Renewal2Spec) -> Grid:
    """Registry entry point: replay every scheme over the week traces.

    All schemes replay the same traces, seed and attack; the table
    reports failure rates (means over traces) side by side with the
    upstream-query spend (sums) so the comparison is read at equal
    budget.
    """
    configs = {config.label: config
               for config in map(parse_scheme, spec.schemes)}
    scenario = make_scenario(resolve_scale(spec.scale), seed=spec.seed)
    attack = AttackSpec(start=scenario.attack_start,
                        duration=spec.attack_hours * HOUR)
    grid = Sweep(
        {"scheme": tuple(configs),
         "trace": scenario.week_trace_names(spec.trace_limit)},
        lambda scheme, trace: ReplaySpec.for_scenario(
            scenario, trace, configs[scheme], attack=attack
        ),
    ).run()
    return grid.tabulate(renewal2_table(spec.attack_hours))
