"""Ablations and extension experiments beyond the paper's figures.

* :func:`mechanism_ablation` — decompose the combination scheme: vanilla
  → refresh-only → renew-only (no refresh) → refresh+renew → +long-TTL.
  The paper never isolates renew-without-refresh; this fills that gap.
* :func:`stale_comparison` — the Ballani & Francis serve-stale comparator
  from related work (§7) against the paper's schemes.
* :func:`other_attack_classes` — the two §6 attack classes the paper
  discusses but does not simulate: attacking one popular SLD, and
  attacking a DNS-hosting provider.
* :func:`scale_sensitivity` — verifies DESIGN.md §6's claim that failure
  *rates* are scale-stable (TINY vs the requested scale).
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.config import ResilienceConfig
from repro.dns.name import Name
from repro.experiments.harness import AttackSpec
from repro.experiments.max_damage import upcoming_query_counts
from repro.experiments.parallel import ReplaySpec
from repro.experiments.scenarios import Scale, Scenario, make_scenario
from repro.experiments.sweep import Column, Grid, Sweep, Table, coord, percent

HOUR = 3600.0

#: The failure and traffic columns every ablation table ends with.
OUTCOME_COLUMNS: tuple[Column, ...] = (
    ("SR failures", percent("sr_attack_failure_rate")),
    ("CS failures", percent("cs_attack_failure_rate")),
    ("Messages out", lambda g: f"{g.one.total_outgoing:,}"),
)


def _run_schemes(
    scenario: Scenario,
    title: str,
    schemes: dict[str, ResilienceConfig],
    attack_hours: float,
    seed: int,
) -> Grid:
    """One TRC1 replay per labelled scheme under the root+TLD attack,
    one table row each."""
    attack = AttackSpec(start=scenario.attack_start,
                        duration=attack_hours * HOUR)
    grid = Sweep(
        {"scheme": tuple(schemes)},
        lambda scheme: ReplaySpec.for_scenario(
            scenario, "TRC1", schemes[scheme], attack=attack, seed=seed
        ),
    ).run()
    return grid.tabulate(Table(
        title, rows=("scheme",),
        columns=(("Scheme", coord("scheme")), *OUTCOME_COLUMNS),
    ))


def mechanism_ablation(
    scenario: Scenario, attack_hours: float = 6.0, seed: int = 0
) -> Grid:
    """Each mechanism in isolation, then stacked."""
    renew_only = ResilienceConfig(
        ttl_refresh=False,
        renewal_policy=ResilienceConfig.refresh_renew("a-lfu", 3).renewal_policy,
        label="renew-only(a-lfu3)",
    )
    return _run_schemes(
        scenario, "Ablation — mechanisms in isolation (6 h root+TLD attack)",
        {
            "vanilla": ResilienceConfig.vanilla(),
            "refresh only": ResilienceConfig.refresh(),
            "renew only (A-LFU 3)": renew_only,
            "refresh + renew": ResilienceConfig.refresh_renew("a-lfu", 3),
            "long-TTL 3d only": replace(ResilienceConfig.refresh_long_ttl(3),
                                        ttl_refresh=False, label="ttl3d-only"),
            "combination": ResilienceConfig.combination(),
        },
        attack_hours, seed,
    )


def stale_comparison(
    scenario: Scenario, attack_hours: float = 6.0, seed: int = 0
) -> Grid:
    """Serve-stale (related-work comparator) vs the paper's schemes."""
    return _run_schemes(
        scenario, "Comparator — serve-stale (Ballani'06) vs paper schemes",
        {
            "vanilla": ResilienceConfig.vanilla(),
            "serve-stale": ResilienceConfig.stale_serving(),
            "refresh + A-LFU 3": ResilienceConfig.refresh_renew("a-lfu", 3),
            "combination": ResilienceConfig.combination(),
        },
        attack_hours, seed,
    )


def other_attack_classes(
    scenario: Scenario, attack_hours: float = 6.0, seed: int = 0
) -> Grid:
    """§6's other attacks: one popular SLD; one DNS-hosting provider."""
    trace = scenario.trace("TRC1")
    start = scenario.attack_start
    end = start + attack_hours * HOUR
    counts = upcoming_query_counts(trace, scenario, start, end)

    def busiest(candidates: list[Name]) -> Name:
        return max(candidates, key=lambda zone: counts.get(zone, 0))

    slds = [
        zone.name
        for zone in scenario.built.tree.zones()
        if zone.name.depth() == 2
        and zone.name not in scenario.built.provider_zones
    ]
    target_sld = busiest(slds)
    target_provider = busiest(scenario.built.provider_zones)

    attacks = {
        f"popular SLD ({target_sld})": (target_sld,),
        f"provider ({target_provider})": (target_provider,),
    }
    schemes = {
        "vanilla": ResilienceConfig.vanilla(),
        "combination": ResilienceConfig.combination(),
    }
    grid = Sweep(
        {"target": tuple(attacks), "scheme": tuple(schemes)},
        lambda target, scheme: ReplaySpec.for_scenario(
            scenario, "TRC1", schemes[scheme], seed=seed,
            attack=AttackSpec(start=start, duration=attack_hours * HOUR,
                              targets=attacks[target]),
        ),
    ).run()
    return grid.tabulate(Table(
        "Other attack classes (paper §6): single SLD / provider",
        rows=("target", "scheme"),
        columns=(
            ("Scheme", lambda g: f"{g.at['target']} / {g.at['scheme']}"),
            *OUTCOME_COLUMNS,
        ),
    ))


def capacity_ablation(
    scenario: Scenario, attack_hours: float = 6.0, seed: int = 0
) -> Grid:
    """Bounded-cache sensitivity: how much memory do the schemes need?

    The paper (§5.2.2) argues the memory overhead is negligible for
    production caches; this ablation probes the other direction — when
    the cache is too small for the IRR working set, LRU eviction starts
    undoing the renewal/long-TTL work and resilience decays gracefully.
    Capacities are expressed relative to the zone count.
    """
    zone_count = scenario.built.tree.zone_count()
    base = ResilienceConfig.combination()
    return _run_schemes(
        scenario, "Ablation — cache capacity vs resilience (6 h attack)",
        {
            "combination / unbounded": base,
            "combination / 4x zones": replace(
                base, cache_capacity=4 * zone_count, label="combo-cap4x"),
            "combination / 1x zones": replace(
                base, cache_capacity=zone_count, label="combo-cap1x"),
            "combination / 0.25x zones": replace(
                base, cache_capacity=max(8, zone_count // 4),
                label="combo-cap025x"),
            "vanilla / unbounded": ResilienceConfig.vanilla(),
        },
        attack_hours, seed,
    )


def holddown_ablation(
    scenario: Scenario, attack_hours: float = 6.0, seed: int = 0
) -> Grid:
    """Dead-server hold-down: timeout-storm damping during the attack.

    Hold-down does not change *whether* a lookup can succeed (the data
    is still unreachable), but it stops the resolver from re-timing-out
    on known-dead servers — visible as far fewer failed CS queries.
    """
    return _run_schemes(
        scenario,
        "Ablation — dead-server hold-down & RTT selection (6 h attack)",
        {
            "vanilla": ResilienceConfig.vanilla(),
            "vanilla + holddown 10m": replace(
                ResilienceConfig.vanilla(), server_holddown=600.0,
                label="vanilla+holddown"),
            "refresh + holddown 10m": replace(
                ResilienceConfig.refresh(), server_holddown=600.0,
                label="refresh+holddown"),
            "refresh + fast-select": replace(
                ResilienceConfig.refresh(), prefer_fast_servers=True,
                label="refresh+fastselect"),
        },
        attack_hours, seed,
    )


def scale_sensitivity(
    scales: tuple[Scale, ...] = (Scale.TINY, Scale.SMALL),
    attack_hours: float = 6.0,
    seed: int = 0,
) -> Grid:
    """The same schemes at multiple scales; rates should be comparable."""
    schemes = {
        "vanilla": ResilienceConfig.vanilla(),
        "refresh": ResilienceConfig.refresh(),
        "combination": ResilienceConfig.combination(),
    }

    def replay(scale: Scale, scheme: str) -> ReplaySpec:
        scenario = make_scenario(scale)
        attack = AttackSpec(start=scenario.attack_start,
                            duration=attack_hours * HOUR)
        return ReplaySpec.for_scenario(scenario, "TRC1", schemes[scheme],
                                       attack=attack, seed=seed)

    grid = Sweep({"scale": scales, "scheme": tuple(schemes)}, replay).run()
    return grid.tabulate(Table(
        "Scale sensitivity — failure rates across scales",
        rows=("scale", "scheme"),
        columns=(
            ("Scale", lambda g: g.at["scale"].value),
            ("Scheme", coord("scheme")),
            ("SR failures", percent("sr_attack_failure_rate")),
            ("CS failures", percent("cs_attack_failure_rate")),
        ),
    ))
