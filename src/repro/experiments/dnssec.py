"""DNSSEC extension experiment (paper §6 deployment issues).

Under DNSSEC, a validating resolver needs more than addresses to answer:
every signed zone on a lookup's chain must have a live DNSKEY.  Those
keys are *infrastructure records*, so the paper's refresh / renewal /
long-TTL schemes extend to them — and matter even more, because during
an attack a missing key turns an otherwise-cached answer into SERVFAIL.

This experiment replays a trace over a fully signed hierarchy with
validation on and off, for vanilla DNS and for the combination scheme,
under the standard 6 h root+TLD attack.  Expected shape: validation
*amplifies* the attack against vanilla DNS (failures go up), while the
combination scheme holds both variants near its usual floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import ResilienceConfig
from repro.experiments.harness import AttackSpec, run_replay
from repro.experiments.sweep import Grid, Table, coord, percent
from repro.hierarchy.builder import HierarchyConfig, build_hierarchy
from repro.workload.generator import TraceGenerator, WorkloadConfig

DAY = 86400.0
HOUR = 3600.0


@dataclass(frozen=True)
class DnssecSpec:
    """Declarative DNSSEC-experiment request (the registry's spec)."""

    seed: int = 5
    attack_hours: float = 6.0
    hierarchy: HierarchyConfig | None = field(
        default=None, metadata={"cli": False}
    )
    workload: WorkloadConfig | None = field(
        default=None, metadata={"cli": False}
    )


def run(spec: DnssecSpec) -> Grid:
    """Vanilla vs combination, validation off vs on, signed hierarchy.

    The hierarchy is private to this experiment, so the replays run
    in-process rather than through the scenario-keyed batch runner.
    """
    hierarchy_config = spec.hierarchy or HierarchyConfig(
        num_tlds=8, num_slds=150, num_providers=3, dnssec_fraction=1.0
    )
    if hierarchy_config.dnssec_fraction <= 0.0:
        raise ValueError("the DNSSEC experiment needs a signed hierarchy")
    workload_config = spec.workload or WorkloadConfig(
        duration_days=7.0, queries_per_day=2_500, num_clients=60
    )
    built = build_hierarchy(hierarchy_config, seed=spec.seed)
    trace = TraceGenerator(built.catalog, workload_config,
                           seed=spec.seed).generate("DNSSEC", stream=2)
    attack = AttackSpec(start=6 * DAY, duration=spec.attack_hours * HOUR)

    schemes = [
        ResilienceConfig.vanilla(),
        ResilienceConfig.vanilla().with_validation(),
        ResilienceConfig.refresh().with_validation(),
        ResilienceConfig.combination(),
        ResilienceConfig.combination().with_validation(),
    ]
    grid = Grid(
        axes={"scheme": tuple(config.label for config in schemes)},
        cells=tuple(
            run_replay(built, trace, config, attack=attack,
                       seed=spec.seed).to_summary()
            for config in schemes
        ),
    )
    return grid.tabulate(Table(
        "DNSSEC extension (paper §6) — fully signed hierarchy, "
        "6 h root+TLD attack",
        rows=("scheme",),
        columns=(
            ("Scheme", coord("scheme")),
            ("SR failures (attack)", percent("sr_attack_failure_rate")),
            ("Validation failures", lambda g: g.one.sr_validation_failures),
            ("CS failures (attack)", percent("cs_attack_failure_rate")),
        ),
    ))
