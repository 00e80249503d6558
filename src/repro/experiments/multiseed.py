"""Multi-seed replication: means and spreads instead of single numbers.

Single-replay cells can be noisy — a handful of unlucky zones lapsing
inside the attack window moves a percentage point or two (and the CS
ratio much more, since its denominator shrinks as caching improves).
This runner replays the same (trace, scheme, attack) under several
resolver seeds and reports mean ± sample standard deviation, the honest
form of every headline number.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import ResilienceConfig
from repro.experiments.harness import AttackSpec
from repro.experiments.parallel import ReplaySpec
from repro.experiments.registry import resolve_scale
from repro.experiments.scenarios import Scale, make_scenario
from repro.experiments.sweep import Grid, Sweep, Table, coord, format_spread

HOUR = 3600.0

DEFAULT_SCHEMES = (
    ResilienceConfig.vanilla(),
    ResilienceConfig.refresh(),
    ResilienceConfig.refresh_renew("a-lfu", 5),
    ResilienceConfig.combination(),
)


@dataclass(frozen=True)
class MultiSeedSpec:
    """Declarative multi-seed replication request (the registry's spec)."""

    scale: Scale | None = None
    seed: int = 7
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    trace_name: str = "TRC1"
    attack_hours: float = 6.0


def run(spec: MultiSeedSpec) -> Grid:
    """Replay one trace per scheme across several resolver seeds.

    Raises:
        ValueError: when ``seeds`` is empty.
    """
    scenario = make_scenario(resolve_scale(spec.scale), seed=spec.seed)
    attack = AttackSpec(start=scenario.attack_start,
                        duration=spec.attack_hours * HOUR)
    configs = {config.label: config for config in DEFAULT_SCHEMES}
    grid = Sweep(
        {"scheme": tuple(configs), "seed": spec.seeds},
        lambda scheme, seed: ReplaySpec.for_scenario(
            scenario, spec.trace_name, configs[scheme], attack=attack,
            seed=seed,
        ),
    ).run()
    return grid.tabulate(Table(
        f"Multi-seed replication over seeds {list(spec.seeds)} "
        "(6 h root+TLD attack)",
        rows=("scheme",),
        columns=(
            ("Scheme", coord("scheme")),
            ("SR failures (mean ± std)",
             lambda g: format_spread(g.values("sr_attack_failure_rate"))),
            ("CS failures (mean ± std)",
             lambda g: format_spread(g.values("cs_attack_failure_rate"))),
        ),
    ))
