"""Graceful-degradation sweep: attack intensity × retry policy.

The paper's attack model is binary — a targeted server answers nothing
for the whole window.  Real DDoS events are messier: congestion drops
*some* fraction of queries, and resolver-side retransmit policy decides
how much of that loss the stub resolvers ever see.  This experiment
sweeps the fault-injection layer's per-query attack ``intensity``
(DESIGN.md §11) against a ladder of :class:`~repro.core.config.
RetryPolicy` aggressiveness and reports, per policy, the *knee*: the
smallest intensity whose attack-window SR failure rate exceeds a
threshold.  A scheme degrades gracefully when its knee sits near 1.0
(only a near-blackout hurts) and sharply when a modest loss rate
already pushes user-visible failures past the threshold.

All cells are independent replays and fan out through the batch runner
(``$REPRO_WORKERS``); the hash-keyed fault draws keep every cell
byte-identical at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import ResilienceConfig, RetryPolicy
from repro.core.schemes import parse_scheme
from repro.experiments.harness import AttackSpec
from repro.experiments.parallel import ReplaySpec
from repro.experiments.registry import resolve_scale
from repro.experiments.scenarios import Scale, make_scenario
from repro.experiments.sweep import Grid, Sweep, Table, coord, knee, pivot
from repro.simulation.faults import FaultSpec

HOUR = 3600.0


@dataclass(frozen=True)
class DegradationSpec:
    """Declarative degradation-sweep request (the registry's spec)."""

    scale: Scale | None = None
    seed: int = 7
    scheme: str = "refresh"
    trace_name: str = "TRC1"
    attack_hours: float = 6.0
    intensities: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 0.9, 1.0)
    """Attack drop probabilities swept as columns (1.0 = blackout)."""

    retry_tries: tuple[int, ...] = (1, 2, 3)
    """``max_tries`` per policy row; 0 means no retry policy (baseline)."""

    loss: float = 0.0
    """Background packet loss applied everywhere, attack or not."""

    holddown: float = 900.0
    """Dead-server hold-down seconds for the retry rows; <= 0 disables."""

    knee_threshold: float = 0.05
    """SR failure rate a cell must exceed to count as degraded."""

    fetch_budget: int = 0
    """Per-query upstream fetch budget (DESIGN.md §16); 0 = unlimited."""

    nxns_cap: int = 0
    """Per-zone-visit NS sub-resolution cap (DESIGN.md §16); 0 = off."""


def _policy_config(
    base: ResilienceConfig, tries: int, holddown: float
) -> ResilienceConfig:
    """The config for one policy row: ``tries`` == 0 keeps the baseline."""
    if tries <= 0:
        return base.with_label(f"{base.label}+noretry")
    policy = RetryPolicy(
        max_tries=tries,
        holddown=holddown if holddown > 0.0 else None,
    )
    return base.with_retries(policy)


def run(spec: DegradationSpec) -> Grid:
    """Registry entry point: sweep intensity × retry policy.

    Raises:
        ValueError: when either sweep axis is empty, or an intensity
            falls outside [0, 1].
    """
    for intensity in spec.intensities:
        if not 0.0 <= intensity <= 1.0:
            raise ValueError(
                f"attack intensity must be in [0, 1], got {intensity}"
            )
    scenario = make_scenario(resolve_scale(spec.scale), seed=spec.seed)
    base = parse_scheme(spec.scheme)
    if spec.fetch_budget > 0 or spec.nxns_cap > 0:
        base = base.with_defenses(
            fetch_budget=spec.fetch_budget if spec.fetch_budget > 0 else None,
            nxns_cap=spec.nxns_cap if spec.nxns_cap > 0 else None,
        )
    faults = FaultSpec(background_loss=spec.loss) if spec.loss > 0.0 else None
    configs = {
        config.label: config
        for config in (_policy_config(base, tries, spec.holddown)
                       for tries in spec.retry_tries)
    }
    grid = Sweep(
        {"policy": tuple(configs), "intensity": spec.intensities},
        lambda policy, intensity: ReplaySpec.for_scenario(
            scenario,
            spec.trace_name,
            configs[policy],
            attack=AttackSpec(
                start=scenario.attack_start,
                duration=spec.attack_hours * HOUR,
                intensity=intensity,
            ),
            faults=faults,
        ),
    ).run()

    def knee_label(group: Grid) -> str:
        value = knee(group, "intensity", spec.knee_threshold)
        return "-" if value is None else f"{value:g}"

    return grid.tabulate(Table(
        f"SR failure rate vs attack intensity ({spec.scheme}; "
        f"knee = first intensity > {spec.knee_threshold * 100:g}%)",
        rows=("policy",),
        columns=[
            ("Policy", coord("policy")),
            *pivot("intensity", spec.intensities, lambda i: f"i={i:g}",
                   lambda cell: f"{cell.sr_attack_failure_rate * 100:.2f}%"),
            ("knee", knee_label),
        ],
    ))
