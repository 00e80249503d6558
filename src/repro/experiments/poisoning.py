"""Cache-poisoning sweep: injection rate × scheme, dwell-time CDFs.

An off-path forger races honest answers at the resolver's network edge
(DESIGN.md §16): each upstream A-query gives it one BLAKE2b-keyed
chance to substitute a forged authoritative answer.  What happens next
is decided by the machinery this repo already models — RFC 2181
credibility ranking decides what the forgery may displace, and the TTL
policy under test decides how long a stuck forgery survives.  This
experiment sweeps the injection rate (columns) against the scheme
ladder, pairing every scheme with a *guarded* variant (hardened
ranking + source-port entropy + IRR eviction protection), and reports
per cell how many forgeries stuck and the dwell-time distribution —
how long poisoned data stayed servable before cure, expiry or
eviction.

Long-TTL schemes are the interesting rows: the paper's resilience
mechanism (stretching TTLs) is exactly what stretches poison dwell
times, and the guard columns quantify how much of that risk the
ranking defenses claw back.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.config import ResilienceConfig
from repro.core.schemes import parse_scheme
from repro.experiments.parallel import ReplaySpec
from repro.experiments.registry import resolve_scale
from repro.experiments.scenarios import Scale, make_scenario
from repro.experiments.summary import ReplaySummary
from repro.experiments.sweep import Grid, Sweep, Table, coord, percentile, pivot
from repro.simulation.adversary import AdversarySpec, PoisonAttackSpec


@dataclass(frozen=True)
class PoisoningSpec:
    """Declarative poisoning-sweep request (the registry's spec)."""

    scale: Scale | None = None
    seed: int = 7
    schemes: str = "vanilla,long-ttl:7"
    """Comma-separated scheme ladder; each scheme also gets a guarded
    row (hardened ranking + entropy + IRR protection)."""

    trace_name: str = "TRC1"
    rates: tuple[float, ...] = (0.01, 0.05, 0.2)
    """Forgery attempt probabilities per upstream query, swept as
    columns."""

    success: float = 0.5
    """Race-win probability per attempt (before the entropy discount)."""

    ttl: float = 3600.0
    """TTL carried by forged records."""

    entropy_bits: int = 16
    """Source-entropy bits the guarded rows add; each bit halves the
    forger's race odds (20 bits ~ random port + ID)."""


def _fmt_secs(seconds: float) -> str:
    if seconds >= 3600.0:
        return f"{seconds / 3600.0:.1f}h"
    if seconds >= 60.0:
        return f"{seconds / 60.0:.0f}m"
    return f"{seconds:.0f}s"


def _guarded(base: ResilienceConfig, entropy_bits: int) -> ResilienceConfig:
    """The hardened variant of ``base``: ranking + entropy + IRR guard."""
    return replace(
        base,
        harden_ranking=True,
        source_entropy_bits=entropy_bits,
        protect_irrs=True,
        label=f"{base.label}+guard",
    )


def run(spec: PoisoningSpec) -> Grid:
    """Registry entry point: sweep injection rate × scheme (+guard).

    Raises:
        ValueError: when either sweep axis is empty, a rate falls
            outside (0, 1], or ``entropy_bits`` is negative.
    """
    scheme_names = [
        name.strip() for name in spec.schemes.split(",") if name.strip()
    ]
    for rate in spec.rates:
        if not 0.0 < rate <= 1.0:
            raise ValueError(f"injection rate must be in (0, 1], got {rate}")
    if spec.entropy_bits < 0:
        raise ValueError("entropy_bits must be >= 0")
    scenario = make_scenario(resolve_scale(spec.scale), seed=spec.seed)
    configs: dict[str, ResilienceConfig] = {}
    for name in scheme_names:
        base = parse_scheme(name)
        for config in (base, _guarded(base, spec.entropy_bits)):
            configs[config.label] = config
    grid = Sweep(
        {"scheme": tuple(configs), "rate": spec.rates},
        lambda scheme, rate: ReplaySpec.for_scenario(
            scenario,
            spec.trace_name,
            configs[scheme],
            seed=spec.seed,
            adversary=AdversarySpec(
                poison=PoisonAttackSpec(
                    rate=rate, success=spec.success, ttl=spec.ttl,
                )
            ),
        ),
    ).run()
    return grid.tabulate(Table(
        "Poisoned entries stored / dwell time before cure",
        rows=("scheme",),
        columns=[
            ("Scheme", coord("scheme")),
            *pivot("rate", spec.rates, lambda rate: f"rate={rate:g}",
                   _dwell_cell),
        ],
    ))


def _dwell_cell(summary: ReplaySummary) -> str:
    """``'N stuck'`` plus the p50/p90 dwell times when any forgery stuck."""
    stuck = f"{summary.poison_stored} stuck"
    dwells = summary.poison_dwells
    if not dwells:
        return stuck
    return (
        f"{stuck} p50={_fmt_secs(percentile(dwells, 0.50))}"
        f" p90={_fmt_secs(percentile(dwells, 0.90))}"
    )
