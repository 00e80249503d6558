"""Response-time analysis (paper §4, Long TTL benefits).

"this modification reduces overall DNS traffic and improves DNS query
response time since costly walks of the DNS tree are avoided."

For each scheme this replays a trace (no attack) and reports the mean
per-lookup network wait, the stub cache-hit rate, and the average number
of CS queries per stub lookup — the three quantities that explain each
other: fewer tree walks ⇒ fewer round trips ⇒ lower latency.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import ResilienceConfig
from repro.experiments.parallel import ReplaySpec
from repro.experiments.registry import resolve_scale
from repro.experiments.scenarios import Scale, make_scenario
from repro.experiments.sweep import Grid, Sweep, Table, coord, per_stub

DEFAULT_SCHEMES = {
    "vanilla": ResilienceConfig.vanilla(),
    "refresh": ResilienceConfig.refresh(),
    "refresh+a-lfu3": ResilienceConfig.refresh_renew("a-lfu", 3),
    "refresh+ttl7d": ResilienceConfig.refresh_long_ttl(7),
    "combination": ResilienceConfig.combination(),
}


@dataclass(frozen=True)
class LatencySpec:
    """Declarative latency-experiment request (the registry's spec)."""

    scale: Scale | None = None
    seed: int = 7
    trace_name: str = "TRC1"


def run(spec: LatencySpec) -> Grid:
    """Mean response time per scheme over a full no-attack replay."""
    scenario = make_scenario(resolve_scale(spec.scale), seed=spec.seed)
    grid = Sweep(
        {"scheme": tuple(DEFAULT_SCHEMES)},
        lambda scheme: ReplaySpec.for_scenario(
            scenario, spec.trace_name, DEFAULT_SCHEMES[scheme]
        ),
    ).run()
    return grid.tabulate(Table(
        "Response time — normal operation (no attack)",
        rows=("scheme",),
        columns=(
            ("Scheme", coord("scheme")),
            ("Mean wait / lookup", lambda g: f"{g.one.mean_latency * 1000:.1f} ms"),
            ("SR cache hits",
             lambda g: f"{per_stub(g, 'sr_cache_hits') * 100:.1f} %"),
            ("CS queries / lookup",
             lambda g: f"{per_stub(g, 'cs_demand_queries'):.3f}"),
        ),
    ))
