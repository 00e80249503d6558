"""Fleet replay: several caching servers over one shared virtual time.

The paper's Table 1 lists six caching servers from five organisations;
its §6 maximum-damage discussion defines damage "across all caching
servers (or stub-resolvers)".  :func:`run_fleet_replay` models exactly
that: one engine, one network, one attack — many independent resolvers,
each replaying its own organisation's trace.

:func:`summarize_fleet` reduces the members to a
:class:`~repro.experiments.summary.FleetSummary`, which exposes both
per-organisation and aggregate failure rates, so fleet-level questions
("how many lookups did the Internet lose?") have a first-class answer.
"""

from __future__ import annotations

import heapq
from typing import Iterator, Sequence

from repro.core.caching_server import CachingServer
from repro.core.config import ResilienceConfig
from repro.experiments.harness import AttackSpec, ReplayResult
from repro.experiments.parallel import (
    FleetMemberSummary,
    FleetSpec,
    FleetSummary,
    run_replays,
)
from repro.experiments.scenarios import Scenario
from repro.hierarchy.builder import BuiltHierarchy
from repro.simulation.engine import SimulationEngine
from repro.simulation.metrics import ReplayMetrics
from repro.simulation.network import Network
from repro.workload.trace import Trace, TraceQuery


def summarize_fleet(members: Sequence[ReplayResult]) -> FleetSummary:
    """The picklable :class:`FleetSummary` of one fleet replay."""
    return FleetSummary(
        label=members[0].label,
        members=[
            FleetMemberSummary(
                trace_name=member.trace_name,
                sr_queries=member.metrics.sr_queries,
                window=member.window,
            )
            for member in members
        ],
    )


def run_fleet_replay(
    built: BuiltHierarchy,
    traces: list[Trace],
    config: ResilienceConfig,
    attack: AttackSpec | None = None,
    seed: int = 0,
) -> list[ReplayResult]:
    """Replay each trace through its own caching server, time-interleaved.

    All servers share the engine (so renewal timers and trace queries
    interleave correctly), the network, and the attack schedule; caches
    and metrics are private per server, exactly like independent
    organisations.  Returns one live result per member, in trace order.
    """
    if not traces:
        raise ValueError("a fleet needs at least one trace")
    tree = built.tree
    saved_state = None
    if config.long_ttl is not None:
        saved_state = tree.capture_irr_state()
        tree.apply_long_ttl(config.long_ttl)
    try:
        return _run(built, traces, config, attack, seed)
    finally:
        if saved_state is not None:
            tree.restore_irr_state(saved_state)


def _run(
    built: BuiltHierarchy,
    traces: list[Trace],
    config: ResilienceConfig,
    attack: AttackSpec | None,
    seed: int,
) -> list[ReplayResult]:
    engine = SimulationEngine()
    schedule = attack.build_schedule(built) if attack is not None else None
    network = Network(built.tree, attacks=schedule)

    members: list[ReplayResult] = []
    for index, trace in enumerate(traces):
        metrics = ReplayMetrics()
        window = None
        if attack is not None:
            window = metrics.watch_window(attack.start, attack.end)
        server = CachingServer(
            root_hints=built.tree.root_hints(),
            network=network,
            clock=engine,
            config=config,
            metrics=metrics,
            seed=seed + index,
        )
        members.append(ReplayResult(
            label=config.label, trace_name=trace.name, metrics=metrics,
            window=window, gap_tracker=None, server=server,
        ))

    # Interleave all traces by timestamp; each query goes to its owner.
    def tagged(
        index: int, trace: Trace
    ) -> Iterator[tuple[float, int, TraceQuery]]:
        for query in trace:
            yield (query.time, index, query)

    streams = [tagged(index, trace) for index, trace in enumerate(traces)]
    for time, index, query in heapq.merge(*streams):
        engine.advance_to(time)
        members[index].server.handle_stub_query(query.qname, query.rrtype,
                                                time)
    engine.advance_to(max(trace.duration for trace in traces))

    return members


def fleet_attack_comparison(
    scenario: Scenario,
    schemes: list[ResilienceConfig] | None = None,
    attack_hours: float = 6.0,
    trace_limit: int | None = None,
    seed: int = 0,
    workers: int | None = None,
) -> dict[str, FleetSummary]:
    """The standard fleet experiment: all organisations, per scheme.

    Each scheme's fleet replay is one job on the batch runner (a fleet
    shares an engine internally, so it cannot be split further); with
    several workers the schemes run concurrently.
    """
    schemes = schemes or [
        ResilienceConfig.vanilla(),
        ResilienceConfig.refresh(),
        ResilienceConfig.combination(),
    ]
    trace_names = scenario.week_trace_names(trace_limit)
    attack = AttackSpec(start=scenario.attack_start,
                        duration=attack_hours * 3600.0)
    specs = [
        FleetSpec.for_scenario(scenario, trace_names, config, attack=attack,
                               seed=seed)
        for config in schemes
    ]
    summaries = run_replays(specs, workers=workers)
    return {
        summary.label: summary for summary in summaries
    }
