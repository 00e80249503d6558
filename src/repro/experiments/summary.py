"""The shared replay summary: one dataclass, both runners.

Historically the serial runner returned :class:`~repro.experiments.
harness.ReplayResult` (live objects) while the parallel runner returned
a separate ``ReplaySummary`` with re-implemented accessors.  This module
is the single home of the summary shape: results adapt into it via
``ReplayResult.to_summary()`` / :meth:`ReplaySummary.from_result`, and
the attack-window failure-rate properties both shapes need live in one
mixin.  ``repro.api`` re-exports everything here as the stable surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol

from repro.analysis.gaps import GapSample
from repro.analysis.report import format_percent, format_table
from repro.simulation.metrics import MemorySample, WindowCounters

if TYPE_CHECKING:
    from repro.experiments.harness import ReplayResult


class OverheadComparable(Protocol):
    """Anything the overhead tables can baseline against.

    Satisfied by both :class:`~repro.simulation.metrics.ReplayMetrics`
    and :class:`ReplaySummary`, so tables treat them interchangeably.
    """

    @property
    def total_outgoing(self) -> int: ...

    @property
    def total_bytes(self) -> int: ...


class AttackWindowRates:
    """Attack-window failure rates for anything carrying ``window``."""

    window: "WindowCounters | None"

    @property
    def sr_attack_failure_rate(self) -> float:
        """SR failure fraction during the attack (0 without an attack)."""
        if self.window is None:
            return 0.0
        return self.window.sr_failure_rate

    @property
    def cs_attack_failure_rate(self) -> float:
        """CS failure fraction during the attack (0 without an attack)."""
        if self.window is None:
            return 0.0
        return self.window.cs_failure_rate


@dataclass(frozen=True)
class ReplaySummary(AttackWindowRates):
    """The picklable extract of one :class:`ReplayResult`.

    Carries every number the figures/tables consume; mirrors the metric
    accessors of :class:`~repro.simulation.metrics.ReplayMetrics` so the
    overhead tables can treat summaries and metrics interchangeably.
    """

    # Returned from worker processes by pickle; `repro audit` (REP012)
    # walks every transitively reachable field type for picklability.
    # repro: pickled-boundary

    label: str
    trace_name: str

    sr_queries: int
    sr_failures: int
    sr_cache_hits: int
    sr_nxdomain: int
    sr_validation_failures: int

    cs_demand_queries: int
    cs_demand_failures: int
    cs_renewal_queries: int
    cs_renewal_failures: int

    total_latency: float
    bytes_out: int
    bytes_in: int

    window: "WindowCounters | None" = None
    gap_samples: tuple[GapSample, ...] = ()
    memory_samples: tuple[MemorySample, ...] = ()
    event_count: int = 0
    """Observability events emitted during the replay (0 when the run
    was unobserved)."""

    # Adversary / defense accounting (all zero without an AdversarySpec;
    # mirrors the counters on ReplayMetrics so the attack experiments can
    # run through the parallel runner).
    attack_stub_queries: int = 0
    attack_cs_queries: int = 0
    attack_failures: int = 0
    flash_queries: int = 0
    budget_exhaustions: int = 0
    nxns_capped: int = 0
    poison_attempts: int = 0
    poison_wins: int = 0
    poison_stored: int = 0
    poison_cured: int = 0
    poison_dwells: tuple[float, ...] = ()

    # Renewal 2.0 accounting (zero unless `swr` / `decoupled` is armed).
    sr_stale_hits: int = 0
    swr_refreshes: int = 0
    invalidations: int = 0

    @classmethod
    def from_result(cls, result: "ReplayResult") -> "ReplaySummary":
        """Reduce a full replay result to its picklable summary."""
        metrics = result.metrics
        return cls(
            label=result.label,
            trace_name=result.trace_name,
            sr_queries=metrics.sr_queries,
            sr_failures=metrics.sr_failures,
            sr_cache_hits=metrics.sr_cache_hits,
            sr_nxdomain=metrics.sr_nxdomain,
            sr_validation_failures=metrics.sr_validation_failures,
            cs_demand_queries=metrics.cs_demand_queries,
            cs_demand_failures=metrics.cs_demand_failures,
            cs_renewal_queries=metrics.cs_renewal_queries,
            cs_renewal_failures=metrics.cs_renewal_failures,
            total_latency=metrics.total_latency,
            bytes_out=metrics.bytes_out,
            bytes_in=metrics.bytes_in,
            window=result.window,
            gap_samples=(
                tuple(result.gap_tracker.samples)
                if result.gap_tracker is not None else ()
            ),
            memory_samples=tuple(metrics.memory_samples),
            event_count=result.event_count,
            attack_stub_queries=metrics.attack_stub_queries,
            attack_cs_queries=metrics.attack_cs_queries,
            attack_failures=metrics.attack_failures,
            flash_queries=metrics.flash_queries,
            budget_exhaustions=metrics.budget_exhaustions,
            nxns_capped=metrics.nxns_capped,
            poison_attempts=metrics.poison_attempts,
            poison_wins=metrics.poison_wins,
            poison_stored=metrics.poison_stored,
            poison_cured=metrics.poison_cured,
            poison_dwells=tuple(metrics.poison_dwells),
            sr_stale_hits=metrics.sr_stale_hits,
            swr_refreshes=metrics.swr_refreshes,
            invalidations=metrics.invalidations,
        )

    # -- failure rates ------------------------------------------------------

    @property
    def sr_failure_rate(self) -> float:
        if self.sr_queries == 0:
            return 0.0
        return self.sr_failures / self.sr_queries

    @property
    def cs_failure_rate(self) -> float:
        if self.cs_demand_queries == 0:
            return 0.0
        return self.cs_demand_failures / self.cs_demand_queries

    @property
    def amplification_factor(self) -> float:
        """CS-side queries per injected attack query (the NXNS payoff)."""
        if self.attack_stub_queries == 0:
            return 0.0
        return self.attack_cs_queries / self.attack_stub_queries

    # -- traffic ------------------------------------------------------------

    @property
    def total_outgoing(self) -> int:
        """All CS -> AN messages (demand + renewal): Table 2's currency."""
        return self.cs_demand_queries + self.cs_renewal_queries

    @property
    def upstream_queries(self) -> int:
        """Alias of :attr:`total_outgoing` — the equal-budget currency
        the Renewal 2.0 comparison normalises schemes by."""
        return self.total_outgoing

    @property
    def stale_answer_rate(self) -> float:
        """Fraction of stub answers served from lapsed records."""
        if self.sr_queries == 0:
            return 0.0
        return self.sr_stale_hits / self.sr_queries

    @property
    def total_bytes(self) -> int:
        return self.bytes_out + self.bytes_in

    @property
    def mean_latency(self) -> float:
        if self.sr_queries == 0:
            return 0.0
        return self.total_latency / self.sr_queries

    def message_overhead_vs(self, baseline: OverheadComparable) -> float:
        """Relative change in outgoing messages vs ``baseline`` (summary
        or :class:`ReplayMetrics` — anything with ``total_outgoing``).
        An empty baseline (no messages) reads as zero overhead, matching
        the ``<= 0.0`` convention in ``analysis/``.
        """
        if baseline.total_outgoing <= 0:
            return 0.0
        return (
            (self.total_outgoing - baseline.total_outgoing)
            / baseline.total_outgoing
        )

    def byte_overhead_vs(self, baseline: OverheadComparable) -> float:
        """Relative change in total traffic bytes vs ``baseline``.
        Zero when the baseline moved no bytes."""
        if baseline.total_bytes <= 0:
            return 0.0
        return (self.total_bytes - baseline.total_bytes) / baseline.total_bytes


@dataclass(frozen=True)
class FleetMemberSummary:
    """One organisation's slice of a fleet replay."""

    trace_name: str
    sr_queries: int
    window: "WindowCounters | None" = None


@dataclass
class FleetSummary:
    """Picklable fleet outcome: per-member windows plus aggregates."""

    # repro: pickled-boundary

    label: str
    members: list[FleetMemberSummary] = field(default_factory=list)

    def aggregate_sr_failure_rate(self) -> float:
        """Fleet-wide SR failure fraction inside the attack window."""
        queries = sum(
            member.window.sr_queries for member in self.members
            if member.window is not None
        )
        failures = sum(
            member.window.sr_failures for member in self.members
            if member.window is not None
        )
        if queries == 0:
            return 0.0
        return failures / queries

    def total_failed_lookups(self) -> int:
        """The §6 damage currency: failed lookups across the fleet."""
        return sum(
            member.window.sr_failures for member in self.members
            if member.window is not None
        )

    def member(self, trace_name: str) -> FleetMemberSummary:
        for entry in self.members:
            if entry.trace_name == trace_name:
                return entry
        raise KeyError(trace_name)

    def render(self) -> str:
        """One row per organisation plus the fleet-wide aggregate row."""
        body = [
            (
                member.trace_name,
                member.sr_queries,
                format_percent(member.window.sr_failure_rate)
                if member.window else "-",
                format_percent(member.window.cs_failure_rate)
                if member.window else "-",
            )
            for member in self.members
        ]
        body.append((
            "fleet",
            sum(member.sr_queries for member in self.members),
            format_percent(self.aggregate_sr_failure_rate()),
            "-",
        ))
        return format_table(
            ("Organisation", "Lookups", "SR failures (attack)",
             "CS failures (attack)"),
            body,
            title=f"Fleet replay — scheme: {self.label}",
        )


def summarize_replay(result: "ReplayResult") -> ReplaySummary:
    """Reduce a full replay result to its picklable summary."""
    return ReplaySummary.from_result(result)
