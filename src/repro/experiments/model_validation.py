"""Validate the analytical IRR-availability model against the simulator.

For each scheme: replay a trace with no attack, measure each zone's
demand contact rate (``CachingServer.zone_contact_counts``), feed those
rates into the closed-form model of :mod:`repro.analysis.model`, and
compare the predicted number of zones with live IRRs at the attack
instant (start of day 7) against the simulator's actual count.

The model is a steady-state Poisson approximation, so agreement within
tens of percent — and correct *ordering* across schemes — is the success
criterion, not exactness.
"""

from __future__ import annotations

from repro.analysis.model import SchemeModel, predict_cached_zone_count
from repro.core.config import ResilienceConfig
from repro.dns.name import Name
from repro.experiments.harness import run_replay
from repro.experiments.scenarios import Scenario
from repro.experiments.sweep import Grid, Table, coord

DAY = 86400.0


def relative_error(cell: dict[str, float]) -> float:
    """|predicted - measured| / measured for one scheme's cell."""
    predicted, measured = cell["predicted"], cell["measured"]
    if measured == 0:
        return float("inf") if predicted > 0 else 0.0
    return abs(predicted - measured) / measured


_SCHEMES: tuple[tuple[ResilienceConfig, SchemeModel], ...] = (
    (ResilienceConfig.vanilla(), SchemeModel("vanilla", "vanilla")),
    (ResilienceConfig.refresh(), SchemeModel("refresh", "refresh")),
    (
        ResilienceConfig.refresh_renew("lru", 3),
        SchemeModel("refresh+lru3", "renewal", credit=3),
    ),
    (
        ResilienceConfig.refresh_long_ttl(3),
        SchemeModel("refresh+ttl3d", "refresh", ttl_override=3 * DAY),
    ),
)


def model_validation(
    scenario: Scenario,
    trace_name: str = "TRC1",
    instant: float | None = None,
    seed: int = 0,
) -> Grid:
    """Model-vs-simulation comparison at ``instant`` (default day 6).

    The measurement reads the live server's ``zone_contact_counts``, so
    the replays run in-process; cells are ``{"predicted", "measured"}``
    dicts, one per scheme.
    """
    trace = scenario.trace(trace_name)
    probe_time = 6 * DAY if instant is None else instant
    irr_ttls: dict[Name, float] = {
        zone.name: zone.infrastructure_records.ns.ttl
        for zone in scenario.built.tree.zones()
    }
    cells = []
    for config, model in _SCHEMES:
        # Sample cache occupancy during the replay so the measurement is
        # a true snapshot at the probe instant (the end-state cache would
        # leak post-probe refreshes into the count).
        result = run_replay(
            scenario.built, trace, config, seed=seed,
            memory_sample_interval=probe_time / 8,
        )
        server = result.server
        # Rates over the whole trace (the process is ~stationary, so the
        # full-window average is the cleanest λ estimate).
        contact_rates = {
            zone: count / trace.duration
            for zone, count in server.zone_contact_counts.items()
            if not zone.is_root
        }
        # Long-TTL runs override TTLs at the authority; mirror it here.
        ttls = irr_ttls
        if config.long_ttl is not None:
            ttls = {zone: config.long_ttl for zone in irr_ttls}
        predicted = predict_cached_zone_count(model, contact_rates, ttls)
        probe_sample = min(
            result.metrics.memory_samples,
            key=lambda sample: abs(sample.time - probe_time),
        )
        cells.append({"predicted": predicted,
                      "measured": probe_sample.zones_cached})
    grid = Grid(axes={"scheme": tuple(model.name for _, model in _SCHEMES)},
                cells=tuple(cells))
    return grid.tabulate(Table(
        "Analytical model vs simulation — zones with live IRRs at "
        "the attack instant (day 7)",
        rows=("scheme",),
        columns=(
            ("Scheme", coord("scheme")),
            ("Model: E[zones cached]", lambda g: f"{g.one['predicted']:.1f}"),
            ("Simulated", lambda g: g.one["measured"]),
            ("Rel. error", lambda g: f"{relative_error(g.one) * 100:.0f} %"),
        ),
    ))
