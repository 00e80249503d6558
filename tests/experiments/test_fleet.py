"""Tests for the fleet replay (multiple caching servers, shared time)."""

import pytest

from repro.core.config import ResilienceConfig
from repro.experiments.fleet import (
    fleet_attack_comparison,
    run_fleet_replay,
    summarize_fleet,
)
from repro.experiments.harness import AttackSpec, run_replay
from repro.experiments.scenarios import Scale, make_scenario


@pytest.fixture(scope="module")
def scenario():
    return make_scenario(Scale.TINY)


class TestFleetReplay:
    def test_every_member_replayed_fully(self, scenario):
        traces = scenario.week_traces(3)
        result = run_fleet_replay(scenario.built, traces,
                                  ResilienceConfig.vanilla())
        assert len(result) == 3
        for trace, member in zip(traces, result):
            assert member.metrics.sr_queries == len(trace)

    def test_caches_are_independent(self, scenario):
        traces = scenario.week_traces(2)
        result = run_fleet_replay(scenario.built, traces,
                                  ResilienceConfig.vanilla())
        first, second = (member.server for member in result)
        assert first is not second
        assert first.cache is not second.cache

    def test_aggregate_matches_members(self, scenario):
        traces = scenario.week_traces(2)
        result = run_fleet_replay(
            scenario.built, traces, ResilienceConfig.vanilla(),
            attack=AttackSpec(),
        )
        total_queries = sum(m.window.sr_queries for m in result)
        total_failures = sum(m.window.sr_failures for m in result)
        summary = summarize_fleet(result)
        assert summary.total_failed_lookups() == total_failures
        assert summary.aggregate_sr_failure_rate() == pytest.approx(
            total_failures / total_queries
        )

    def test_fleet_member_close_to_solo_replay(self, scenario):
        # A fleet member and a solo replay of the same trace see the
        # same attack; failure rates should be in the same ballpark
        # (not identical: per-member seeds differ by design).
        trace = scenario.trace("TRC1")
        solo = run_replay(scenario.built, trace, ResilienceConfig.vanilla(),
                          attack=AttackSpec(), seed=0)
        fleet = run_fleet_replay(
            scenario.built, [trace], ResilienceConfig.vanilla(),
            attack=AttackSpec(), seed=0,
        )
        assert fleet[0].sr_attack_failure_rate == pytest.approx(
            solo.sr_attack_failure_rate, abs=0.05
        )

    def test_empty_fleet_rejected(self, scenario):
        with pytest.raises(ValueError):
            run_fleet_replay(scenario.built, [], ResilienceConfig.vanilla())

    def test_long_ttl_restored(self, scenario):
        tree = scenario.built.tree
        sld = next(z for z in tree.zones() if z.name.depth() == 2)
        before = sld.infrastructure_records.ns.ttl
        run_fleet_replay(
            scenario.built, scenario.week_traces(1),
            ResilienceConfig.refresh_long_ttl(7),
        )
        assert sld.infrastructure_records.ns.ttl == before

    def test_unknown_member(self, scenario):
        result = run_fleet_replay(scenario.built, scenario.week_traces(1),
                                  ResilienceConfig.vanilla())
        with pytest.raises(KeyError):
            summarize_fleet(result).member("TRC9")

    def test_render(self, scenario):
        result = run_fleet_replay(
            scenario.built, scenario.week_traces(2),
            ResilienceConfig.vanilla(), attack=AttackSpec(),
        )
        text = summarize_fleet(result).render()
        assert "fleet" in text and "TRC1" in text


class TestFleetComparison:
    def test_schemes_ordered(self, scenario):
        results = fleet_attack_comparison(scenario, trace_limit=2)
        vanilla = results["vanilla"].aggregate_sr_failure_rate()
        combo = results["combo+a-lfu3+ttl3d"].aggregate_sr_failure_rate()
        assert combo < vanilla
