"""Tests for multi-seed replication, traffic bytes and failure blame."""

import pytest

from repro.core.config import ResilienceConfig
from repro.dns.name import root_name
from repro.experiments.harness import AttackSpec, run_replay
from repro.experiments.multiseed import MultiSeedSpec, run
from repro.experiments.scenarios import Scale, make_scenario
from repro.experiments.sweep import format_spread, mean_std


@pytest.fixture(scope="module")
def scenario():
    return make_scenario(Scale.TINY)


class TestSeedStatistics:
    def test_mean_and_std(self):
        mean, std = mean_std([0.1, 0.2, 0.3])
        assert mean == pytest.approx(0.2)
        assert std == pytest.approx(0.1)

    def test_single_sample(self):
        assert mean_std([0.5]) == (0.5, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_std([])

    def test_str_is_percent(self):
        assert format_spread([0.1, 0.2]) == "15.00 ± 7.07 %"


class TestMultiSeed:
    @pytest.fixture(scope="class")
    def result(self):
        return run(MultiSeedSpec(scale=Scale.TINY, seeds=(0, 1, 2)))

    def test_scheme_ordering_holds_in_means(self, result):
        def mean(scheme):
            return result.where(scheme=scheme).mean("sr_attack_failure_rate")

        assert mean("combo+a-lfu3+ttl3d") < mean("vanilla")

    def test_spread_is_bounded(self, result):
        # Seeds only change server-rotation/jitter choices, so the seed
        # spread should stay within a few percentage points.
        for scheme in result.axes["scheme"]:
            _, std = mean_std(
                result.where(scheme=scheme).values("sr_attack_failure_rate")
            )
            assert std < 0.08, scheme

    def test_render(self, result):
        assert "Multi-seed" in result.render()

    def test_requires_seeds(self):
        with pytest.raises(ValueError):
            run(MultiSeedSpec(seeds=()))


class TestTrafficBytes:
    def test_bytes_counted_per_replay(self, scenario):
        result = run_replay(scenario.built, scenario.trace("TRC1"),
                            ResilienceConfig.vanilla())
        metrics = result.metrics
        assert metrics.bytes_out > 0
        assert metrics.bytes_in > metrics.bytes_out  # answers are bigger
        assert metrics.total_bytes == metrics.bytes_out + metrics.bytes_in

    def test_byte_overhead_tracks_message_overhead_sign(self, scenario):
        trace = scenario.trace("TRC1")
        baseline = run_replay(scenario.built, trace, ResilienceConfig.vanilla())
        long_ttl = run_replay(scenario.built, trace,
                              ResilienceConfig.refresh_long_ttl(7))
        assert long_ttl.metrics.byte_overhead_vs(baseline.metrics) < 0.0

    def test_empty_baseline_reads_as_zero_overhead(self):
        from repro.simulation.metrics import ReplayMetrics
        assert ReplayMetrics().byte_overhead_vs(ReplayMetrics()) == 0.0


class TestFailureBlame:
    def test_attack_blames_root_and_tlds(self, scenario):
        result = run_replay(
            scenario.built, scenario.trace("TRC1"),
            ResilienceConfig.vanilla(), attack=AttackSpec(),
        )
        blamed = dict(result.server.top_blamed_zones(50))
        assert blamed, "no blame recorded despite attack failures"
        tlds = set(scenario.built.tree.tld_names())
        blamed_infra = sum(
            count for zone, count in blamed.items()
            if zone in tlds or zone == root_name()
        )
        assert blamed_infra / sum(blamed.values()) > 0.9

    def test_no_blame_without_attack(self, scenario):
        result = run_replay(scenario.built, scenario.trace("TRC1"),
                            ResilienceConfig.vanilla())
        assert result.server.failure_blame == {}

    def test_top_blamed_is_sorted(self, scenario):
        result = run_replay(
            scenario.built, scenario.trace("TRC1"),
            ResilienceConfig.vanilla(), attack=AttackSpec(),
        )
        top = result.server.top_blamed_zones(5)
        counts = [count for _, count in top]
        assert counts == sorted(counts, reverse=True)
