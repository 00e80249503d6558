"""Tests for the churn and response-time experiments."""

import pytest

from repro.experiments import churn, latency
from repro.experiments.churn import ChurnSpec, obsolete_hits
from repro.experiments.latency import LatencySpec
from repro.experiments.scenarios import Scale, make_scenario
from repro.experiments.sweep import per_stub
from repro.hierarchy.builder import HierarchyConfig
from repro.workload.generator import WorkloadConfig


@pytest.fixture(scope="module")
def churn_result():
    return churn.run(ChurnSpec(
        hierarchy=HierarchyConfig(num_tlds=6, num_slds=80, num_providers=2),
        workload=WorkloadConfig(duration_days=7.0, queries_per_day=1_500,
                                num_clients=40),
        churn_fraction=0.3,
    ))


class TestChurnExperiment:
    def test_availability_unharmed_by_churn(self, churn_result):
        # Paper §4: the long-TTL downside is latency, not correctness —
        # the parent fallback resets obsolete IRRs.
        for row in churn_result.cells:
            assert row.metrics.sr_failure_rate < 0.005, row.label

    def test_longer_ttls_touch_more_obsolete_servers(self, churn_result):
        vanilla = obsolete_hits(churn_result.cell(scheme="vanilla"))
        seven = obsolete_hits(churn_result.cell(scheme="refresh+ttl7d"))
        assert seven >= vanilla

    def test_decoupled_beats_long_ttl_on_staleness(self, churn_result):
        # Same long TTLs, but the invalidation channel evicts obsolete
        # IRRs the instant a zone migrates: fewer obsolete-server
        # touches at no availability cost (DESIGN.md §17).
        long_ttl = churn_result.cell(scheme="refresh+ttl7d")
        decoupled = churn_result.cell(scheme="decoupled7d")
        assert obsolete_hits(decoupled) < obsolete_hits(long_ttl)
        assert decoupled.metrics.sr_failure_rate <= \
            long_ttl.metrics.sr_failure_rate

    def test_decoupled_invalidations_recorded(self, churn_result):
        assert churn_result.cell(
            scheme="decoupled7d").metrics.invalidations > 0
        # Without the update channel the listener is a no-op.
        assert churn_result.cell(
            scheme="refresh+ttl7d").metrics.invalidations == 0

    def test_upstream_queries_accounted_for_every_row(self, churn_result):
        for row in churn_result.cells:
            assert row.metrics.total_outgoing > 0, row.label

    def test_swr_row_present_with_bounded_staleness(self, churn_result):
        row = churn_result.cell(scheme="swr3600s")
        assert 0.0 <= row.metrics.stale_answer_rate <= 1.0

    def test_render(self, churn_result):
        text = churn_result.render()
        assert "IRR churn" in text and "vanilla" in text
        assert "Stale answers" in text and "Upstream queries" in text

    def test_unknown_row(self, churn_result):
        with pytest.raises(KeyError):
            churn_result.cell(scheme="nope")


class TestLatencyExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return latency.run(LatencySpec(scale=Scale.TINY))

    def test_long_ttl_lowers_latency(self, result):
        # Fewer tree walks => lower mean wait (paper §4).
        assert result.cell(scheme="refresh+ttl7d").mean_latency <= \
            result.cell(scheme="vanilla").mean_latency

    def test_refresh_reduces_queries_per_lookup(self, result):
        def cs_per_lookup(scheme):
            return per_stub(result.where(scheme=scheme), "cs_demand_queries")

        assert cs_per_lookup("refresh") <= cs_per_lookup("vanilla")

    def test_hit_rates_sane(self, result):
        for row in result.groups("scheme"):
            assert 0.0 <= per_stub(row, "sr_cache_hits") <= 1.0
            assert per_stub(row, "cs_demand_queries") >= 0.0

    def test_render(self, result):
        assert "Response time" in result.render()
