"""Tests for the DNSSEC extension experiment."""

import pytest

from repro.experiments.dnssec import DnssecSpec, run
from repro.hierarchy.builder import HierarchyConfig
from repro.workload.generator import WorkloadConfig


@pytest.fixture(scope="module")
def result():
    return run(DnssecSpec(
        hierarchy=HierarchyConfig(num_tlds=6, num_slds=80, num_providers=2,
                                  dnssec_fraction=1.0),
        workload=WorkloadConfig(duration_days=7.0, queries_per_day=1_500,
                                num_clients=40),
    ))


class TestDnssecExperiment:
    def test_validation_amplifies_attack_on_vanilla(self, result):
        plain = result.cell(scheme="vanilla").sr_attack_failure_rate
        validating = result.cell(scheme="vanilla+dnssec")
        assert validating.sr_attack_failure_rate > plain
        assert validating.sr_validation_failures > 0

    def test_combination_neutralises_amplification(self, result):
        combo = result.cell(
            scheme="combo+a-lfu3+ttl3d+dnssec").sr_attack_failure_rate
        vanilla_validating = result.cell(
            scheme="vanilla+dnssec").sr_attack_failure_rate
        assert combo < vanilla_validating / 5

    def test_render(self, result):
        text = result.render()
        assert "DNSSEC" in text and "vanilla+dnssec" in text

    def test_rejects_unsigned_hierarchy(self):
        with pytest.raises(ValueError):
            run(DnssecSpec(
                hierarchy=HierarchyConfig(num_tlds=4, num_slds=10,
                                          num_providers=1,
                                          dnssec_fraction=0.0)
            ))

    def test_unknown_row(self, result):
        with pytest.raises(KeyError):
            result.cell(scheme="nope")
