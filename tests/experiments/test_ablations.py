"""Tests for the ablation / extension experiments."""

import pytest

from repro.experiments.ablations import (
    capacity_ablation,
    holddown_ablation,
    mechanism_ablation,
    other_attack_classes,
    scale_sensitivity,
    stale_comparison,
)
from repro.experiments.scenarios import Scale, make_scenario


def sr(result, label):
    return result.cell(scheme=label).sr_attack_failure_rate


@pytest.fixture(scope="module")
def scenario():
    return make_scenario(Scale.TINY)


class TestMechanismAblation:
    def test_rows_and_ordering(self, scenario):
        result = mechanism_ablation(scenario)
        labels = list(result.axes["scheme"])
        assert labels[0] == "vanilla"
        assert "combination" in labels
        # Stacked mechanisms never do worse than vanilla.
        vanilla = sr(result, "vanilla")
        assert sr(result, "refresh only") <= vanilla
        assert sr(result, "refresh + renew") <= vanilla
        assert sr(result, "combination") <= vanilla

    def test_render(self, scenario):
        assert "Ablation" in mechanism_ablation(scenario).render()

    def test_unknown_label_raises(self, scenario):
        with pytest.raises(KeyError):
            sr(mechanism_ablation(scenario), "nope")


class TestStaleComparison:
    def test_stale_beats_vanilla(self, scenario):
        result = stale_comparison(scenario)
        assert sr(result, "serve-stale") <= sr(result, "vanilla")


class TestOtherAttackClasses:
    def test_single_zone_attacks_have_limited_blast_radius(self, scenario):
        result = other_attack_classes(scenario)
        # An attack on one SLD/provider hurts far fewer queries than the
        # root+TLD attack does (which is >30% SR failures at this scale).
        for point, cell in zip(result.points(), result.cells):
            assert cell.sr_attack_failure_rate < 0.30, point

    def test_render(self, scenario):
        assert "attack classes" in other_attack_classes(scenario).render()


class TestHolddownAblation:
    @pytest.fixture(scope="class")
    def result(self, scenario):
        return holddown_ablation(scenario)

    def test_holddown_does_not_change_sr_outcome(self, result):
        assert sr(result, "vanilla + holddown 10m") == pytest.approx(
            sr(result, "vanilla"), abs=0.05
        )

    def test_holddown_reduces_message_volume(self, result):
        messages = dict(zip(result.axes["scheme"],
                            result.values("total_outgoing")))
        assert messages["vanilla + holddown 10m"] < messages["vanilla"]

    def test_fast_select_preserves_availability(self, result):
        assert sr(result, "refresh + fast-select") == pytest.approx(
            sr(result, "refresh + holddown 10m"), abs=0.10
        )


class TestCapacityAblation:
    @pytest.fixture(scope="class")
    def result(self, scenario):
        return capacity_ablation(scenario)

    def test_generous_capacity_matches_unbounded(self, result):
        assert sr(result, "combination / 4x zones") == pytest.approx(
            sr(result, "combination / unbounded"), abs=0.02
        )

    def test_starved_cache_degrades(self, result):
        assert sr(result, "combination / 0.25x zones") > \
            sr(result, "combination / 4x zones")

    def test_render(self, result):
        assert "cache capacity" in result.render()


class TestScaleSensitivity:
    def test_runs_at_tiny_only(self):
        # Single-scale invocation keeps this a unit test; the cross-scale
        # claim is exercised by the dedicated bench.
        result = scale_sensitivity(scales=(Scale.TINY,))
        assert len(result.cells) == 3
        assert set(result.axes["scheme"]) == {
            "vanilla", "refresh", "combination"
        }
        assert "Scale sensitivity" in result.render()
