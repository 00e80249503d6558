"""Tests for the maximum-damage attack explorer."""

import pytest

from repro.dns.name import root_name
from repro.experiments.max_damage import (
    MaxDamageSpec,
    greedy_targets,
    random_targets,
    run,
    upcoming_query_counts,
)
from repro.experiments.scenarios import Scale, make_scenario

DAY = 86400.0
HOUR = 3600.0


@pytest.fixture(scope="module")
def scenario():
    return make_scenario(Scale.TINY)


class TestUpcomingQueryCounts:
    def test_root_sees_every_query(self, scenario):
        trace = scenario.trace("TRC1")
        start, end = 6 * DAY, 6 * DAY + 6 * HOUR
        counts = upcoming_query_counts(trace, scenario, start, end)
        window_size = len(trace.slice_window(start, end))
        assert counts[root_name()] == window_size

    def test_tld_counts_dominate_slds(self, scenario):
        trace = scenario.trace("TRC1")
        counts = upcoming_query_counts(trace, scenario, 6 * DAY,
                                       6 * DAY + 6 * HOUR)
        top_tld = max(
            counts.get(tld, 0) for tld in scenario.built.tree.tld_names()
        )
        top_sld = max(
            count for zone, count in counts.items() if zone.depth() == 2
        )
        assert top_tld >= top_sld


class TestTargetSelection:
    def test_greedy_respects_budget(self, scenario):
        trace = scenario.trace("TRC1")
        targets = greedy_targets(trace, scenario, 5, 6 * DAY, 6 * DAY + 6 * HOUR)
        assert len(targets) == 5
        assert targets[0] == root_name()  # root transits everything

    def test_greedy_can_exclude_root(self, scenario):
        trace = scenario.trace("TRC1")
        targets = greedy_targets(trace, scenario, 5, 6 * DAY,
                                 6 * DAY + 6 * HOUR, include_root=False)
        assert root_name() not in targets

    def test_greedy_rejects_zero_budget(self, scenario):
        with pytest.raises(ValueError):
            greedy_targets(scenario.trace("TRC1"), scenario, 0, 0.0, 1.0)

    def test_random_targets_deterministic(self, scenario):
        assert random_targets(scenario, 5, seed=1) == random_targets(
            scenario, 5, seed=1
        )
        assert random_targets(scenario, 5, seed=1) != random_targets(
            scenario, 5, seed=2
        )


def rate_of(result, strategy, scheme):
    return result.cell(strategy=strategy,
                       scheme=scheme).sr_attack_failure_rate


class TestExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run(MaxDamageSpec(scale=Scale.TINY, budget=4))

    def test_greedy_beats_random(self, result):
        greedy = rate_of(result, "greedy (oracle)", "vanilla")
        random_rate = rate_of(result, "random", "vanilla")
        assert greedy >= random_rate

    def test_combination_blunts_every_strategy(self, result):
        for strategy in ("greedy (oracle)", "root+TLDs", "random"):
            assert rate_of(result, strategy, "combination") <= \
                rate_of(result, strategy, "vanilla") + 1e-9

    def test_render(self, result):
        text = result.render()
        assert "budget = 4" in text
        assert "greedy (oracle)" in text

    def test_unknown_row_raises(self, result):
        with pytest.raises(KeyError):
            rate_of(result, "nonexistent", "vanilla")
