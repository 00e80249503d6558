"""The Renewal 2.0 comparison experiment (`repro renewal2`)."""

import pytest

from types import SimpleNamespace

from repro.experiments.attack_grid import (
    Renewal2Spec,
    renewal2_table,
    run_renewal2,
)
from repro.experiments.scenarios import Scale
from repro.experiments.sweep import Grid, per_stub


def row(result, scheme):
    """One scheme's cells over the traces."""
    return result.where(scheme=scheme)


@pytest.fixture(scope="module")
def result():
    return run_renewal2(Renewal2Spec(scale=Scale.TINY, trace_limit=1))


class TestRenewal2Experiment:
    def test_all_requested_schemes_have_rows(self, result):
        assert result.axes["scheme"] == ("refresh+a-lru3", "refresh+a-lfu3",
                                         "swr3600s", "decoupled7d")

    def test_upstream_budget_accounted_for_every_scheme(self, result):
        # The whole point of the table: every scheme's refreshes are
        # renewal-tagged, so upstream_queries is comparable across rows.
        for scheme in result.groups("scheme"):
            assert scheme.total("upstream_queries") > 0, scheme.at
            assert per_stub(scheme, "upstream_queries") > 0.0, scheme.at

    def test_decoupled_survives_on_smallest_budget(self, result):
        decoupled = row(result, "decoupled7d")
        assert decoupled.mean("sr_attack_failure_rate") == 0.0
        assert decoupled.total("upstream_queries") == min(
            scheme.total("upstream_queries")
            for scheme in result.groups("scheme")
        )

    def test_only_swr_serves_stale(self, result):
        assert per_stub(row(result, "swr3600s"), "sr_stale_hits") > 0.0
        for label in ("refresh+a-lru3", "refresh+a-lfu3", "decoupled7d"):
            assert per_stub(row(result, label), "sr_stale_hits") == 0.0

    def test_render_and_row_lookup(self, result):
        text = result.render()
        assert "equal upstream query budget" in text
        assert "swr3600s" in text and "decoupled7d" in text
        with pytest.raises(KeyError):
            row(result, "nope")


class TestRenewal2Shapes:
    def test_result_renders_from_hand_built_rows(self):
        cell = SimpleNamespace(
            sr_attack_failure_rate=0.5, cs_attack_failure_rate=0.25,
            sr_stale_hits=10, sr_queries=100, upstream_queries=150,
        )
        result = Grid(axes={"scheme": ("x",), "trace": ("TRC1",)},
                      cells=(cell,)).tabulate(renewal2_table(6.0))
        text = result.render()
        assert "50.00 %" in text and "10.00 %" in text and "1.500" in text
        assert result.cell(scheme="x", trace="TRC1") is cell
