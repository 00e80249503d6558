"""The experiment registry: specs, CLI generation, and equivalence."""

import argparse
import dataclasses

import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments.attack_grid import (
    AttackGridSpec,
    duration_columns,
    failure_grid,
)
from repro.experiments.churn import ChurnSpec
from repro.experiments.latency import LatencySpec
from repro.experiments.registry import (
    ExperimentDef,
    add_spec_arguments,
    resolve_scale,
    spec_from_args,
)
from repro.experiments.scenarios import Scale, make_scenario
from repro.core.schemes import parse_scheme

EXPECTED_NAMES = {
    "amplification", "attack-grid", "churn", "degradation", "dnssec",
    "latency", "maxdamage", "multiseed", "poisoning", "renewal2",
}


class TestRegistryContents:
    def test_all_experiments_registered(self):
        assert set(EXPERIMENTS) == EXPECTED_NAMES

    def test_entries_are_well_formed(self):
        for name, definition in EXPERIMENTS.items():
            assert definition.name == name
            assert definition.help
            assert dataclasses.is_dataclass(definition.spec_type)
            assert definition.spec_type.__dataclass_params__.frozen
            assert callable(definition.runner)
            # Every spec is constructible with no arguments (defaults).
            assert definition.spec_type() == definition.spec_type()

    def test_run_rejects_mismatched_spec(self):
        with pytest.raises(TypeError):
            EXPERIMENTS["churn"].run(LatencySpec())


class TestCliGeneration:
    def parser_for(self, spec_type):
        parser = argparse.ArgumentParser()
        add_spec_arguments(parser, spec_type)
        return parser

    @pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
    def test_default_args_round_trip_to_default_spec(self, name):
        definition = EXPERIMENTS[name]
        parser = self.parser_for(definition.spec_type)
        args = parser.parse_args([])
        assert spec_from_args(definition.spec_type, args) == definition.spec_type()

    def test_churn_flags(self):
        parser = self.parser_for(ChurnSpec)
        args = parser.parse_args(
            ["--seed", "11", "--churn-fraction", "0.5", "--no-decommission-old"]
        )
        spec = spec_from_args(ChurnSpec, args)
        assert spec == ChurnSpec(seed=11, churn_fraction=0.5,
                                 decommission_old=False)

    def test_scale_and_tuple_flags(self):
        parser = self.parser_for(AttackGridSpec)
        args = parser.parse_args(
            ["--scale", "small", "--durations-hours", "3,6", "--scheme",
             "refresh"]
        )
        spec = spec_from_args(AttackGridSpec, args)
        assert spec.scale is Scale.SMALL
        assert spec.durations_hours == (3, 6)
        assert spec.scheme == "refresh"

    def test_optional_int_flag(self):
        parser = self.parser_for(AttackGridSpec)
        assert spec_from_args(AttackGridSpec,
                              parser.parse_args([])).trace_limit is None
        spec = spec_from_args(AttackGridSpec,
                              parser.parse_args(["--trace-limit", "2"]))
        assert spec.trace_limit == 2

    def test_config_object_fields_are_not_cli_flags(self):
        parser = self.parser_for(ChurnSpec)
        with pytest.raises(SystemExit):
            parser.parse_args(["--hierarchy", "x"])


class TestResolveScale:
    def test_explicit_scale_wins(self):
        assert resolve_scale(Scale.SMALL) is Scale.SMALL

    def test_none_falls_back_to_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert resolve_scale(None) is Scale.TINY
        monkeypatch.setenv("REPRO_SCALE", "small")
        assert resolve_scale(None) is Scale.SMALL


class TestRunEquivalence:
    def test_spec_run_matches_legacy_call(self):
        """run(spec) is a pure re-plumbing of the legacy entry point."""
        spec = AttackGridSpec(scale=Scale.TINY, trace_limit=1,
                              durations_hours=(3,))
        via_registry = EXPERIMENTS["attack-grid"].run(spec)
        scenario = make_scenario(Scale.TINY, seed=7)
        config = parse_scheme("vanilla")
        direct = failure_grid(
            scenario,
            f"Attack durations — {config.label}",
            duration_columns(config, (3,)),
            trace_limit=1,
        )
        assert via_registry.axes == direct.axes
        assert via_registry.cells == direct.cells
        assert via_registry.render() == direct.render()

    def test_default_run_builds_default_spec(self):
        definition = ExperimentDef(
            name="probe", help="probe", spec_type=ChurnSpec,
            runner=lambda spec: spec,
        )
        assert definition.run() == ChurnSpec()
