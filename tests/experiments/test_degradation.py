"""The degradation experiment, and fault-layer end-to-end guarantees.

Two properties ride on the fault tentpole: replays with faults enabled
stay byte-identical across seeds and worker counts (the hash-keyed
draws), and a replay with faults *disabled* — no spec, or an inert one —
is bit-for-bit the simulation that existed before the layer was added.
"""

import pytest

from repro.core.config import ResilienceConfig, RetryPolicy
from repro.experiments import EXPERIMENTS
from repro.experiments.degradation import (
    DegradationSpec,
    run as run_degradation,
)
from repro.experiments.harness import AttackSpec, run_replay
from repro.experiments.parallel import ReplaySpec, run_replays
from repro.experiments.scenarios import Scale, make_scenario
from repro.experiments.sweep import knee
from repro.obs import ObservationSpec
from repro.simulation.faults import FaultSpec

HOUR = 3600.0


@pytest.fixture(scope="module")
def scenario():
    return make_scenario(Scale.TINY)


class TestDegradationExperiment:
    def test_registered(self):
        assert EXPERIMENTS["degradation"].spec_type is DegradationSpec

    def test_sweep_shape_and_knee(self, scenario):
        spec = DegradationSpec(
            scale=Scale.TINY,
            intensities=(0.0, 1.0),
            retry_tries=(0, 2),
            knee_threshold=0.02,
        )
        result = run_degradation(spec)
        assert result.axes["policy"] == ("refresh+noretry", "refresh+retry2")
        assert len(result.cells) == 4
        for policy in result.axes["policy"]:
            row = result.where(policy=policy)
            # No attack traffic is dropped at intensity 0.
            assert row.cell(intensity=0.0).sr_attack_failure_rate == 0.0
            # The blackout column reproduces the paper's regime, so the
            # knee exists and sits at the blackout end of this sweep.
            assert row.cell(intensity=1.0).sr_attack_failure_rate > 0.02
            assert knee(row, "intensity", 0.02) == 1.0
        rendered = result.render()
        assert "i=1" in rendered and "knee" in rendered

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            run_degradation(DegradationSpec(intensities=()))
        with pytest.raises(ValueError):
            run_degradation(DegradationSpec(retry_tries=()))
        with pytest.raises(ValueError):
            run_degradation(DegradationSpec(intensities=(0.5, 1.5)))


class TestFaultsDisabledIdentity:
    def test_inert_spec_matches_no_spec(self, scenario):
        attack = AttackSpec(start=scenario.attack_start, duration=6 * HOUR)
        plain = run_replay(scenario.built, scenario.trace("TRC1"),
                           ResilienceConfig.refresh(), attack=attack)
        inert = run_replay(scenario.built, scenario.trace("TRC1"),
                           ResilienceConfig.refresh(), attack=attack,
                           faults=FaultSpec())
        assert inert.metrics == plain.metrics
        assert inert.window == plain.window
        assert inert.to_summary() == plain.to_summary()

    def test_full_intensity_attack_matches_pre_fault_blackout(self, scenario):
        # intensity=1.0 is the default: the injector-free fast path.
        explicit = AttackSpec(start=scenario.attack_start, duration=6 * HOUR,
                              intensity=1.0)
        assert not explicit.partial
        baseline = AttackSpec(start=scenario.attack_start, duration=6 * HOUR)
        a = run_replay(scenario.built, scenario.trace("TRC1"),
                       ResilienceConfig.combination(), attack=baseline)
        b = run_replay(scenario.built, scenario.trace("TRC1"),
                       ResilienceConfig.combination(), attack=explicit)
        assert a.to_summary() == b.to_summary()

    def test_partial_attack_hurts_less_than_blackout(self, scenario):
        def rate(intensity):
            result = run_replay(
                scenario.built, scenario.trace("TRC1"),
                ResilienceConfig.vanilla(),
                attack=AttackSpec(start=scenario.attack_start,
                                  duration=6 * HOUR, intensity=intensity),
            )
            return result.sr_attack_failure_rate

        blackout = rate(1.0)
        partial = rate(0.5)
        assert blackout > 0.0
        assert partial < blackout


class TestFaultsEnabledDeterminism:
    def spec_for(self, scenario, tmp_path, tag, trace_name):
        return ReplaySpec.for_scenario(
            scenario, trace_name,
            ResilienceConfig.refresh().with_retries(RetryPolicy(max_tries=2)),
            attack=AttackSpec(start=scenario.attack_start, duration=6 * HOUR,
                              intensity=0.5),
            faults=FaultSpec(background_loss=0.05, jitter=0.1),
            observe=ObservationSpec(
                events_path=str(tmp_path / f"{tag}-{trace_name}.jsonl")
            ),
        )

    def test_event_logs_identical_at_any_worker_count(self, scenario, tmp_path):
        traces = ("TRC1", "TRC2")
        serial = run_replays(
            [self.spec_for(scenario, tmp_path, "serial", t) for t in traces],
            workers=1,
        )
        fanned = run_replays(
            [self.spec_for(scenario, tmp_path, "fanned", t) for t in traces],
            workers=2,
        )
        assert fanned == serial
        for trace_name in traces:
            serial_log = (tmp_path / f"serial-{trace_name}.jsonl").read_bytes()
            fanned_log = (tmp_path / f"fanned-{trace_name}.jsonl").read_bytes()
            assert serial_log == fanned_log
            assert b"fault.drop" in serial_log

    def test_different_seed_changes_fault_draws(self, scenario):
        def summary(seed):
            return run_replay(
                scenario.built, scenario.trace("TRC1"),
                ResilienceConfig.refresh(),
                attack=AttackSpec(start=scenario.attack_start,
                                  duration=6 * HOUR, intensity=0.5),
                faults=FaultSpec(background_loss=0.1),
                seed=seed,
            ).to_summary()

        assert summary(0) == summary(0)
        assert summary(0) != summary(1)
