"""Tests for the parallel batch replay runner.

The load-bearing guarantee is determinism: a sweep fanned over worker
processes must produce *bitwise-identical* numbers to the serial loop,
because a replay's outcome depends only on its spec.  The rest covers
the failure surface (crashed workers, hung replays, bad $REPRO_WORKERS)
and the picklability contract the pool relies on.
"""

import os
import pickle
import time

import pytest

from repro.core.config import ResilienceConfig
from repro.experiments import parallel
from repro.experiments.harness import AttackSpec, run_replay
from repro.experiments.parallel import (
    FleetSpec,
    ReplayExecutionError,
    ReplaySpec,
    ReplaySummary,
    WORKERS_ENV_VAR,
    default_worker_count,
    run_replays,
    summarize_replay,
)
from repro.experiments.scenarios import Scale, make_scenario


@pytest.fixture(scope="module")
def scenario():
    return make_scenario(Scale.TINY)


def _sweep_specs(scenario) -> list[ReplaySpec]:
    """A small heterogeneous sweep: two schemes, two traces, one attack."""
    attack = AttackSpec(start=scenario.attack_start, duration=6 * 3600.0)
    return [
        ReplaySpec.for_scenario(scenario, trace_name, config, attack=attack)
        for config in (ResilienceConfig.vanilla(), ResilienceConfig.refresh())
        for trace_name in ("TRC1", "TRC2")
    ]


class TestSpecs:
    def test_for_scenario_carries_the_memo_key(self, scenario):
        spec = _sweep_specs(scenario)[0]
        assert spec.scale is scenario.scale
        assert spec.scenario_seed == scenario.seed

    def test_specs_and_summaries_are_picklable(self, scenario):
        spec = _sweep_specs(scenario)[0]
        restored = pickle.loads(pickle.dumps(spec))
        assert restored == spec
        # The config's renewal-policy factory must survive the trip too.
        renewing = ResilienceConfig.refresh_renew("a-lfu", 5)
        revived = pickle.loads(pickle.dumps(renewing))
        assert revived.renewal_policy() is not None

        summary = run_replays([spec], workers=1)[0]
        assert pickle.loads(pickle.dumps(summary)) == summary

    def test_describe_names_the_work(self, scenario):
        spec = _sweep_specs(scenario)[0]
        assert "TRC1" in spec.describe()
        fleet = FleetSpec.for_scenario(
            scenario, ("TRC1", "TRC2"), ResilienceConfig.vanilla()
        )
        assert "fleet" in fleet.describe()


class TestSerialPath:
    def test_matches_direct_run_replay(self, scenario):
        spec = _sweep_specs(scenario)[0]
        direct = run_replay(
            scenario.built,
            scenario.trace(spec.trace_name),
            spec.config,
            attack=spec.attack,
            seed=spec.seed,
        )
        summary = run_replays([spec], workers=1)[0]
        assert summary == summarize_replay(direct)
        assert summary.sr_attack_failure_rate == pytest.approx(
            direct.sr_attack_failure_rate
        )

    def test_results_in_spec_order(self, scenario):
        specs = _sweep_specs(scenario)
        summaries = run_replays(specs, workers=1)
        assert [s.trace_name for s in summaries] == [
            spec.trace_name for spec in specs
        ]
        assert [s.label for s in summaries] == [
            spec.config.label for spec in specs
        ]

    def test_rejects_nonpositive_workers(self, scenario):
        with pytest.raises(ValueError):
            run_replays(_sweep_specs(scenario), workers=0)


class TestDeterminism:
    def test_parallel_is_bitwise_identical_to_serial(self, scenario):
        """The golden guarantee: worker fan-out changes nothing."""
        specs = _sweep_specs(scenario)
        serial = run_replays(specs, workers=1)
        fanned = run_replays(specs, workers=2)
        assert fanned == serial  # full dataclass equality, every counter

    def test_swr_and_decoupled_identical_at_any_worker_count(
        self, scenario, tmp_path
    ):
        # Renewal 2.0 (DESIGN.md §17): the background-refetch scheduling
        # and the invalidation channel must not leak worker-count
        # nondeterminism — summaries equal AND event logs byte-identical.
        import filecmp

        from repro.obs.spec import ObservationSpec

        attack = AttackSpec(start=scenario.attack_start, duration=6 * 3600.0)

        def specs(tag):
            return [
                ReplaySpec.for_scenario(
                    scenario, "TRC1", config, attack=attack,
                    observe=ObservationSpec(
                        events_path=str(tmp_path / f"{config.label}-{tag}.jsonl")
                    ),
                )
                for config in (ResilienceConfig.swr(),
                               ResilienceConfig.decoupled(7.0))
            ]

        serial = run_replays(specs("serial"), workers=1)
        fanned = run_replays(specs("fanned"), workers=4)
        assert fanned == serial
        assert serial[0].swr_refreshes > 0
        assert serial[0].sr_stale_hits > 0
        for label in ("swr3600s", "decoupled7d"):
            assert filecmp.cmp(tmp_path / f"{label}-serial.jsonl",
                               tmp_path / f"{label}-fanned.jsonl",
                               shallow=False), label

    def test_parallel_fleet_matches_serial(self, scenario):
        spec = FleetSpec.for_scenario(
            scenario, ("TRC1", "TRC2"), ResilienceConfig.vanilla(),
            attack=AttackSpec(start=scenario.attack_start,
                              duration=6 * 3600.0),
        )
        # Duplicate the spec so the parallel path actually engages.
        serial = run_replays([spec, spec], workers=1)
        fanned = run_replays([spec, spec], workers=2)
        assert [s.aggregate_sr_failure_rate() for s in fanned] == [
            s.aggregate_sr_failure_rate() for s in serial
        ]
        assert fanned == serial


def _crash_worker(spec):
    os._exit(13)  # simulate an OOM-kill; never raises, just dies


def _hang_worker(spec):
    time.sleep(60.0)


class TestFailureSurface:
    @pytest.fixture(autouse=True)
    def _fresh_pool(self):
        """Fork a fresh pool so the monkeypatched module reaches workers.

        A reused warm pool predates the patch (fork copies memory at
        pool-creation time), so each test starts without one; the
        failure it provokes breaks the pool, which is then discarded.
        """
        parallel.shutdown_shared_pool()
        yield
        parallel.shutdown_shared_pool()

    def test_dead_worker_reported_clearly(self, scenario, monkeypatch):
        monkeypatch.setattr(parallel, "_execute_spec", _crash_worker)
        with pytest.raises(ReplayExecutionError, match="worker process died"):
            run_replays(_sweep_specs(scenario)[:2], workers=2)

    def test_timeout_reported_with_the_spec(self, scenario, monkeypatch):
        monkeypatch.setattr(parallel, "_execute_spec", _hang_worker)
        # Genuine wall-clock measurement: the assertion is about real
        # elapsed time (hung workers must die), not simulated time.
        started = time.monotonic()  # repro: ignore[REP001]
        with pytest.raises(ReplayExecutionError, match="timeout"):
            run_replays(_sweep_specs(scenario)[:2], workers=2, timeout=1.0)
        # The hung workers were killed, not waited out.
        assert time.monotonic() - started < 30.0  # repro: ignore[REP001]


class TestPoolReuse:
    @pytest.fixture(autouse=True)
    def _clean_slate(self):
        parallel.shutdown_shared_pool()
        yield
        parallel.shutdown_shared_pool()

    def test_pool_survives_across_calls(self, scenario):
        specs = _sweep_specs(scenario)
        run_replays(specs, workers=2)
        first = parallel._shared_pool
        assert first is not None
        run_replays(specs, workers=2)
        assert parallel._shared_pool is first

    def test_worker_count_change_replaces_pool(self, scenario):
        specs = _sweep_specs(scenario)
        run_replays(specs, workers=2)
        first = parallel._shared_pool
        run_replays(specs, workers=3)
        assert parallel._shared_pool is not first

    def test_reused_pool_results_stay_identical(self, scenario):
        specs = _sweep_specs(scenario)
        serial = run_replays(specs, workers=1)
        warm_once = run_replays(specs, workers=2)
        warm_twice = run_replays(specs, workers=2)  # reused pool
        assert warm_once == serial
        assert warm_twice == serial

    def test_shutdown_is_idempotent(self):
        parallel.shutdown_shared_pool()
        parallel.shutdown_shared_pool()


class TestUsableCpuCount:
    def test_positive_and_bounded_by_machine(self):
        usable = parallel.usable_cpu_count()
        assert usable >= 1
        cpus = os.cpu_count()
        if cpus is not None:
            assert usable <= cpus


class TestWorkersEnvVar:
    def test_unset_means_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert default_worker_count() == 1

    def test_reads_positive_integer(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "4")
        assert default_worker_count() == 4

    def test_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "many")
        with pytest.raises(ValueError, match="many"):
            default_worker_count()

    def test_rejects_nonpositive(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "0")
        with pytest.raises(ValueError, match=">= 1"):
            default_worker_count()
