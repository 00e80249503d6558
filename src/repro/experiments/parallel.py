"""Parallel trace replay: fan independent replays over worker processes.

Every figure/table is a sweep of independent :func:`~repro.experiments.
harness.run_replay` calls (schemes × traces × attack durations × seeds).
:func:`run_replays` is the batch API those sweeps go through: it takes
declarative :class:`ReplaySpec` / :class:`FleetSpec` descriptions and
executes them either in-process (``workers=1``, the default) or across a
:class:`~concurrent.futures.ProcessPoolExecutor`.

Four design rules keep this correct and cheap:

* **The world is built once, in the parent.**  Before the pool exists,
  :func:`run_replays` constructs every swept scenario — hierarchy *and*
  traces — through the memoised
  :func:`~repro.experiments.scenarios.make_scenario`.  Under the default
  ``fork`` start method the workers inherit those objects copy-on-write:
  the multi-MB ``BuiltHierarchy`` is never pickled and never rebuilt.
  Under ``spawn`` (macOS/Windows default) children inherit nothing, so
  the :func:`_warm_worker` initializer rebuilds the same scenarios from
  the same keys — slower, but identical in outcome.
* **Specs, not objects, cross the boundary.**  A spec carries only
  ``(scale, scenario seed, trace name, config, attack, seed)`` — the
  lightweight key the memo resolves.
* **Summaries, not servers, come back.**  A replay's
  :class:`CachingServer`/engine graph is full of closures and timers;
  workers reduce it to a picklable :class:`ReplaySummary` holding the
  numbers the figures need (failure rates, window counters, traffic,
  gap and memory samples).
* **Determinism is untouched.**  A replay's outcome depends only on its
  spec; the serial and parallel paths run the identical code, so a sweep
  produces bitwise-identical numbers at any worker count (covered by
  tests/experiments/test_parallel.py).

``REPRO_WORKERS`` selects the default worker count; ``workers=1`` (or an
unset variable) preserves the original fully-serial behaviour.  A warm
pool is kept alive between :func:`run_replays` calls so a sweep pays the
fork + warm-up cost once, not once per sweep point.
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    TimeoutError as FuturesTimeoutError,
)
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.config import ResilienceConfig
from repro.experiments.harness import AttackSpec, run_replay
from repro.experiments.scenarios import Scale, Scenario, make_scenario
from repro.experiments.summary import (
    FleetMemberSummary,
    FleetSummary,
    OverheadComparable,
    ReplaySummary,
    summarize_replay,
)
from repro.obs.spec import ObservationSpec
from repro.obs.timing import StageTimings, maybe_stage
from repro.simulation.adversary import AdversarySpec
from repro.simulation.faults import FaultSpec

__all__ = [
    "FleetMemberSummary",
    "FleetSpec",
    "FleetSummary",
    "OverheadComparable",
    "ReplayExecutionError",
    "ReplaySpec",
    "ReplaySummary",
    "WORKERS_ENV_VAR",
    "default_worker_count",
    "run_replays",
    "shutdown_shared_pool",
    "summarize_replay",
    "usable_cpu_count",
]

#: Environment variable selecting the default worker count.
WORKERS_ENV_VAR = "REPRO_WORKERS"


class ReplayExecutionError(RuntimeError):
    """A worker process died or exceeded the per-replay timeout."""


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReplaySpec:
    """A declarative, picklable description of one replay.

    Identifies the scenario by ``(scale, scenario_seed)`` — the
    lightweight key :func:`make_scenario` memoises on — instead of
    carrying the built hierarchy.
    """

    # Crosses the worker process boundary; `repro audit` (REP012)
    # walks every transitively reachable field type for picklability.
    # repro: pickled-boundary

    scale: Scale
    scenario_seed: int
    trace_name: str
    config: ResilienceConfig
    attack: AttackSpec | None = None
    seed: int = 0
    track_gaps: bool = False
    memory_sample_interval: float | None = None
    observe: ObservationSpec | None = None
    """Optional observability setup.  Executed inside the worker, so
    per-spec output paths work at any worker count (each worker writes
    its own files; the event stream stays deterministic because it is
    derived from the replay's virtual clock only)."""

    faults: FaultSpec | None = None
    """Optional fault-injection setup (DESIGN.md §11).  Like ``observe``
    it is a frozen description: each worker builds its own injector, and
    the hash-keyed draws make the outcome independent of worker count."""

    adversary: AdversarySpec | None = None
    """Optional adversary model (DESIGN.md §16): NXNS amplification,
    cache poisoning and flash crowds.  Frozen like ``faults``; each
    worker builds its own live adversary with its own ordinal counters,
    so adversarial replays stay byte-identical at any worker count."""

    validation: bool = False
    """Shadow the replay's cache with the naive oracle (DESIGN.md §12).
    Results are identical when the check passes; the worker raises a
    DivergenceError / InvariantViolation otherwise."""

    @classmethod
    def for_scenario(
        cls,
        scenario: Scenario,
        trace_name: str,
        config: ResilienceConfig,
        *,
        attack: AttackSpec | None = None,
        seed: int = 0,
        track_gaps: bool = False,
        memory_sample_interval: float | None = None,
        observe: ObservationSpec | None = None,
        faults: FaultSpec | None = None,
        adversary: AdversarySpec | None = None,
        validation: bool = False,
    ) -> "ReplaySpec":
        """A spec that replays ``trace_name`` of an existing scenario."""
        return cls(
            scale=scenario.scale,
            scenario_seed=scenario.seed,
            trace_name=trace_name,
            config=config,
            attack=attack,
            seed=seed,
            track_gaps=track_gaps,
            memory_sample_interval=memory_sample_interval,
            observe=observe,
            faults=faults,
            adversary=adversary,
            validation=validation,
        )

    def describe(self) -> str:
        return (
            f"{self.trace_name}/{self.config.label}"
            f" (scale={self.scale.value}, seed={self.seed})"
        )


@dataclass(frozen=True)
class FleetSpec:
    """One fleet replay (several traces over shared virtual time)."""

    # repro: pickled-boundary

    scale: Scale
    scenario_seed: int
    trace_names: tuple[str, ...]
    config: ResilienceConfig
    attack: AttackSpec | None = None
    seed: int = 0

    @classmethod
    def for_scenario(
        cls,
        scenario: Scenario,
        trace_names: Sequence[str],
        config: ResilienceConfig,
        *,
        attack: AttackSpec | None = None,
        seed: int = 0,
    ) -> "FleetSpec":
        return cls(
            scale=scenario.scale,
            scenario_seed=scenario.seed,
            trace_names=tuple(trace_names),
            config=config,
            attack=attack,
            seed=seed,
        )

    def describe(self) -> str:
        return (
            f"fleet[{','.join(self.trace_names)}]/{self.config.label}"
            f" (scale={self.scale.value}, seed={self.seed})"
        )


# The summary shapes themselves live in repro.experiments.summary (one
# definition shared with the serial runner); this module re-exports them
# so historical `from repro.experiments.parallel import ReplaySummary`
# imports keep working.


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def default_worker_count() -> int:
    """The worker count named by $REPRO_WORKERS (default 1 = serial).

    Raises:
        ValueError: when the variable is set but not a positive integer.
    """
    raw = os.environ.get(WORKERS_ENV_VAR)
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{WORKERS_ENV_VAR}={raw!r} is not an integer"
        ) from None
    if value < 1:
        raise ValueError(f"{WORKERS_ENV_VAR} must be >= 1, got {value}")
    return value


def usable_cpu_count() -> int:
    """CPU cores this process may actually be scheduled on.

    ``os.cpu_count`` reports the whole machine; inside a container or
    under ``taskset`` the affinity mask is often smaller, and worker
    processes beyond it just time-slice one another.  Falls back to
    ``os.cpu_count`` on platforms without ``sched_getaffinity``.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        return len(getaffinity(0)) or 1
    return os.cpu_count() or 1  # pragma: no cover - non-Linux


#: One scenario's warm-up key: (scale, scenario seed, trace names).
_WarmKey = tuple[Scale, int, tuple[str, ...]]


def _warm_worker(scenario_keys: tuple[_WarmKey, ...]) -> None:
    """Worker initializer: make sure the swept scenarios are built.

    Under ``fork`` the parent already built everything before the pool
    existed (see :func:`_prepare_shared`), so each ``make_scenario`` /
    ``trace`` call is a memo hit on the inherited copy-on-write pages.
    Under ``spawn`` the child starts empty and this performs the actual
    (deterministic) rebuild.
    """
    for scale, seed, trace_names in scenario_keys:
        scenario = make_scenario(scale, seed)
        for name in trace_names:
            scenario.trace(name)


def _prepare_shared(
    spec_list: "Sequence[ReplaySpec | FleetSpec]",
) -> tuple[_WarmKey, ...]:
    """Build every swept scenario — hierarchy *and* traces — in the parent.

    Must run before the pool is created: forked workers then share the
    built world copy-on-write and never pickle or rebuild it.  Returns
    the warm-up keys for :func:`_warm_worker` (the spawn fallback).
    """
    # repro: publishes
    wanted: dict[tuple[Scale, int], set[str]] = {}
    for spec in spec_list:
        names = wanted.setdefault((spec.scale, spec.scenario_seed), set())
        if isinstance(spec, FleetSpec):
            names.update(spec.trace_names)
        else:
            names.add(spec.trace_name)
    keys = []
    for (scale, seed), names in sorted(
        wanted.items(), key=lambda item: (item[0][0].value, item[0][1])
    ):
        scenario = make_scenario(scale, seed)
        ordered = tuple(sorted(names))
        for name in ordered:
            scenario.trace(name)
        keys.append((scale, seed, ordered))
    return tuple(keys)


# The shared pool: created by the first parallel run_replays call and
# kept warm for the rest of the sweep (fork + scenario warm-up is paid
# once, not once per sweep point).  Discarded whenever a run breaks it
# (timeout, dead worker) or the requested worker count changes.
_shared_pool: ProcessPoolExecutor | None = None
_shared_pool_workers: int = 0


def shutdown_shared_pool() -> None:
    """Tear down the warm worker pool (no-op when none is alive)."""
    global _shared_pool
    if _shared_pool is not None:
        _shared_pool.shutdown(wait=False, cancel_futures=True)
        _shared_pool = None


atexit.register(shutdown_shared_pool)


def _acquire_pool(
    workers: int, warm_keys: tuple[_WarmKey, ...]
) -> ProcessPoolExecutor:
    """A pool with ``workers`` processes — reused from the last call when
    possible.

    A reused pool was forked before this call's scenarios were built in
    the parent, so its workers may warm missed scenarios on demand (the
    worker-side memo makes that a one-time cost per worker).
    """
    global _shared_pool, _shared_pool_workers
    if _shared_pool is not None:
        if _shared_pool_workers == workers:
            return _shared_pool
        shutdown_shared_pool()
    return ProcessPoolExecutor(
        max_workers=workers,
        initializer=_warm_worker,
        initargs=(warm_keys,),
    )


def _release_pool(pool: ProcessPoolExecutor, workers: int, broken: bool) -> None:
    """Keep a healthy pool warm for the next call; discard a broken one."""
    global _shared_pool, _shared_pool_workers
    if broken:
        if pool is _shared_pool:
            _shared_pool = None
        pool.shutdown(wait=False, cancel_futures=True)
        return
    _shared_pool = pool
    _shared_pool_workers = workers


def _execute_spec(spec: ReplaySpec | FleetSpec) -> "ReplaySummary | FleetSummary":
    """Run one spec in this process and summarise the outcome."""
    if isinstance(spec, FleetSpec):
        # Imported lazily: fleet.py builds on this module's batch API.
        from repro.experiments.fleet import run_fleet_replay, summarize_fleet

        scenario = make_scenario(spec.scale, spec.scenario_seed)
        traces = [scenario.trace(name) for name in spec.trace_names]
        return summarize_fleet(run_fleet_replay(
            scenario.built, traces, spec.config, attack=spec.attack,
            seed=spec.seed,
        ))
    scenario = make_scenario(spec.scale, spec.scenario_seed)
    trace = scenario.trace(spec.trace_name)
    result = run_replay(
        scenario.built,
        trace,
        spec.config,
        attack=spec.attack,
        track_gaps=spec.track_gaps,
        memory_sample_interval=spec.memory_sample_interval,
        seed=spec.seed,
        observe=spec.observe,
        faults=spec.faults,
        adversary=spec.adversary,
        validation=spec.validation,
    )
    return result.to_summary()


def run_replays(
    specs: Iterable[ReplaySpec | FleetSpec],
    workers: int | None = None,
    timeout: float | None = None,
    timings: StageTimings | None = None,
) -> "list[ReplaySummary | FleetSummary]":
    """Execute every spec; results come back in spec order.

    Args:
        specs: replay / fleet specs; independent of each other.
        workers: process count.  None reads ``$REPRO_WORKERS`` (default
            1); 1 runs everything in-process with no executor involved.
        timeout: optional per-replay wall-clock limit in seconds
            (parallel mode only).
        timings: optional :class:`StageTimings` accumulating the batch's
            per-stage wall/CPU cost ("prepare" and "execute" stages).

    Raises:
        ReplayExecutionError: when a worker process dies (e.g. OOM-kill)
            or a replay exceeds ``timeout``.  Worker exceptions from the
            replay itself propagate unchanged.
    """
    with maybe_stage(timings, "prepare"):
        spec_list = list(specs)
        if workers is None:
            workers = default_worker_count()
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
    if workers == 1 or len(spec_list) <= 1:
        with maybe_stage(timings, "execute"):
            return [_execute_spec(spec) for spec in spec_list]

    with maybe_stage(timings, "prepare"):
        # Build the shared world BEFORE the pool forks off it.
        warm_keys = _prepare_shared(spec_list)
        pool = _acquire_pool(workers, warm_keys)
    broken = False
    try:
        with maybe_stage(timings, "execute"):
            futures: list[Future] = [
                pool.submit(_execute_spec, spec) for spec in spec_list
            ]
            results = []
            for spec, future in zip(spec_list, futures):
                try:
                    results.append(future.result(timeout=timeout))
                except FuturesTimeoutError:
                    broken = True
                    _abort_pool(pool, futures)
                    raise ReplayExecutionError(
                        f"replay {spec.describe()} exceeded the {timeout:g} s "
                        f"timeout"
                    ) from None
                except BrokenExecutor as error:
                    broken = True
                    raise ReplayExecutionError(
                        f"a worker process died while running "
                        f"{spec.describe()} (killed or out of memory); "
                        f"rerun with workers=1 to reproduce in-process"
                    ) from error
            return results
    except BaseException:
        broken = True
        raise
    finally:
        _release_pool(pool, workers, broken)


def _abort_pool(pool: ProcessPoolExecutor, futures: list[Future]) -> None:
    """Stop a pool hard after a timeout: cancel queued work, kill workers."""
    for future in futures:
        future.cancel()
    # Terminate worker processes so a hung replay cannot block interpreter
    # shutdown; ProcessPoolExecutor exposes no public kill, and the
    # private map is absent once the pool is already broken.
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        process.terminate()
