"""The three replay workloads: replay-serial, sweep-parallel, validated-replay.

Each workload builds its inputs from the scenario seed, times that
set-up several times, then runs its units (one replay, one
sweep, one validated leg) round-robin for the requested number of
seconds.  Every unit's output is reduced to a digest over a fixed list
of ``ReplaySummary`` fields; repeats of a unit must produce the same
digest, and for the seeds in ``digests.json`` the digest must equal the
one recorded there from a serial run.  Traced runs also require each
unit's boundary call counts to repeat exactly.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import multiprocessing
import os
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import layers
from spans import (
    GcWatch,
    average_snapshots,
    Tracer,
    WorkerSpan,
    diff_snapshots,
    merge_snapshots,
    parallel_metrics,
)

DAY = 86400.0
HOUR = 3600.0

#: ``setup_s`` is the median of many builds of a workload's inputs:
#: SETUP_FIRST_REPEATS before the timed region, then, before each timed
#: unit and outside its timing, builds until SETUP_GAP_SECONDS have gone
#: into them (at least one).  The samples thus spread over the whole run,
#: as the timed work does, and a swing in the host's speed that lasts
#: seconds moves a few of them rather than all.
SETUP_FIRST_REPEATS = 3
SETUP_GAP_SECONDS = 0.5

DIGESTS_PATH = Path(__file__).with_name("digests.json")

#: The ReplaySummary fields a digest covers.  Fixed, so that a counter
#: added to the summary later leaves recorded digests valid.
DIGEST_FIELDS = (
    "label", "trace_name", "sr_queries", "sr_failures", "sr_cache_hits",
    "sr_nxdomain", "sr_validation_failures", "cs_demand_queries",
    "cs_demand_failures", "cs_renewal_queries", "cs_renewal_failures",
    "total_latency", "bytes_out", "bytes_in", "window", "memory_samples",
    "event_count", "attack_stub_queries", "attack_cs_queries",
    "attack_failures", "flash_queries", "budget_exhaustions", "nxns_capped",
    "poison_attempts", "poison_wins", "poison_stored", "poison_cured",
    "poison_dwells", "sr_stale_hits", "swr_refreshes", "invalidations",
)
WINDOW_FIELDS = ("start", "end", "sr_queries", "sr_failures", "cs_queries",
                 "cs_failures")
MEMORY_FIELDS = ("time", "zones_cached", "records_cached")


def summary_record(summary: Any) -> list[Any]:
    """The digested view of one summary: DIGEST_FIELDS in order."""
    record: list[Any] = []
    for name in DIGEST_FIELDS:
        value = getattr(summary, name)
        if name == "window":
            value = None if value is None else [
                getattr(value, part) for part in WINDOW_FIELDS]
        elif name == "memory_samples":
            value = [[getattr(sample, part) for part in MEMORY_FIELDS]
                     for sample in value]
        elif isinstance(value, tuple):
            value = list(value)
        record.append(value)
    return record


def digest(summaries: list[Any]) -> str:
    """SHA-256 over the digested view of ``summaries``, in order."""
    text = json.dumps([summary_record(s) for s in summaries], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def recorded_digests(workload: str, seed: int) -> dict[str, Any] | None:
    table = json.loads(DIGESTS_PATH.read_text())
    return table.get(workload, {}).get(str(seed))


@dataclass
class Unit:
    """One repeatable piece of timed work."""

    key: str
    run: Callable[[], "UnitOutput"]


@dataclass
class UnitOutput:
    summaries: list[Any]
    ops_checked: int = 0

    @property
    def stub_queries(self) -> int:
        return sum(summary.sr_queries for summary in self.summaries)


@dataclass
class RunResult:
    """What one benchmark run reports."""

    metrics: dict[str, float]
    table: list[tuple[str, float, str]]
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    per_layer: dict[str, float] | None = None
    notes: list[str] = field(default_factory=list)


#: The serial-leg cProfile self-time table in ROADMAP.md (4 TINY
#: replays of ``repro bench``), mapped onto this benchmark's layers.
ROADMAP_PROFILE = (
    ("resolver", "38%", "core/caching_server.py"),
    ("cache", "19%", "core/cache.py"),
    ("network", "5.9%", "simulation/network.py 3.4% + attack.py 2.5%"),
    ("zones", "2.6%", "dns/server.py"),
    ("metrics", "2.6%", "simulation/metrics.py"),
    ("engine", "<1%", "event engine + queue"),
    ("outside spans", "-", "builtins 11%, dns/name.py 4%, dns/message.py "
     "2.9% are charged to their callers"),
)


def self_time_shares(self_s: dict[str, float], wall: float) -> list[str]:
    """Each layer's share of the timed wall, beside the ROADMAP profile."""
    lines = ["self-time share of the timed region (traced) vs ROADMAP cProfile:"]
    timed = {layer: value for layer, value in self_s.items() if layer != "setup"}
    shares = dict(timed, **{"outside spans": wall - sum(timed.values())})
    for layer, roadmap, source in ROADMAP_PROFILE:
        share = shares.get(layer, 0.0) / wall if wall else 0.0
        lines.append(f"  {layer:<14} {share:7.1%}   ROADMAP {roadmap:>5} ({source})")
    return lines


def peak_rss_mb() -> float:
    """Peak RSS of this process or of any child it has waited for."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def reap_children() -> None:
    """Wait for every worker process this process started."""
    for child in multiprocessing.active_children():
        child.join(30)


# ---------------------------------------------------------------------------
# Workload definitions
# ---------------------------------------------------------------------------


@dataclass
class Plan:
    """A workload's set-up and its units."""

    setup: Callable[[int, bool], Any]
    """Build the inputs for a seed; keep them for the units or not."""
    units: Callable[[Any, int], list[Unit]]
    check: Callable[[dict[str, UnitOutput], int, Any], list[str]]
    work: Callable[[UnitOutput], int]
    """What ``work_rate`` counts per unit."""
    warm_up: bool
    """Run the first unit once, untimed, before timing.  The first replay
    in a process runs about 20% slower than later ones (lazy set-up and
    memos filling); a sweep pays that once, not per replay.  Sweeps need
    no warm-up: their replays run in fresh workers every time."""


def _attack_spec(start: float, duration: float) -> Any:
    from repro.experiments.harness import AttackSpec

    return AttackSpec(start=start, duration=duration)


def _fresh_scenario(
    scale: Any, seed: int, traces: tuple[str, ...], keep: bool
) -> Any:
    """Build a scenario and its traces.

    With ``keep`` the scenario replaces the one ``make_scenario`` has
    memoised, so that replay specs find it; otherwise it is a throwaway
    build, timed for ``setup_s`` and left out of the memo so that the
    units keep their warm scenario.
    """
    from repro.experiments.scenarios import make_scenario

    if keep:
        make_scenario.cache_clear()
        scenario = make_scenario(scale, seed)
    else:
        scenario = make_scenario.__wrapped__(scale, seed)
    for name in traces:
        scenario.trace(name)
    return scenario


# replay-serial -------------------------------------------------------------

SERIAL_SCHEMES = ("vanilla", "combination", "swr")


def _serial_setup(seed: int, keep: bool) -> Any:
    from repro.experiments.scenarios import Scale

    return _fresh_scenario(Scale.SMALL, seed, ("TRC1",), keep)


def _serial_units(scenario: Any, seed: int) -> list[Unit]:
    from repro.core.schemes import parse_scheme
    from repro.experiments.parallel import ReplaySpec, run_replays

    attack = _attack_spec(scenario.attack_start, 6 * HOUR)
    units = []
    for scheme in SERIAL_SCHEMES:
        spec = ReplaySpec.for_scenario(
            scenario, "TRC1", parse_scheme(scheme), attack=attack, seed=seed)
        units.append(Unit(scheme, _bind(
            lambda spec: UnitOutput(run_replays([spec], workers=1)), spec)))
    return units


def _serial_check(
    outputs: dict[str, UnitOutput], seed: int, scenario: Any
) -> list[str]:
    expected = len(scenario.trace("TRC1"))
    return [
        f"{key}: replayed {output.stub_queries} of {expected} stub queries"
        for key, output in outputs.items() if output.stub_queries != expected
    ]


# sweep-parallel ------------------------------------------------------------

SWEEP_SCHEMES = ("vanilla", "refresh", "combination", "swr")


def _sweep_setup(seed: int, keep: bool) -> Any:
    from repro.experiments.scenarios import Scale, Scenario

    return _fresh_scenario(Scale.TINY, seed, Scenario.WEEK_TRACES, keep)


def sweep_specs(scenario: Any, seed: int) -> list[Any]:
    from repro.core.schemes import parse_scheme
    from repro.experiments.parallel import ReplaySpec

    attack = _attack_spec(scenario.attack_start, 6 * HOUR)
    return [
        ReplaySpec.for_scenario(scenario, trace, parse_scheme(scheme),
                                attack=attack, seed=seed)
        for trace in scenario.WEEK_TRACES for scheme in SWEEP_SCHEMES
    ]


def _sweep_units(scenario: Any, seed: int) -> list[Unit]:
    from repro.experiments.parallel import run_replays, usable_cpu_count

    specs = sweep_specs(scenario, seed)
    workers = usable_cpu_count()

    def sweep() -> UnitOutput:
        results = run_replays(specs, workers=workers)
        _close_pool()
        return UnitOutput(results)

    return [Unit("sweep", sweep)]


def _close_pool() -> None:
    from repro.experiments.parallel import shutdown_shared_pool

    shutdown_shared_pool()
    reap_children()


def _sweep_check(
    outputs: dict[str, UnitOutput], seed: int, scenario: Any
) -> list[str]:
    """Re-run one replay of the sweep in-process and compare.

    Which replay rotates with the seed.  Recorded seeds are checked
    against the serial digest as well (by the caller).
    """
    from repro.experiments.parallel import run_replays

    specs = sweep_specs(scenario, seed)
    index = seed % len(specs)
    serial = run_replays([specs[index]], workers=1)
    parallel = outputs["sweep"].summaries[index]
    if digest(serial) != digest([parallel]):
        return [f"sweep: parallel result of {specs[index].describe()} differs "
                f"from the serial one"]
    return []


# validated-replay ----------------------------------------------------------


def validation_configs() -> list[Any]:
    """The ``repro validate --smoke`` replay plan."""
    from repro.core.config import ResilienceConfig

    bounded = dataclasses.replace(
        ResilienceConfig.refresh(), cache_capacity=256, label="refresh+cap256")
    return [ResilienceConfig.combination(), bounded, ResilienceConfig.swr(),
            ResilienceConfig.decoupled(7.0)]


def _validated_setup(seed: int, keep: bool) -> Any:
    from repro.experiments.scenarios import Scale
    from repro.workload.generator import TraceGenerator, WorkloadConfig

    scenario = _fresh_scenario(Scale.TINY, seed, (), keep)
    generator = TraceGenerator(
        scenario.built.catalog,
        WorkloadConfig(duration_days=1.0, queries_per_day=1500.0, num_clients=20),
        seed=seed,
    )
    return scenario, generator.generate("VAL-SMOKE", stream=101)


def _validated_units(state: Any, seed: int) -> list[Unit]:
    from repro.experiments.harness import run_replay

    scenario, trace = state
    attack = _attack_spec(0.5 * DAY, 2 * HOUR)

    def leg(config: Any) -> UnitOutput:
        result = run_replay(
            scenario.built, trace, config, attack=attack, seed=seed,
            memory_sample_interval=6 * HOUR, validation=True,
        )
        return UnitOutput([result.to_summary()], result.server.cache.ops_checked)

    return [Unit(config.label, _bind(leg, config))
            for config in validation_configs()]


def _validated_check(
    outputs: dict[str, UnitOutput], seed: int, state: Any
) -> list[str]:
    problems = []
    for key, output in outputs.items():
        if output.ops_checked <= 0:
            problems.append(f"{key}: the oracle checked no cache operation")
    return problems


def _stub_queries(output: UnitOutput) -> int:
    return output.stub_queries


def _ops_checked(output: UnitOutput) -> int:
    return output.ops_checked


def _bind(function: Callable[[Any], UnitOutput], argument: Any) -> Callable[[], UnitOutput]:
    return lambda: function(argument)


PLANS: dict[str, Plan] = {
    "replay-serial": Plan(_serial_setup, _serial_units, _serial_check,
                          _stub_queries, warm_up=True),
    "sweep-parallel": Plan(_sweep_setup, _sweep_units, _sweep_check,
                           _stub_queries, warm_up=False),
    # Oracle-checked cache operations, not stub queries: the oracle does
    # most of this workload's work, and how many operations a stub query
    # costs varies by a third from one scenario seed to the next, which
    # would swamp a stub-query rate.
    "validated-replay": Plan(_validated_setup, _validated_units,
                             _validated_check, _ops_checked, warm_up=True),
}


# ---------------------------------------------------------------------------
# Running a plan
# ---------------------------------------------------------------------------


def unit_digest(output: UnitOutput) -> dict[str, Any]:
    return {"digest": digest(output.summaries), "ops_checked": output.ops_checked}


def count_signature(snapshot: dict[str, dict[str, Any]]) -> dict[str, list[int]]:
    """The deterministic part of a traced replay: calls and outcomes."""
    return {
        name: [stats["calls"], stats["positive"], stats["tally"]]
        for name, stats in sorted(snapshot.items())
        if stats["calls"] and stats["layer"] != "setup"
    }


def replay_key(trace_name: str, label: str) -> str:
    return f"{trace_name}/{label}"


class _WorkerLog:
    """Span records written by traced replays inside forked workers."""

    def __init__(self, directory: Path, tracer: Tracer, watch: GcWatch) -> None:
        self.directory = directory
        self.parent = os.getpid()
        self.tracer = tracer
        self.watch = watch
        self.pools: list[float] = []

    def install(self) -> None:
        from repro.experiments import parallel

        shutil.rmtree(self.directory, ignore_errors=True)
        self.directory.mkdir(parents=True)
        log = self
        original = parallel.run_replay
        base_pool = parallel.ProcessPoolExecutor

        class TimedPool(base_pool):  # type: ignore[misc, valid-type]
            def __init__(self, *args: Any, **kwargs: Any) -> None:
                log.pools.append(time.perf_counter())
                super().__init__(*args, **kwargs)

        def run_replay(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() == log.parent:
                return original(*args, **kwargs)
            before = log.tracer.snapshot()
            pauses, gen2 = len(log.watch.pauses), log.watch.gen2_count
            start = time.perf_counter()
            result = original(*args, **kwargs)
            end = time.perf_counter()
            record = {
                "worker": os.getpid(), "start": start, "end": end,
                "replay": replay_key(result.trace_name, result.label),
                "stats": diff_snapshots(log.tracer.snapshot(), before),
                "gc": {"gen2_count": log.watch.gen2_count - gen2,
                       "pauses": log.watch.pauses[pauses:]},
            }
            path = log.directory / f"worker-{os.getpid()}.jsonl"
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")
            return result

        self.tracer.patch(parallel, "run_replay", run_replay)
        self.tracer.patch(parallel, "ProcessPoolExecutor", TimedPool)

    def drain(self) -> list[dict[str, Any]]:
        records = []
        for path in sorted(self.directory.glob("worker-*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                records.extend(json.loads(line) for line in handle)
            path.unlink()
        return records

    def close(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)


def run_plan(name: str, seed: int, seconds: float, traced: bool) -> RunResult:
    """Set up, run units for ``seconds``, check, and report."""
    plan = PLANS[name]
    problems: list[str] = []
    tracer = Tracer() if traced else None
    watch = GcWatch()
    worker_log = None
    if tracer is not None:
        layers.install(tracer, validation=name == "validated-replay")
        if name == "sweep-parallel":
            worker_log = _WorkerLog(Path(".perfbench-work"), tracer, watch)
            worker_log.install()

    setups: list[float] = []

    def time_setup(keep: bool) -> Any:
        gc.collect()
        start = time.perf_counter()
        built = plan.setup(seed, keep)
        setups.append(time.perf_counter() - start)
        return built

    state = time_setup(keep=True)
    while len(setups) < SETUP_FIRST_REPEATS:
        time_setup(keep=False)
    setup_snapshot = tracer.snapshot() if tracer is not None else {}
    units = plan.units(state, seed)

    if tracer is not None:
        tracer.suspend()
    if plan.warm_up:
        units[0].run()
    if tracer is not None:
        tracer.resume()
        gc.callbacks.append(watch)

    def between_units() -> None:
        """More set-up samples, then a collected heap for the next unit.

        Untraced and outside any unit's timing.  Every timed unit starts
        from a collected heap, so that none pays for another's garbage.
        """
        if tracer is not None:
            tracer.suspend()
            gc.callbacks.remove(watch)
        gap = time.perf_counter()
        time_setup(keep=False)
        while time.perf_counter() - gap < SETUP_GAP_SECONDS:
            time_setup(keep=False)
        gc.collect()
        if tracer is not None:
            gc.callbacks.append(watch)
            tracer.resume()

    walls: dict[str, list[float]] = {unit.key: [] for unit in units}
    first: dict[str, UnitOutput] = {}
    signatures: dict[str, list[dict[str, list[int]]]] = {}
    unit_spans: dict[str, list[dict[str, dict[str, Any]]]] = {}
    sweeps: list[tuple[float, float, float | None]] = []
    attempted = failed = 0
    runs = 0
    timed = 0.0
    pauses_before = (len(watch.pauses), watch.gen2_count)
    while True:
        unit = units[runs % len(units)]
        if runs >= len(units):
            if timed + statistics.median(walls[unit.key]) > seconds:
                break
        between_units()
        unit_before = tracer.snapshot() if tracer is not None else {}
        pools_before = len(worker_log.pools) if worker_log is not None else 0
        start = time.perf_counter()
        try:
            output = unit.run()
        except Exception:  # noqa: BLE001 - a raising replay is a reported failure
            traceback.print_exc(file=sys.stderr)
            attempted += 1
            failed += 1
            problems.append(f"{unit.key}: raised")
            break
        end = time.perf_counter()
        attempted += len(output.summaries)
        walls[unit.key].append(end - start)
        timed += end - start
        runs += 1
        if unit.key not in first:
            first[unit.key] = output
        elif unit_digest(output) != unit_digest(first[unit.key]):
            problems.append(f"{unit.key}: a repeat gave different results")
        if worker_log is not None:
            pool = (worker_log.pools[pools_before]
                    if len(worker_log.pools) > pools_before else None)
            sweeps.append((start, end, pool))
        if tracer is not None and worker_log is None:
            spans = diff_snapshots(tracer.snapshot(), unit_before)
            unit_spans.setdefault(unit.key, []).append(spans)
            signatures.setdefault(unit.key, []).append(count_signature(spans))
    wall_of_pass = sum(statistics.median(w) for w in walls.values() if w)
    gc_stats = {"gen2_count": watch.gen2_count - pauses_before[1],
                "pauses": watch.pauses[pauses_before[0]:]}
    calibration = 0.0
    if tracer is not None:
        # One untraced pass, run after the traced ones so that both are
        # warm, gives the tracing overhead.
        gc.callbacks.remove(watch)
        tracer.suspend()
        for unit in units:
            gc.collect()
            start = time.perf_counter()
            unit.run()
            calibration += time.perf_counter() - start

    pass_queries = sum(output.stub_queries for output in first.values())
    recorded = recorded_digests(name, seed) or {}
    if len(first) == len(units):
        problems.extend(plan.check(first, seed, state))
        for key, output in first.items():
            if key in recorded and any(
                recorded[key][field_] != value
                for field_, value in unit_digest(output).items()
            ):
                problems.append(f"{key}: results differ from the digest "
                                f"recorded for seed {seed}")
    elif not problems:
        problems.append("not every unit ran")

    per_layer = None
    notes: list[str] = []
    if tracer is not None:
        parallel = None
        if worker_log is not None:
            records = worker_log.drain()
            unit_spans["sweep"] = [
                merge_snapshots(r["stats"] for r in records
                                if start <= r["start"] <= end)
                for start, end, _pool in sweeps
            ]
            gc_stats = {
                "gen2_count": sum(r["gc"]["gen2_count"] for r in records),
                "pauses": [p for r in records for p in r["gc"]["pauses"]],
            }
            parallel = _parallel_layer(sweeps, records)
            for record in records:
                signatures.setdefault(record["replay"], []).append(
                    count_signature(record["stats"]))
        problems.extend(
            f"{key}: traced counts did not repeat"
            for key, runs_ in signatures.items()
            if any(run != runs_[0] for run in runs_))
        # One pass: each unit's spans averaged over its runs.
        one_pass = merge_snapshots(
            average_snapshots(runs_) for runs_ in unit_spans.values() if runs_)
        for key in ("scenarios.build_hierarchy", "TraceGenerator.generate"):
            if key in setup_snapshot:
                one_pass[key] = setup_snapshot[key]
        summaries = [s for output in first.values() for s in output.summaries]
        per_layer = layers.per_layer_metrics(
            one_pass, stubs=pass_queries, passes=runs / len(units), gc=gc_stats,
            upstream=sum(s.total_outgoing for s in summaries),
            renewal=sum(s.cs_renewal_queries for s in summaries),
            ops_checked=sum(output.ops_checked for output in first.values()),
            parallel=parallel,
            overhead_ratio=wall_of_pass / calibration if calibration else 0.0,
        )
        tracer.uninstall()
        if worker_log is not None:
            worker_log.close()
        if name == "replay-serial":
            notes = self_time_shares(layers.layer_self_times(one_pass),
                                     wall_of_pass)

    reap_children()
    qps = pass_queries / wall_of_pass if wall_of_pass else 0.0
    pass_work = sum(plan.work(output) for output in first.values())
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "work_rate": pass_work / wall_of_pass if wall_of_pass else 0.0,
    }
    table = [(name_, value, unit_) for name_, value, unit_ in (
        ("setup_s", metrics["setup_s"], "s"),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB"),
        ("work_rate", metrics["work_rate"], "1/s"),
        ("replay_qps", qps, "q/s"),
        ("fail_ratio", failed / attempted if attempted else 0.0, "ratio"),
        ("pass_wall_s", wall_of_pass, "s"),
        ("units_run", float(runs), "count"),
    )]
    for key, values in walls.items():
        if values:
            table.append((f"unit[{key}]_s", statistics.median(values), "s"))
    return RunResult(metrics, table, attempted, failed, problems, per_layer,
                     notes)


def _parallel_layer(
    sweeps: list[tuple[float, float, float | None]],
    records: list[dict[str, Any]],
) -> dict[str, float]:
    from repro.experiments.parallel import usable_cpu_count

    per_sweep = []
    for start, end, pool in sweeps:
        spans = [WorkerSpan(r["worker"], r["start"], r["end"])
                 for r in records if start <= r["start"] <= end]
        per_sweep.append(parallel_metrics(start, end, pool, usable_cpu_count(),
                                          spans))
    if not per_sweep:
        return {}
    return {key: statistics.mean(m[key] for m in per_sweep)
            for key in per_sweep[0]}
