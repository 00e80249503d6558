"""Tests for the benchmark's own arithmetic.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_arithmetic.py -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import replays  # noqa: E402
import run  # noqa: E402
from spans import (  # noqa: E402
    GcWatch,
    Tracer,
    WorkerSpan,
    lateness,
    layer_self_times,
    parallel_metrics,
    percentile,
    ran_late,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


# -- percentiles ---------------------------------------------------------------


def test_p99_needs_ten_samples_beyond_it() -> None:
    values = [float(v) for v in range(1000)]
    assert percentile(values, 0.99) == 989.0
    assert percentile(values[:999], 0.99) is None


def test_p50_needs_twenty_samples() -> None:
    assert percentile([float(v) for v in range(20)], 0.50) == 9.0
    assert percentile([float(v) for v in range(19)], 0.50) is None


def test_percentile_ignores_input_order() -> None:
    values = [float(v) for v in reversed(range(1000))]
    assert percentile(values, 0.99) == 989.0


def test_percentile_rejects_bad_fraction() -> None:
    with pytest.raises(ValueError):
        percentile([1.0] * 100, 1.0)


# -- self time -----------------------------------------------------------------


def test_self_time_of_nested_spans() -> None:
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def inner() -> None:
        clock.tick(2.0)

    traced_inner = tracer.span("inner", "cache", inner)

    def outer() -> None:
        clock.tick(1.0)
        traced_inner()
        clock.tick(3.0)

    tracer.span("outer", "resolver", outer)()
    snapshot = tracer.snapshot()
    assert snapshot["outer"]["total_s"] == 6.0
    assert snapshot["outer"]["self_s"] == 4.0
    assert snapshot["inner"]["self_s"] == 2.0
    assert layer_self_times(snapshot) == {"resolver": 4.0, "cache": 2.0}


def test_self_time_of_reentrant_spans() -> None:
    """A timer body calls ``resolve`` inside ``advance_to``, itself called
    while ``resolve`` is already on the stack one level up."""
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    calls = {"resolve": 0}

    def resolve(depth: int) -> None:
        calls["resolve"] += 1
        clock.tick(1.0)
        if depth == 0:
            traced_advance()
        clock.tick(1.0)

    def advance_to() -> None:
        clock.tick(0.5)
        traced_resolve(1)
        clock.tick(0.5)

    traced_resolve = tracer.span("resolve", "resolver", resolve)
    traced_advance = tracer.span("advance_to", "engine", advance_to)
    traced_resolve(0)
    snapshot = tracer.snapshot()
    # Outer resolve: 2 s own work; advance_to: 1 s own work; inner resolve: 2 s.
    assert snapshot["resolve"]["calls"] == 2
    assert snapshot["resolve"]["self_s"] == 4.0
    assert snapshot["advance_to"]["self_s"] == 1.0
    assert sum(layer_self_times(snapshot).values()) == clock.now == 5.0


def test_span_outcomes_and_tallies() -> None:
    tracer = Tracer(clock=FakeClock())
    lookup = tracer.span("get", "cache", lambda hit: "x" if hit else None,
                         outcome=lambda result: result is not None)
    advance = tracer.span("advance", "engine", lambda fired: fired, count=int)
    for hit in (True, False, True):
        lookup(hit)
    advance(3)
    advance(4)
    snapshot = tracer.snapshot()
    assert (snapshot["get"]["calls"], snapshot["get"]["positive"]) == (3, 2)
    assert snapshot["advance"]["tally"] == 7


def test_wrap_suspend_resume_uninstall() -> None:
    class Owner:
        def work(self) -> int:
            return 1

    original = Owner.__dict__["work"]
    tracer = Tracer(clock=FakeClock())
    tracer.wrap(Owner, "work", "layer")
    assert Owner().work() == 1
    tracer.suspend()
    assert Owner.__dict__["work"] is original
    Owner().work()
    tracer.resume()
    Owner().work()
    tracer.uninstall()
    assert Owner.__dict__["work"] is original
    assert tracer.snapshot()["Owner.work"]["calls"] == 2


def test_handoff_wait_is_charged_to_the_consuming_span() -> None:
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    queued = []

    def submit(executor: object, fn, *args):  # noqa: ANN001, ANN202
        queued.append((fn, args))

    traced_submit = tracer.handoff(submit)
    handle = tracer.span("handle", "resolver", lambda: None, consume_handoff=True)
    traced_submit(None, handle)
    traced_submit(None, lambda: None)  # a timer body: no consuming span
    clock.tick(0.25)
    for fn, args in queued:
        fn(*args)
    assert tracer.queue_waits == [0.25]


def test_gc_watch_times_collections() -> None:
    clock = FakeClock()
    watch = GcWatch(clock=clock)
    watch("start", {"generation": 0})
    clock.tick(0.01)
    watch("stop", {"generation": 0})
    watch("start", {"generation": 2})
    clock.tick(0.2)
    watch("stop", {"generation": 2})
    assert watch.gen2_count == 1
    assert watch.pauses == pytest.approx([0.01, 0.2])


# -- parallel layer ------------------------------------------------------------


def test_parallel_efficiency_and_tail_idle() -> None:
    spans = [
        WorkerSpan(1, 1.0, 4.0), WorkerSpan(1, 4.0, 6.0),
        WorkerSpan(2, 1.5, 5.0), WorkerSpan(2, 5.0, 9.0),
    ]
    metrics = parallel_metrics(0.0, 10.0, 0.5, 2, spans)
    assert metrics["prefork_s"] == 0.5
    assert metrics["pool_start_s"] == 0.5
    assert metrics["worker_busy_s"] == 12.5
    assert metrics["efficiency"] == 12.5 / 20.0
    # Worker 1 finished at 6, the call's last replay at 9.
    assert metrics["tail_idle_s"] == 3.0


def test_parallel_metrics_without_a_pool_read_zero() -> None:
    metrics = parallel_metrics(0.0, 1.0, None, 1, [])
    assert set(metrics.values()) == {0.0}


# -- load generator --------------------------------------------------------------


def test_lateness_is_send_minus_due_never_negative() -> None:
    assert lateness([1.0, 2.0, 3.0], [1.5, 1.9, 3.25]) == [0.5, 0.0, 0.25]
    with pytest.raises(ValueError):
        lateness([1.0], [])


def test_a_run_is_late_when_over_one_percent_of_sends_pass_the_limit() -> None:
    on_time = [0.001] * 1000
    assert not ran_late(on_time, 0.005)
    # 10 of 1,000 late sends: the 99th percentile is still on time.
    assert not ran_late(on_time[:990] + [0.5] * 10, 0.005)
    assert ran_late(on_time[:989] + [0.5] * 11, 0.005)


def test_too_few_sends_to_tell_count_as_late() -> None:
    assert ran_late([0.0] * 100, 0.005)


# -- digests -----------------------------------------------------------------------


def _summary(**changes: object) -> object:
    from repro.experiments.summary import ReplaySummary
    from repro.simulation.metrics import WindowCounters

    base = dict(
        label="vanilla", trace_name="TRC1", sr_queries=10, sr_failures=1,
        sr_cache_hits=5, sr_nxdomain=0, sr_validation_failures=0,
        cs_demand_queries=7, cs_demand_failures=1, cs_renewal_queries=0,
        cs_renewal_failures=0, total_latency=0.5, bytes_out=100, bytes_in=200,
        window=WindowCounters(0.0, 1.0, 3, 1, 2, 1),
    )
    base.update(changes)
    return ReplaySummary(**base)


def test_digest_fields_exist_on_the_summary() -> None:
    from repro.experiments.summary import ReplaySummary

    names = {f.name for f in dataclasses.fields(ReplaySummary)}
    assert set(replays.DIGEST_FIELDS) <= names
    assert len(set(replays.DIGEST_FIELDS)) == len(replays.DIGEST_FIELDS)


def test_digest_ignores_fields_added_later() -> None:
    from repro.experiments.summary import ReplaySummary

    @dataclasses.dataclass(frozen=True)
    class Extended(ReplaySummary):
        new_counter: int = 99

    plain = _summary()
    extended = Extended(**{f.name: getattr(plain, f.name)
                           for f in dataclasses.fields(ReplaySummary)})
    assert replays.digest([extended]) == replays.digest([plain])


def test_digest_changes_with_each_listed_field() -> None:
    base = replays.digest([_summary()])
    assert replays.digest([_summary(sr_failures=2)]) != base
    assert replays.digest([_summary(total_latency=0.5000001)]) != base
    assert replays.digest([_summary(window=None)]) != base


def test_digest_depends_on_order() -> None:
    one, two = _summary(), _summary(label="swr")
    assert replays.digest([one, two]) != replays.digest([two, one])


# -- the metric lists --------------------------------------------------------------


def test_benchmark_json_lists_the_metrics_the_code_reports() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_idle_layers_read_zero() -> None:
    metrics = layers.per_layer_metrics({}, stubs=0, passes=1.0, gc={})
    assert set(metrics) == {name for name, _unit, _better in layers.PER_LAYER}
    assert set(metrics.values()) == {0.0}
