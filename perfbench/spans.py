"""The benchmark's own arithmetic: spans, self time, percentiles, GC pauses.

Nothing here imports the program under test.  :class:`Tracer` wraps a
callable so that every call records a span; a span's *self time* is its
duration minus the time covered by the spans opened inside it, so
nested and re-entrant calls (a renewal timer body calling ``resolve``
inside ``advance_to`` inside ``handle_stub_query``) are never counted
twice.  Spans are aggregated as they close, per boundary, per thread.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it (so p99 needs 1,000 samples and p50 needs 20).
MIN_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], fraction: float) -> float | None:
    """Nearest-rank percentile, or None when too few samples lie beyond it.

    ``values`` need not be sorted.  The sample at rank ``ceil(q * n)`` is
    returned only when at least :data:`MIN_SAMPLES_BEYOND` samples rank
    above it.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    count = len(values)
    rank = math.ceil(fraction * count)
    if rank < 1 or count - rank < MIN_SAMPLES_BEYOND:
        return None
    return sorted(values)[rank - 1]


@dataclass
class BoundaryStats:
    """Aggregate of every span recorded at one wrapped callable."""

    layer: str
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    positive: int = 0
    """Calls whose result the boundary's ``outcome`` test accepted."""
    tally: int = 0
    """Sum of the boundary's ``count`` function over results."""
    durations: list[float] = field(default_factory=list)
    """Per-call durations, kept only for boundaries asked to keep them."""

    def snapshot(self) -> dict[str, Any]:
        return {
            "layer": self.layer, "calls": self.calls, "self_s": self.self_s,
            "total_s": self.total_s, "positive": self.positive,
            "tally": self.tally, "durations": list(self.durations),
        }


def diff_snapshots(
    after: dict[str, dict[str, Any]], before: dict[str, dict[str, Any]]
) -> dict[str, dict[str, Any]]:
    """What happened between two :meth:`Tracer.snapshot` calls."""
    out = {}
    for name, stats in after.items():
        base = before.get(name)
        if base is None:
            out[name] = stats
            continue
        out[name] = {
            "layer": stats["layer"],
            "calls": stats["calls"] - base["calls"],
            "self_s": stats["self_s"] - base["self_s"],
            "total_s": stats["total_s"] - base["total_s"],
            "positive": stats["positive"] - base["positive"],
            "tally": stats["tally"] - base["tally"],
            "durations": stats["durations"][len(base["durations"]):],
        }
    return out


def merge_snapshots(
    snapshots: Iterable[dict[str, dict[str, Any]]],
) -> dict[str, dict[str, Any]]:
    """Sum several snapshots boundary by boundary."""
    out: dict[str, dict[str, Any]] = {}
    for snapshot in snapshots:
        for name, stats in snapshot.items():
            total = out.get(name)
            if total is None:
                out[name] = {**stats, "durations": list(stats["durations"])}
                continue
            for key in ("calls", "self_s", "total_s", "positive", "tally"):
                total[key] += stats[key]
            total["durations"].extend(stats["durations"])
    return out


def average_snapshots(
    snapshots: list[dict[str, dict[str, Any]]],
) -> dict[str, dict[str, Any]]:
    """The mean of several snapshots of the same work; durations pooled."""
    total = merge_snapshots(snapshots)
    for stats in total.values():
        for key in ("calls", "self_s", "total_s", "positive", "tally"):
            stats[key] /= len(snapshots)
    return total


class Tracer:
    """Installs span-recording wrappers and undoes them on :meth:`uninstall`."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.boundaries: dict[str, BoundaryStats] = {}
        self._stacks: dict[int, list[list[float]]] = {}
        self._patches: list[tuple[Any, str, Any, Any]] = []
        self.handoff_waits: dict[int, float] = {}
        """Per thread: queue wait of the hand-off whose body is running."""
        self.queue_waits: list[float] = []

    def _stack(self) -> list[list[float]]:
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks[ident] = []
        return stack

    def span(
        self,
        name: str,
        layer: str,
        function: Callable[..., Any],
        *,
        outcome: Callable[[Any], bool] | None = None,
        count: Callable[[Any], int] | None = None,
        keep: bool = False,
        consume_handoff: bool = False,
    ) -> Callable[..., Any]:
        """``function`` wrapped so each call records one span under ``name``.

        ``outcome`` counts results it accepts into ``positive``; ``count``
        adds its value into ``tally``; ``keep`` stores every duration;
        ``consume_handoff`` files the pending hand-off wait of this thread
        (see :meth:`handoff`) as a queue wait for this call.
        """
        stats = self.boundaries.get(name)
        if stats is None:
            stats = self.boundaries[name] = BoundaryStats(layer)
        clock = self.clock
        stack_of = self._stack
        waits = self.handoff_waits
        queue_waits = self.queue_waits
        durations = stats.durations

        def traced(*args: Any, **kwargs: Any) -> Any:
            if consume_handoff:
                wait = waits.pop(threading.get_ident(), None)
                if wait is not None:
                    queue_waits.append(wait)
            stack = stack_of()
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - frame[0]
                if keep:
                    durations.append(elapsed)
            if outcome is not None and outcome(result):
                stats.positive += 1
            if count is not None:
                stats.tally += count(result)
            return result

        return functools.wraps(function)(traced)

    def wrap(
        self, owner: Any, attribute: str, layer: str, name: str | None = None,
        **options: Any,
    ) -> None:
        """Replace ``owner.attribute`` (a class or a module) with a traced one.

        The span is named ``<owner>.<attribute>`` unless ``name`` is given.
        """
        original = owner.__dict__[attribute]
        label = getattr(owner, "__name__", str(owner)).rsplit(".", 1)[-1]
        traced = self.span(name or f"{label}.{attribute}", layer, original,
                           **options)
        self.patch(owner, attribute, traced)

    def handoff(self, submit: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap an executor ``submit`` so the body's queue wait is known.

        The wait from hand-off to the start of the body is parked for the
        executing thread; the next span opened with ``consume_handoff``
        on that thread takes it.  Bodies that open no such span (timer
        bodies) simply leave it to be overwritten.
        """
        clock = self.clock
        waits = self.handoff_waits

        def traced_submit(executor: Any, fn: Callable[..., Any], /,
                          *args: Any, **kwargs: Any) -> Any:
            handed = clock()

            def body(*inner: Any, **inner_kw: Any) -> Any:
                waits[threading.get_ident()] = clock() - handed
                return fn(*inner, **inner_kw)

            return submit(executor, body, *args, **kwargs)

        return traced_submit

    def patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        """Set ``owner.attribute`` to ``replacement`` until uninstall."""
        self._patches.append(
            (owner, attribute, owner.__dict__[attribute], replacement))
        setattr(owner, attribute, replacement)

    def suspend(self) -> None:
        """Put the originals back, keeping the wrappers for :meth:`resume`."""
        for owner, attribute, original, _replacement in reversed(self._patches):
            setattr(owner, attribute, original)

    def resume(self) -> None:
        for owner, attribute, _original, replacement in self._patches:
            setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        self.suspend()
        self._patches.clear()

    def snapshot(self) -> dict[str, dict[str, Any]]:
        return {name: stats.snapshot() for name, stats in self.boundaries.items()}


def layer_self_times(snapshot: dict[str, dict[str, Any]]) -> dict[str, float]:
    """Self time summed per layer."""
    out: dict[str, float] = {}
    for stats in snapshot.values():
        out[stats["layer"]] = out.get(stats["layer"], 0.0) + stats["self_s"]
    return out


class GcWatch:
    """A ``gc.callbacks`` hook timing every collection."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.gen2_count = 0
        self.pauses: list[float] = []
        self._started: float | None = None

    def __call__(self, phase: str, info: dict[str, int]) -> None:
        if phase == "start":
            self._started = self.clock()
            return
        if self._started is None:
            return
        self.pauses.append(self.clock() - self._started)
        self._started = None
        if info.get("generation") == 2:
            self.gen2_count += 1

    def snapshot(self) -> dict[str, Any]:
        return {"gen2_count": self.gen2_count, "pauses": list(self.pauses)}


# ---------------------------------------------------------------------------
# Parallel layer arithmetic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorkerSpan:
    """One replay executed by one worker process."""

    worker: int
    start: float
    end: float


def parallel_metrics(
    call_start: float,
    call_end: float,
    pool_created: float | None,
    workers: int,
    spans: Sequence[WorkerSpan],
) -> dict[str, float]:
    """The parallel layer's costs for one ``run_replays`` call.

    * ``prefork_s``: call start until the pool object exists (building
      the shared world the workers inherit).
    * ``pool_start_s``: pool creation until the first replay starts.
    * ``worker_busy_s``: replay time summed over workers.
    * ``efficiency``: busy time over ``workers`` times the call's wall.
    * ``tail_idle_s``: per worker, the time from its last replay's end
      until the last replay of the call ends, summed.
    """
    if not spans or pool_created is None:
        return {"prefork_s": 0.0, "pool_start_s": 0.0, "worker_busy_s": 0.0,
                "efficiency": 0.0, "tail_idle_s": 0.0}
    wall = call_end - call_start
    busy = sum(span.end - span.start for span in spans)
    last_end: dict[int, float] = {}
    for span in spans:
        last_end[span.worker] = max(last_end.get(span.worker, span.end), span.end)
    finish = max(last_end.values())
    return {
        "prefork_s": pool_created - call_start,
        "pool_start_s": min(span.start for span in spans) - pool_created,
        "worker_busy_s": busy,
        "efficiency": busy / (workers * wall) if wall > 0 else 0.0,
        "tail_idle_s": sum(finish - end for end in last_end.values()),
    }


def lateness(due: Sequence[float], sent: Sequence[float]) -> list[float]:
    """How late each send was against its due time (never negative)."""
    if len(due) != len(sent):
        raise ValueError("due and sent times must pair up")
    return [max(0.0, actual - planned) for planned, actual in zip(due, sent)]


def ran_late(late: Sequence[float], limit: float) -> bool:
    """Whether more than 1% of the sends left over ``limit`` seconds late.

    Too few sends to tell count as late: the run cannot show otherwise.
    """
    p99 = percentile(late, 0.99)
    return p99 is None or p99 > limit
