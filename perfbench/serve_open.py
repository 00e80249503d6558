"""The serve-open workload: open-loop UDP against a fresh front end per rate.

The load comes from this process: one thread, one UDP socket.  Query
``i`` is due at ``t0 + i / rate``; it is sent as soon as it is due and
its latency is timed from the due time, so a stall in the server (or a
late generator) is charged to every query it delays.  The questions are
SMALL TRC1's, in trace order from the start, without wrapping.  Each
rate gets a new server child, so every run sees the same sequence of
misses and hits.

Every answer is checked after the window against an in-process
``CachingServer`` fed the same question stream over the same tree and
scheme: rcode plus the answer RRset's owner, type and data must be one
of the answers it gave that question.
"""

from __future__ import annotations

import collections
import json
import select
import socket
import statistics
import struct
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import layers
from spans import lateness, merge_snapshots, percentile, ran_late

#: Offered rates in queries per second, pinned.  Chosen on a 2-core
#: x86-64 container (Python 3.11, seed 7, 4.2 s windows): offered 3,000,
#: 4,500 and 6,000 q/s gave goodput 2,800, 3,066 and 3,054 q/s (loss 7%,
#: 32%, 49%), so goodput stops following the offered rate between 3,000
#: and 4,500 q/s.  In this benchmark's own 7 s overload windows, two sets
#: of ten runs on the same container gave goodput medians of 3,383 q/s
#: (quartiles 3,058-3,488, loss 25%) and 2,831 q/s (2,674-2,985, loss
#: 37%), the host's speed having drifted between them: ``overload`` sits
#: 1.3-1.6x past the measured capacity, ``busy`` at a third of it or
#: less and ``light`` at about a twelfth.
RATES = (("light", 250.0), ("busy", 1000.0), ("overload", 4500.0))

#: A rate's run is flagged, and its figures are not to be compared with
#: another run's, when more than 1% of its sends left more than this
#: many seconds after their due time: the generator, not the server,
#: then shaped the load.  On the container above the 99th percentile of
#: lateness has medians of 0.8 ms at ``light``, 1.7 ms at ``busy`` and
#: 3.3 ms at ``overload`` over ten runs.
LATE_LIMIT_S = 0.005

#: A query unanswered this long after it was sent counts as lost.
TIMEOUT_S = 1.0

#: Seconds of a run spent outside the send windows: building the
#: question stream and reference answers, and per rate a child start,
#: the drain after the window and the child's stop.
OUTSIDE_WINDOWS_S = 6.0

#: Each rate's share of the run's send time.  ``light`` must reach the
#: 1,000 samples a p99 needs within its share of a 20 s run; the rest
#: goes mostly to ``overload``, whose goodput averages over the server's
#: gen-2 GC pauses (about 150 ms each, a few per window).
WINDOW_SHARES = {"light": 0.3, "busy": 0.2, "overload": 0.5}

CHILD = Path(__file__).with_name("serve_child.py")

_ID = struct.Struct("!H")


@dataclass
class RateResult:
    name: str
    rate: float
    window_s: float
    setup_s: float
    sent: int = 0
    correct: int = 0
    unanswered: int = 0
    servfail: int = 0
    wrong: int = 0
    latencies: list[float] = field(default_factory=list)
    late: list[float] = field(default_factory=list)
    first_seen: int = 0
    child: dict[str, Any] = field(default_factory=dict)


def answer_key(rcode: int, answer: Any) -> tuple:
    """What a correct answer must match: rcode plus the RRset's content."""
    if answer is None:
        return (rcode, None)
    data = tuple(sorted(str(record.data) for record in answer.records))
    return (rcode, str(answer.name), int(answer.rrtype), data)


def reference_answers(built: Any, questions: list[Any]) -> dict[Any, set[tuple]]:
    """Every answer an in-process resolver gives each question, in order.

    The questions go through one ``CachingServer`` over the same tree and
    scheme as the front end, in the order the generator sends them.  A
    served answer is correct when it is one of the answers the in-process
    resolver gave that question: the front end may answer a follower
    from an earlier resolution (its serve-stale memo), so only the set,
    not the position, is fixed.
    """
    from repro.core.caching_server import CachingServer, ResolutionOutcome
    from repro.core.schemes import parse_scheme
    from repro.dns.message import Rcode
    from repro.simulation.engine import SimulationEngine
    from repro.simulation.network import Network

    import serve_child

    resolver = CachingServer(
        root_hints=built.tree.root_hints(), network=Network(built.tree),
        clock=SimulationEngine(), config=parse_scheme(serve_child.SCHEME),
    )
    expected: dict[Any, set[tuple]] = {}
    for question in questions:
        resolution = resolver.handle_stub_query(question.name, question.rrtype, 0.0)
        if resolution.failed:
            key = answer_key(int(Rcode.SERVFAIL), None)
        elif resolution.outcome is ResolutionOutcome.NXDOMAIN:
            key = answer_key(int(Rcode.NXDOMAIN), None)
        else:
            key = answer_key(int(Rcode.NOERROR), resolution.answer)
        expected.setdefault((question.name, question.rrtype), set()).add(key)
    return expected


class ServerChild:
    """A serve_child.py process; the context manager always reaps it."""

    def __init__(self, seed: int, traced: bool) -> None:
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(CHILD), "--seed", str(seed),
             "--trace", str(int(traced))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __enter__(self) -> "ServerChild":
        return self

    def wait_ready(self) -> tuple[int, float]:
        """The child's port, and seconds from launch until it answered."""
        assert self.process.stdout is not None
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("serve child exited before listening")
        port = json.loads(line)["port"]
        probe = _ID.pack(0xBEEF) + bytes(10)  # no question: FORMERR, no cache use
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.connect(("127.0.0.1", port))
            sock.settimeout(0.05)
            deadline = time.perf_counter() + 30.0
            while True:
                sock.send(probe)
                try:
                    sock.recv(512)
                    break
                except socket.timeout:
                    if time.perf_counter() > deadline:
                        raise RuntimeError("serve child never answered") from None
        return port, time.perf_counter() - self.started

    def finish(self) -> dict[str, Any]:
        """Ask the child to stop and return its report."""
        stdout, _ = self.process.communicate("stop\n", timeout=60)
        if self.process.returncode != 0:
            raise RuntimeError(f"serve child exited {self.process.returncode}")
        return json.loads(stdout.strip().splitlines()[-1])

    def __exit__(self, *exc: Any) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()


def drive(port: int, bodies: list[bytes], rate: float) -> tuple[
        list[float], list[float], list[float | None], list[bytes | None]]:
    """Send ``bodies`` open-loop at ``rate``; return due, sent, received, data.

    A message id is never reused while a query carrying it is
    outstanding: ids come from a FIFO of free ids and return to its tail
    on answer or timeout.
    """
    count = len(bodies)
    due = [0.0] * count
    sent = [0.0] * count
    received: list[float | None] = [None] * count
    responses: list[bytes | None] = [None] * count
    ids = [0] * count
    outstanding: dict[int, int] = {}
    free = collections.deque(range(1, 0x10000))
    clock = time.perf_counter
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 22)
        sock.connect(("127.0.0.1", port))
        sock.setblocking(False)
        start = clock() + 0.05
        for index in range(count):
            due[index] = start + index / rate
        next_send = expire = 0
        while True:
            now = clock()
            while next_send < count and due[next_send] <= now:
                message_id = free.popleft()
                outstanding[message_id] = next_send
                ids[next_send] = message_id
                sock.send(_ID.pack(message_id) + bodies[next_send])
                now = sent[next_send] = clock()
                next_send += 1
            while expire < next_send and now - sent[expire] > TIMEOUT_S:
                if outstanding.get(ids[expire]) == expire:
                    del outstanding[ids[expire]]
                    free.append(ids[expire])
                expire += 1
            if next_send == count and not outstanding:
                break
            wait = due[next_send] - now if next_send < count else 0.05
            readable, _, _ = select.select([sock], [], [], max(0.0, wait))
            if not readable:
                continue
            while True:
                try:
                    data = sock.recv(4096)
                except BlockingIOError:
                    break
                arrived = clock()
                if len(data) < 2:
                    continue
                index = outstanding.pop(_ID.unpack_from(data)[0], -1)
                if index < 0:
                    continue
                free.append(ids[index])
                received[index] = arrived
                responses[index] = data
    return due, sent, received, responses


def run_rate(
    name: str, rate: float, window: float, seed: int, traced: bool,
    questions: list[Any], expected: dict[Any, set[tuple]],
) -> RateResult:
    from repro.serve.wire import WireFormatError, decode_message, encode_query

    count = int(rate * window)
    if count > len(questions):
        raise ValueError(f"{name}: {count} queries exceed the trace's "
                         f"{len(questions)}; the stream must not wrap")
    asked = questions[:count]
    bodies = [encode_query(question, 0)[2:] for question in asked]
    with ServerChild(seed, traced) as child:
        port, setup = child.wait_ready()
        due, sent, received, responses = drive(port, bodies, rate)
        report = child.finish()
    result = RateResult(name, rate, window, setup, sent=count, child=report)
    result.late = lateness(due, sent)
    seen: set[tuple] = set()
    for index, question in enumerate(asked):
        key = (question.name, question.rrtype)
        if key not in seen:
            seen.add(key)
            result.first_seen += 1
        data = responses[index]
        arrival = received[index]
        if data is None or arrival is None or arrival - sent[index] > TIMEOUT_S:
            result.unanswered += 1
            continue
        result.latencies.append(arrival - due[index])
        try:
            message = decode_message(data).message
        except WireFormatError:
            result.wrong += 1
            continue
        if (message.question.name, message.question.rrtype) != key:
            result.wrong += 1
            continue
        got = answer_key(int(message.rcode),
                         message.answer[0] if message.answer else None)
        if got in expected[key]:
            result.correct += 1
        elif int(message.rcode) == 2:
            result.servfail += 1
        else:
            result.wrong += 1
    return result


def run_serve_open(seed: int, seconds: float, traced: bool) -> Any:
    from replays import RunResult, peak_rss_mb
    from repro.dns.message import Question
    from repro.experiments.scenarios import Scale, make_scenario

    send_time = max(3.0, seconds - OUTSIDE_WINDOWS_S)
    windows = {name: share * send_time for name, share in WINDOW_SHARES.items()}
    scenario = make_scenario(Scale.SMALL, seed)
    trace = scenario.trace("TRC1")
    needed = max(int(rate * windows[name]) for name, rate in RATES)
    questions = [Question(q.qname, q.rrtype) for q in trace.queries[:needed]]
    expected = reference_answers(scenario.built, questions)

    results = {
        name: run_rate(name, rate, windows[name], seed, traced, questions, expected)
        for name, rate in RATES
    }
    overhead_ratio = 0.0
    if traced:
        # The overload window again, untraced: tracing overhead as the
        # loss of goodput it causes.
        name, rate = RATES[-1]
        plain = run_rate(name, rate, windows[name], seed, False, questions,
                         expected)
        overhead_ratio = plain.correct / results[name].correct
    light, busy, overload = results["light"], results["busy"], results["overload"]
    problems = [
        f"{r.name}: {r.wrong} wrong answers" for r in results.values() if r.wrong
    ]
    attempted = light.sent + busy.sent
    failed = sum(r.unanswered + r.servfail + r.wrong for r in (light, busy))
    goodput = overload.correct / overload.window_s
    metrics = {
        "setup_s": statistics.median(r.setup_s for r in results.values()),
        "peak_rss_mb": max(peak_rss_mb(), *(r.child["peak_rss_mb"]
                                            for r in results.values())),
        "work_rate": goodput,
    }

    def ms(values: list[float], fraction: float) -> float:
        value = percentile(values, fraction)
        return float("nan") if value is None else value * 1000.0

    late = [value for r in results.values() for value in r.late]
    table = [
        ("setup_s", metrics["setup_s"], "s"),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB"),
        ("work_rate", goodput, "1/s"),
        ("fail_ratio", failed / attempted if attempted else 0.0, "ratio"),
        ("light_p50_ms", ms(light.latencies, 0.50), "ms"),
        ("light_p99_ms", ms(light.latencies, 0.99), "ms"),
        ("busy_p50_ms", ms(busy.latencies, 0.50), "ms"),
        ("busy_p99_ms", ms(busy.latencies, 0.99), "ms"),
        ("overload_goodput_qps", goodput, "q/s"),
        ("overload_loss_ratio", overload.unanswered / overload.sent, "ratio"),
        ("loadgen.late_p99_ms", ms(late, 0.99), "ms"),
        ("loadgen.late_max_ms", max(late) * 1000.0, "ms"),
        ("overload_window_s", overload.window_s, "s"),
        *((f"loadgen.{r.name}_late_p99_ms", ms(r.late, 0.99), "ms")
          for r in results.values()),
        # Questions the in-process resolver itself answered two ways
        # (e.g. NODATA, then NXDOMAIN from its negative cache).
        ("reference_inconsistent", float(sum(
            len(keys) > 1 for keys in expected.values())), "count"),
    ]
    notes = [
        f"LATE: the generator ran late at {r.name} ({r.rate:g} q/s): more than "
        f"1% of sends left over {LATE_LIMIT_S * 1000:g} ms after their due "
        f"time; do not compare this run's figures"
        for r in results.values() if ran_late(r.late, LATE_LIMIT_S)
    ]
    table.append(("loadgen.late_rates", float(len(notes)), "count"))
    per_layer = _per_layer(results, late, overhead_ratio) if traced else None
    return RunResult(metrics, table, attempted, failed, problems, per_layer,
                     notes)


def _per_layer(
    results: dict[str, RateResult], late: list[float], overhead_ratio: float,
) -> dict[str, float]:
    children = [r.child for r in results.values()]
    snapshot = merge_snapshots(child["spans"] for child in children)
    queue_waits = [w for child in children for w in child["queue_waits"]]
    gc_stats = {
        "gen2_count": sum(child["gc"]["gen2_count"] for child in children),
        "pauses": [p for child in children for p in child["gc"]["pauses"]],
    }
    serve = layers.serve_layer_metrics(
        snapshot, queue_waits,
        queries=sum(child["udp_queries"] for child in children),
        cache_hits=sum(child["cache_hits"] for child in children),
        resolutions=sum(child["resolutions"] for child in children),
    )
    sent = sum(r.sent for r in results.values())
    serve["first_seen_ratio"] = sum(r.first_seen for r in results.values()) / sent
    late_p99 = percentile(late, 0.99)
    loadgen = {"late_p99_ms": (late_p99 or 0.0) * 1000.0,
               "late_max_ms": max(late) * 1000.0}
    stubs = sum(child["resolutions"] for child in children)
    return layers.per_layer_metrics(
        snapshot, stubs=stubs, passes=1.0, gc=gc_stats, serve=serve,
        upstream=sum(child["upstream"] for child in children),
        renewal=sum(child["renewal"] for child in children),
        loadgen=loadgen, overhead_ratio=overhead_ratio,
    )
