"""Which public entry points belong to which layer, and the per-layer metrics.

LAYERS.md beside this file is the prose version of :func:`install`.
Wrapping happens from here, from outside ``src/``: a class attribute or
a module binding is replaced by a :class:`~spans.Tracer` span and put
back by ``Tracer.uninstall``.
"""

from __future__ import annotations

import statistics
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from spans import Tracer, layer_self_times, percentile

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("resolver.self_s", "s", "lower"),
    ("resolver.upstream_per_stub", "ratio", "lower"),
    ("resolver.renewal_per_stub", "ratio", "lower"),
    ("cache.self_s", "s", "lower"),
    ("cache.gets_per_stub", "ratio", "lower"),
    ("cache.puts_per_stub", "ratio", "lower"),
    ("cache.get_hit_ratio", "ratio", "higher"),
    ("cache.put_stored_ratio", "ratio", "higher"),
    ("zones.respond_calls", "count", "lower"),
    ("zones.self_s", "s", "lower"),
    ("network.query_calls", "count", "lower"),
    ("network.lost_ratio", "ratio", "lower"),
    ("network.self_s", "s", "lower"),
    ("engine.events_fired", "count", "lower"),
    ("engine.schedule_calls", "count", "lower"),
    ("engine.self_s", "s", "lower"),
    ("metrics.calls_per_stub", "ratio", "lower"),
    ("metrics.self_s", "s", "lower"),
    ("setup.hierarchy_s", "s", "lower"),
    ("setup.traces_s", "s", "lower"),
    ("parallel.prefork_s", "s", "lower"),
    ("parallel.pool_start_s", "s", "lower"),
    ("parallel.worker_busy_s", "s", "lower"),
    ("parallel.efficiency", "ratio", "higher"),
    ("parallel.tail_idle_s", "s", "lower"),
    ("validation.ops_checked", "count", "lower"),
    ("validation.oracle_self_s", "s", "lower"),
    ("validation.oracle_us_per_op", "us", "lower"),
    ("validation.final_check_s", "s", "lower"),
    ("wire.decode_us", "us", "lower"),
    ("wire.encode_us", "us", "lower"),
    ("serve.queue_wait_p50_ms", "ms", "lower"),
    ("serve.queue_wait_p99_ms", "ms", "lower"),
    ("serve.resolve_p50_ms", "ms", "lower"),
    ("serve.resolve_p99_ms", "ms", "lower"),
    ("serve.leader_ratio", "ratio", "lower"),
    ("serve.cache_hit_ratio", "ratio", "higher"),
    ("serve.first_seen_ratio", "ratio", "lower"),
    ("runtime.gc2_count", "count", "lower"),
    ("runtime.gc_pause_max_ms", "ms", "lower"),
    ("runtime.gc_pause_s", "s", "lower"),
    ("loadgen.late_p99_ms", "ms", "lower"),
    ("loadgen.late_max_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

CACHE_LOOKUPS = ("DnsCache.get", "DnsCache.get_stale", "DnsCache.get_negative",
                 "DnsCache.get_chain")
FINAL_CHECKS = ("invariants.check_cache_invariants",
                "invariants.check_renewal_invariants", "DifferentialCache.audit")


def _public_methods(cls: type) -> list[str]:
    return sorted(
        name for name, value in vars(cls).items()
        if not name.startswith("_") and callable(value)
    )


def install(tracer: Tracer, *, validation: bool = False, serve: bool = False) -> None:
    """Wrap every layer boundary the workload can reach."""
    from repro.core.cache import DnsCache
    from repro.core.caching_server import CachingServer
    from repro.dns.server import AuthoritativeServer
    from repro.experiments import scenarios
    from repro.simulation.engine import SimulationEngine
    from repro.simulation.metrics import ReplayMetrics
    from repro.simulation.network import Network
    from repro.workload.generator import TraceGenerator

    tracer.wrap(CachingServer, "handle_stub_query", "resolver",
                keep=serve, consume_handoff=serve)
    tracer.wrap(CachingServer, "resolve", "resolver")
    tracer.wrap(DnsCache, "get", "cache", outcome=_is_not_none)
    # An observed cache (the front end's) rebinds ``get`` to this variant.
    tracer.wrap(DnsCache, "_observed_get", "cache", name="DnsCache.get",
                outcome=_is_not_none)
    tracer.wrap(DnsCache, "put", "cache", outcome=_stored)
    for name in ("get_stale", "get_negative", "put_negative", "best_zone_for",
                 "get_chain"):
        tracer.wrap(DnsCache, name, "cache")
    tracer.wrap(AuthoritativeServer, "respond", "zones")
    tracer.wrap(Network, "query", "network", outcome=_answered)
    tracer.wrap(SimulationEngine, "advance_to", "engine", count=int)
    for name in ("schedule", "schedule_in", "cancel"):
        tracer.wrap(SimulationEngine, name, "engine")
    for name in _public_methods(ReplayMetrics):
        if name.startswith("record_"):
            tracer.wrap(ReplayMetrics, name, "metrics")
    tracer.wrap(scenarios, "build_hierarchy", "setup", keep=True)
    tracer.wrap(TraceGenerator, "generate", "setup", keep=True)
    if validation:
        from repro.validation import invariants
        from repro.validation.differential import DifferentialCache
        from repro.validation.oracle import OracleCache

        for name in _public_methods(OracleCache):
            tracer.wrap(OracleCache, name, "oracle")
        for name in _public_methods(DifferentialCache):
            if name not in ("oracle", "attach_observer"):
                tracer.wrap(DifferentialCache, name, "validation")
        tracer.wrap(invariants, "check_cache_invariants", "validation")
        tracer.wrap(invariants, "check_renewal_invariants", "validation")
    if serve:
        from repro.serve import server

        tracer.wrap(server, "decode_query", "wire")
        tracer.wrap(server, "encode_response", "wire")
        tracer.patch(ThreadPoolExecutor, "submit",
                     tracer.handoff(ThreadPoolExecutor.submit))


def _is_not_none(result: Any) -> bool:
    return result is not None


def _stored(result: Any) -> bool:
    return bool(result.stored)


def _answered(result: Any) -> bool:
    return bool(result.answered)


def _calls(snapshot: dict[str, dict[str, Any]], *names: str) -> int:
    return sum(snapshot[name]["calls"] for name in names if name in snapshot)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _ms(value: float | None) -> float:
    return 0.0 if value is None else value * 1000.0


def per_layer_metrics(
    snapshot: dict[str, dict[str, Any]],
    *,
    stubs: int,
    passes: float,
    gc: dict[str, Any],
    upstream: int = 0,
    renewal: int = 0,
    ops_checked: int = 0,
    parallel: dict[str, float] | None = None,
    serve: dict[str, float] | None = None,
    loadgen: dict[str, float] | None = None,
    overhead_ratio: float = 0.0,
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced run.

    ``snapshot`` holds one pass over the workload's units, and ``stubs``
    the stub queries of that pass; ``gc`` covers ``passes`` passes (may
    be fractional) and is scaled to one.  A layer that did no work
    reads 0.
    """
    self_s = layer_self_times(snapshot)
    per_gc_pass = 1.0 / passes if passes else 0.0

    def layer_s(layer: str) -> float:
        return self_s.get(layer, 0.0)

    def calls(*names: str) -> float:
        return _calls(snapshot, *names)

    def stat(name: str, key: str) -> float:
        return snapshot[name][key] if name in snapshot else 0

    def median_setup(name: str) -> float:
        durations = snapshot.get(name, {}).get("durations", [])
        return statistics.median(durations) if durations else 0.0

    metric_calls = sum(
        stats["calls"] for stats in snapshot.values() if stats["layer"] == "metrics"
    )
    oracle_s = self_s.get("oracle", 0.0)
    final_s = sum(stat(name, "total_s") for name in FINAL_CHECKS)
    pauses = gc.get("pauses", [])
    out = {
        "resolver.self_s": layer_s("resolver"),
        "resolver.upstream_per_stub": _ratio(upstream, stubs),
        "resolver.renewal_per_stub": _ratio(renewal, stubs),
        "cache.self_s": layer_s("cache"),
        "cache.gets_per_stub": _ratio(_calls(snapshot, *CACHE_LOOKUPS), stubs),
        "cache.puts_per_stub": _ratio(_calls(snapshot, "DnsCache.put"), stubs),
        "cache.get_hit_ratio": _ratio(stat("DnsCache.get", "positive"),
                                      stat("DnsCache.get", "calls")),
        "cache.put_stored_ratio": _ratio(stat("DnsCache.put", "positive"),
                                         stat("DnsCache.put", "calls")),
        "zones.respond_calls": calls("AuthoritativeServer.respond"),
        "zones.self_s": layer_s("zones"),
        "network.query_calls": calls("Network.query"),
        "network.lost_ratio": _ratio(
            stat("Network.query", "calls") - stat("Network.query", "positive"),
            stat("Network.query", "calls")),
        "network.self_s": layer_s("network"),
        "engine.events_fired": stat("SimulationEngine.advance_to", "tally"),
        "engine.schedule_calls": calls("SimulationEngine.schedule",
                                       "SimulationEngine.schedule_in"),
        "engine.self_s": layer_s("engine"),
        "metrics.calls_per_stub": _ratio(metric_calls, stubs),
        "metrics.self_s": layer_s("metrics"),
        "setup.hierarchy_s": median_setup("scenarios.build_hierarchy"),
        "setup.traces_s": median_setup("TraceGenerator.generate"),
        "validation.ops_checked": ops_checked,
        "validation.oracle_self_s": oracle_s,
        "validation.oracle_us_per_op": _ratio(oracle_s * 1e6, ops_checked),
        "validation.final_check_s": final_s,
        "wire.decode_us": _ratio(stat("server.decode_query", "self_s") * 1e6,
                                 stat("server.decode_query", "calls")),
        "wire.encode_us": _ratio(stat("server.encode_response", "self_s") * 1e6,
                                 stat("server.encode_response", "calls")),
        "runtime.gc2_count": gc.get("gen2_count", 0) * per_gc_pass,
        "runtime.gc_pause_max_ms": _ms(max(pauses) if pauses else 0.0),
        "runtime.gc_pause_s": sum(pauses) * per_gc_pass,
        "trace.overhead_ratio": overhead_ratio,
    }
    for name in ("prefork_s", "pool_start_s", "worker_busy_s", "efficiency",
                 "tail_idle_s"):
        out[f"parallel.{name}"] = (parallel or {}).get(name, 0.0)
    for name, _unit, _better in PER_LAYER:
        if name.startswith(("serve.", "loadgen.")):
            source = serve if name.startswith("serve.") else loadgen
            out[name] = (source or {}).get(name.split(".", 1)[1], 0.0)
    return {name: float(out[name]) for name, _unit, _better in PER_LAYER}


def serve_layer_metrics(
    snapshot: dict[str, dict[str, Any]], queue_waits: list[float],
    queries: int, cache_hits: int, resolutions: int,
) -> dict[str, float]:
    """The front end's per-layer numbers from one traced server child."""
    durations = snapshot.get("CachingServer.handle_stub_query", {}).get(
        "durations", [])
    return {
        "queue_wait_p50_ms": _ms(percentile(queue_waits, 0.50)),
        "queue_wait_p99_ms": _ms(percentile(queue_waits, 0.99)),
        "resolve_p50_ms": _ms(percentile(durations, 0.50)),
        "resolve_p99_ms": _ms(percentile(durations, 0.99)),
        "leader_ratio": _ratio(resolutions, queries),
        "cache_hit_ratio": _ratio(cache_hits, resolutions),
    }
