"""One ``repro serve`` front end for one rate of the serve-open workload.

Run by serve_open.py as a fresh process per rate::

    python3 perfbench/serve_child.py --seed 7 --trace 0

Prints one JSON line with the bound UDP port once the front end
listens, serves until a line arrives on stdin, then prints one JSON
line of what it measured and exits.  With ``--trace 1`` the layer
boundaries are wrapped (see layers.py) and the report carries their
spans.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import resource
import sys

from checkout import use_checkout_sources

SCHEME = "combination"


async def _serve(seed: int, report: dict) -> None:
    from repro.experiments.scenarios import Scale
    from repro.serve.server import DnsFrontEnd
    from repro.serve.spec import ServeSpec

    spec = ServeSpec(host="127.0.0.1", port=0, metrics_port=-1,
                     scheme=SCHEME, scale=Scale.SMALL, seed=seed)
    front_end = DnsFrontEnd(spec)
    await front_end.start()
    try:
        if front_end.udp_address is None:
            raise RuntimeError("front end did not bind a UDP port")
        print(json.dumps({"port": front_end.udp_address[1]}), flush=True)
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, sys.stdin.readline)
    finally:
        await front_end.stop()
    server = front_end.server
    report["udp_queries"] = front_end.metrics.udp_queries
    if server is not None:
        report["resolutions"] = server.metrics.sr_queries
        report["cache_hits"] = server.metrics.sr_cache_hits
        report["upstream"] = server.metrics.total_outgoing
        report["renewal"] = server.metrics.cs_renewal_queries


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    use_checkout_sources()

    tracer = watch = None
    if args.trace:
        import layers
        from spans import GcWatch, Tracer

        tracer = Tracer()
        layers.install(tracer, serve=True)
        watch = GcWatch()
        gc.callbacks.append(watch)
    report: dict = {}
    asyncio.run(_serve(args.seed, report))
    report["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None and watch is not None:
        gc.callbacks.remove(watch)
        tracer.uninstall()
        report["spans"] = tracer.snapshot()
        report["queue_waits"] = tracer.queue_waits
        report["gc"] = watch.snapshot()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
