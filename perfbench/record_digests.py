"""Record the outputs the benchmark checks its replays against.

Usage, from the root of a checkout::

    python3 perfbench/record_digests.py

Runs every replay unit serially (``workers=1``) for the default seed and
one held-out seed, and writes ``digests.json``: per unit, the digest of
its summaries and the oracle's checked-operation count.  The sweep's
digest comes from this serial run, so a parallel sweep that matches it
equals the serial result.  Re-record only when a change is meant to
alter replay results, and say so in that change.
"""

from __future__ import annotations

import json
import sys

from checkout import use_checkout_sources

#: The default scenario seed and one held-out seed.
SEEDS = (7, 11)


def main() -> int:
    use_checkout_sources()
    from repro.experiments.parallel import run_replays

    import replays

    table: dict[str, dict[str, dict]] = {}
    for name, plan in replays.PLANS.items():
        for seed in SEEDS:
            state = plan.setup(seed, True)
            if name == "sweep-parallel":
                summaries = [
                    summary for spec in replays.sweep_specs(state, seed)
                    for summary in run_replays([spec], workers=1)]
                recorded = {"sweep": replays.unit_digest(
                    replays.UnitOutput(summaries))}
            else:
                recorded = {unit.key: replays.unit_digest(unit.run())
                            for unit in plan.units(state, seed)}
            table.setdefault(name, {})[str(seed)] = recorded
            print(f"{name} seed {seed}: {len(recorded)} units", flush=True)
    replays.DIGESTS_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
