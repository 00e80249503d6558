"""Extension bench: multi-seed replication of the headline comparison.

Reports mean ± std across resolver seeds for the main schemes — the
honest form of the single-replay numbers in Figures 4/5/9, and the check
that the paper's ordering is robust to simulation randomness.
"""

from repro.experiments import EXPERIMENTS
from repro.experiments.multiseed import MultiSeedSpec
from repro.experiments.sweep import mean_std


def bench_multiseed(run_once, scenario, record_artifact):
    result = run_once(
        EXPERIMENTS["multiseed"].run,
        MultiSeedSpec(scale=scenario.scale, seed=scenario.seed,
                      seeds=(0, 1, 2)),
    )
    record_artifact("multiseed", result.render())

    def spread(scheme):
        return mean_std(result.where(scheme=scheme).values(
            "sr_attack_failure_rate"))

    vanilla_mean, vanilla_std = spread("vanilla")
    combo_mean, combo_std = spread("combo+a-lfu3+ttl3d")
    # Ordering robust across seeds: separated by well over the spreads.
    assert combo_mean + 2 * combo_std < vanilla_mean - 2 * vanilla_std
