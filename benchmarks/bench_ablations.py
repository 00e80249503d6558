"""Extension benches: mechanism ablation, serve-stale comparator, other
attack classes, maximum-damage exploration, scale sensitivity.

These go beyond the paper's figures (see DESIGN.md §7).
"""

from repro.experiments import EXPERIMENTS
from repro.experiments.ablations import (
    capacity_ablation,
    holddown_ablation,
    mechanism_ablation,
    other_attack_classes,
    scale_sensitivity,
    stale_comparison,
)
from repro.experiments.max_damage import MaxDamageSpec
from repro.experiments.scenarios import Scale


def sr(result, **coords):
    """The SR attack-window failure rate of one cell."""
    return result.cell(**coords).sr_attack_failure_rate


def bench_mechanism_ablation(run_once, scenario, record_artifact):
    result = run_once(mechanism_ablation, scenario)
    record_artifact("ablation_mechanisms", result.render())
    assert sr(result, scheme="combination") <= sr(result, scheme="vanilla")
    assert sr(result, scheme="refresh + renew") <= \
        sr(result, scheme="refresh only")


def bench_stale_comparator(run_once, scenario, record_artifact):
    result = run_once(stale_comparison, scenario)
    record_artifact("comparator_serve_stale", result.render())
    assert sr(result, scheme="serve-stale") <= sr(result, scheme="vanilla")


def bench_other_attack_classes(run_once, scenario, record_artifact):
    result = run_once(other_attack_classes, scenario)
    record_artifact("other_attack_classes", result.render())
    # Single-zone attacks have bounded blast radius vs root+TLD attacks.
    for point, cell in zip(result.points(), result.cells):
        assert cell.sr_attack_failure_rate < 0.35, point


def bench_cache_capacity(run_once, scenario, record_artifact):
    result = run_once(capacity_ablation, scenario)
    record_artifact("ablation_capacity", result.render())
    # Generous caches preserve the combination's resilience; starved
    # caches thrash back toward (or past) vanilla levels.
    assert sr(result, scheme="combination / 4x zones") <= \
        sr(result, scheme="combination / 1x zones") + 0.01
    assert sr(result, scheme="combination / 1x zones") <= \
        sr(result, scheme="combination / 0.25x zones") + 0.01


def bench_holddown(run_once, scenario, record_artifact):
    result = run_once(holddown_ablation, scenario)
    record_artifact("ablation_holddown", result.render())
    # Hold-down slashes failed-query volume without changing outcomes
    # much: compare total messages, not failure rates.
    messages = dict(zip(result.axes["scheme"],
                        result.values("total_outgoing")))
    assert messages["vanilla + holddown 10m"] < messages["vanilla"]


def bench_max_damage(run_once, scenario, record_artifact):
    result = run_once(
        EXPERIMENTS["maxdamage"].run,
        MaxDamageSpec(scale=scenario.scale, seed=scenario.seed),
    )
    record_artifact("max_damage", result.render())
    assert sr(result, strategy="greedy (oracle)", scheme="vanilla") >= \
        sr(result, strategy="random", scheme="vanilla")


def bench_scale_sensitivity(run_once, record_artifact):
    result = run_once(scale_sensitivity, scales=(Scale.TINY, Scale.SMALL))
    record_artifact("scale_sensitivity", result.render())
    # Vanilla failure rates should be in the same ballpark across scales.
    vanilla = result.where(scheme="vanilla").values("sr_attack_failure_rate")
    assert max(vanilla) < 3.5 * min(vanilla)
