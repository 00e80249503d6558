"""Golden renders: every registry experiment's table, byte for byte.

Each experiment runs at TINY scale with shrunk axes and its ``render()``
text is compared with the capture committed under ``golden/``.  A
refactor of the sweep plumbing or the table renderer must leave these
bytes unchanged; a deliberate output change re-captures them with::

    PYTHONPATH=src python tests/experiments/test_golden_render.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments.amplification import AmplificationSpec
from repro.experiments.attack_grid import AttackGridSpec, Renewal2Spec
from repro.experiments.churn import ChurnSpec
from repro.experiments.degradation import DegradationSpec
from repro.experiments.dnssec import DnssecSpec
from repro.experiments.latency import LatencySpec
from repro.experiments.max_damage import MaxDamageSpec
from repro.experiments.multiseed import MultiSeedSpec
from repro.experiments.poisoning import PoisoningSpec
from repro.experiments.scenarios import Scale
from repro.hierarchy import churn as churn_module
from repro.hierarchy.builder import HierarchyConfig
from repro.workload.generator import WorkloadConfig

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN_SPECS = {
    "amplification": AmplificationSpec(
        scale=Scale.TINY, attack_hours=0.25, queries_per_minute=12.0,
        delegations=4, fan_outs=(2, 6), fetch_budgets=(0, 2),
    ),
    "attack-grid": AttackGridSpec(
        scale=Scale.TINY, trace_limit=1, durations_hours=(3, 12),
    ),
    "churn": ChurnSpec(
        hierarchy=HierarchyConfig(num_tlds=4, num_slds=40, num_providers=2),
        workload=WorkloadConfig(duration_days=7.0, queries_per_day=300,
                                num_clients=10),
    ),
    "degradation": DegradationSpec(
        scale=Scale.TINY, intensities=(0.0, 1.0), retry_tries=(1,),
    ),
    "dnssec": DnssecSpec(
        hierarchy=HierarchyConfig(num_tlds=4, num_slds=40, num_providers=2,
                                  dnssec_fraction=1.0),
        workload=WorkloadConfig(duration_days=7.0, queries_per_day=300,
                                num_clients=10),
    ),
    "latency": LatencySpec(scale=Scale.TINY),
    "maxdamage": MaxDamageSpec(scale=Scale.TINY, budget=3, attack_hours=1.0),
    "multiseed": MultiSeedSpec(scale=Scale.TINY, seeds=(0, 1)),
    "poisoning": PoisoningSpec(
        scale=Scale.TINY, schemes="vanilla", rates=(0.2,), entropy_bits=4,
    ),
    "renewal2": Renewal2Spec(
        scale=Scale.TINY, trace_limit=1, schemes=("a-lfu:3", "swr"),
    ),
}


def _render(name: str) -> str:
    return EXPERIMENTS[name].run(GOLDEN_SPECS[name]).render() + "\n"


def test_every_registry_experiment_has_a_golden_spec():
    assert set(GOLDEN_SPECS) == set(EXPERIMENTS)


@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_render_matches_golden(name, monkeypatch):
    # Known defect, left standing: replacement servers minted by churn
    # take their addresses (and so their RTTs) from one process-wide
    # counter, so a churn table depends on how many migrations earlier
    # code in the same process applied.  The captures come from a fresh
    # process; start from a fresh counter to match them.
    monkeypatch.setattr(churn_module, "_ALLOCATOR",
                        churn_module._ChurnAddressAllocator())
    expected = (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
    assert _render(name) == expected


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for experiment in sys.argv[1:] or sorted(GOLDEN_SPECS):
        (GOLDEN_DIR / f"{experiment}.txt").write_text(
            _render(experiment), encoding="utf-8"
        )
        print(f"captured {experiment}")
