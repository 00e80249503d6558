"""Experiment harness: scenarios, replays, the sweep engine, one module
per experiment.

* :mod:`repro.experiments.scenarios` -- scale presets and the standard
  setup (hierarchy + TRC1..TRC6 traces) shared by every experiment.
* :mod:`repro.experiments.harness` -- trace replay with optional attack,
  gap tracking, memory sampling and observability hooks.
* :mod:`repro.experiments.parallel` -- the batch runner
  (:func:`~repro.experiments.parallel.run_replays`) that fans replays
  over worker processes.
* :mod:`repro.experiments.sweep` -- the sweep engine every experiment is
  written in: named axes -> one ``run_replays`` batch -> a coordinate-
  keyed :class:`~repro.experiments.sweep.Grid` -> text tables.
* :mod:`repro.experiments.figures` -- the paper's Tables 1-2 and
  Figures 3-12 (the Figures 4-11 grids come from
  :mod:`repro.experiments.attack_grid`).
* :mod:`repro.experiments.ablations`, :mod:`~repro.experiments.fleet`,
  :mod:`~repro.experiments.model_validation` -- extension experiments
  driven by the benches.

The ``EXPERIMENTS`` table is the registry of extension experiments: one
:class:`~repro.experiments.registry.ExperimentDef` per experiment, each
pairing a frozen spec dataclass with its ``run(spec)`` function.  The
CLI generates its subcommands from this table; programmatic callers use
``EXPERIMENTS["churn"].run(ChurnSpec(...))``.
"""

from repro.experiments import (
    amplification as _amplification,
    attack_grid as _attack_grid,
    churn as _churn,
    degradation as _degradation,
    dnssec as _dnssec,
    latency as _latency,
    max_damage as _max_damage,
    multiseed as _multiseed,
    poisoning as _poisoning,
)
from repro.experiments.harness import AttackSpec, ReplayResult, run_replay
from repro.experiments.registry import ExperimentDef
from repro.experiments.scenarios import Scale, Scenario, make_scenario
from repro.experiments.summary import ReplaySummary

EXPERIMENTS: dict[str, ExperimentDef] = {
    definition.name: definition
    for definition in (
        ExperimentDef(
            name="churn",
            help="IRR-churn cost experiment (long-TTL inconsistency)",
            spec_type=_churn.ChurnSpec,
            runner=_churn.run,
        ),
        ExperimentDef(
            name="latency",
            help="response-time experiment (no attack)",
            spec_type=_latency.LatencySpec,
            runner=_latency.run,
        ),
        ExperimentDef(
            name="dnssec",
            help="DNSSEC amplification experiment (paper §6)",
            spec_type=_dnssec.DnssecSpec,
            runner=_dnssec.run,
        ),
        ExperimentDef(
            name="maxdamage",
            help="maximum-damage exploration",
            spec_type=_max_damage.MaxDamageSpec,
            runner=_max_damage.run,
        ),
        ExperimentDef(
            name="attack-grid",
            help="failure grid of one scheme over attack durations",
            spec_type=_attack_grid.AttackGridSpec,
            runner=_attack_grid.run,
        ),
        ExperimentDef(
            name="renewal2",
            help="swr/decoupled vs credit renewal at equal upstream budget",
            spec_type=_attack_grid.Renewal2Spec,
            runner=_attack_grid.run_renewal2,
        ),
        ExperimentDef(
            name="multiseed",
            help="multi-seed replication of the headline failure rates",
            spec_type=_multiseed.MultiSeedSpec,
            runner=_multiseed.run,
        ),
        ExperimentDef(
            name="degradation",
            help="attack intensity × retry policy degradation sweep",
            spec_type=_degradation.DegradationSpec,
            runner=_degradation.run,
        ),
        ExperimentDef(
            name="amplification",
            help="NXNS amplification sweep: fan-out × fetch budget",
            spec_type=_amplification.AmplificationSpec,
            runner=_amplification.run,
        ),
        ExperimentDef(
            name="poisoning",
            help="cache-poisoning sweep: injection rate × scheme (+guard)",
            spec_type=_poisoning.PoisoningSpec,
            runner=_poisoning.run,
        ),
    )
}

__all__ = [
    "EXPERIMENTS",
    "AttackSpec",
    "ExperimentDef",
    "ReplayResult",
    "ReplaySummary",
    "Scale",
    "Scenario",
    "make_scenario",
    "run_replay",
]
