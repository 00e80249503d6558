"""Extension bench: the DNSSEC deployment experiment (paper §6).

Shape asserted: validation amplifies the root+TLD attack against the
unmodified DNS (key chains break even when answers are cached), while
the combination scheme — extended to cover DNSSEC IRRs — neutralises the
amplification.
"""

from repro.experiments.dnssec import DnssecSpec
from repro.experiments.dnssec import run as run_dnssec_experiment
from repro.hierarchy.builder import HierarchyConfig
from repro.workload.generator import WorkloadConfig


def bench_dnssec(run_once, record_artifact):
    result = run_once(
        run_dnssec_experiment,
        DnssecSpec(
            hierarchy=HierarchyConfig(num_tlds=12, num_slds=400,
                                      num_providers=4, dnssec_fraction=1.0),
            workload=WorkloadConfig(duration_days=7.0, queries_per_day=6_000,
                                    num_clients=150),
        ),
    )
    record_artifact("dnssec", result.render())
    def sr(scheme):
        return result.cell(scheme=scheme).sr_attack_failure_rate

    assert sr("vanilla+dnssec") > sr("vanilla")
    assert sr("combo+a-lfu3+ttl3d+dnssec") < sr("vanilla+dnssec") / 5
