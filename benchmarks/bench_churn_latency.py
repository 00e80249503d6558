"""Extension benches: IRR churn cost and response-time comparison.

These quantify two §4 claims the paper argues but does not plot:

* long TTLs trade a wider obsolete-IRR window (latency penalty, no
  availability loss) — `bench_churn`;
* refresh/long-TTL *improve* response time by avoiding tree walks —
  `bench_latency`.
"""

from repro.experiments import EXPERIMENTS
from repro.experiments.churn import ChurnSpec, obsolete_hits
from repro.experiments.churn import run as run_churn_experiment
from repro.experiments.latency import LatencySpec
from repro.experiments.sweep import per_stub
from repro.hierarchy.builder import HierarchyConfig
from repro.workload.generator import WorkloadConfig


def bench_churn(run_once, record_artifact):
    result = run_once(
        run_churn_experiment,
        ChurnSpec(
            hierarchy=HierarchyConfig(num_tlds=10, num_slds=300,
                                      num_providers=4),
            workload=WorkloadConfig(duration_days=7.0, queries_per_day=6_000,
                                    num_clients=120),
            churn_fraction=0.25,
        ),
    )
    record_artifact("churn", result.render())
    for row in result.cells:
        assert row.metrics.sr_failure_rate < 0.005, row.label
    assert obsolete_hits(result.cell(scheme="refresh+ttl7d")) >= \
        obsolete_hits(result.cell(scheme="vanilla"))


def bench_latency(run_once, scenario, record_artifact):
    result = run_once(
        EXPERIMENTS["latency"].run,
        LatencySpec(scale=scenario.scale, seed=scenario.seed),
    )
    record_artifact("latency", result.render())
    assert result.cell(scheme="refresh+ttl7d").mean_latency <= \
        result.cell(scheme="vanilla").mean_latency
    assert per_stub(result.where(scheme="combination"),
                    "cs_demand_queries") <= \
        per_stub(result.where(scheme="vanilla"), "cs_demand_queries")
