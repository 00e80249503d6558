"""Bench T1 — regenerate Table 1 (trace statistics, requests-out by replay)."""

from repro.experiments import figures


def bench_table1(run_once, scenario, record_artifact):
    result = run_once(figures.table1, scenario)
    record_artifact("table1", result.render())
    # Sanity: caching keeps outbound traffic in the order of inbound.
    for row in result.cells:
        assert row.requests_out is not None
        assert row.requests_out < 1.5 * row.requests_in
