"""Bench F3 — regenerate Figure 3 (expiry-to-next-query gap CDFs)."""

from repro.experiments import figures


def bench_figure3(run_once, scenario, record_artifact):
    result = run_once(figures.figure3, scenario)
    record_artifact("figure3", result.render())
    # Paper: "in absolute time almost all gaps are less than 5 days".
    cdf_days, cdf_fraction = figures.gap_cdfs(result)
    assert cdf_days.probability_at_or_below(5.0) > 0.95
    # Relative gaps vary widely: a visible mass both below and above 1 TTL.
    below_one = cdf_fraction.probability_at_or_below(1.0)
    assert 0.1 < below_one < 0.95
