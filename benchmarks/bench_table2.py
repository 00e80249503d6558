"""Bench T2 — regenerate Table 2 (message overhead per scheme)."""

from repro.experiments import figures


def bench_table2(run_once, scenario, record_artifact):
    result = run_once(figures.table2, scenario)
    record_artifact("table2", result.render())
    mean = {
        label: figures.mean_overhead(result, label)
        for label, _ in figures.TABLE2_SCHEMES
    }
    # Paper shapes: refresh and long-TTL *reduce* traffic; renewal adds
    # traffic; adaptive renewal adds the most; the combination is cheap.
    assert mean["Refresh"] < 0.0
    assert mean["Long-TTL"] < 0.0
    assert mean["LRU"] > 0.0 and mean["LFU"] > 0.0
    assert mean["A-LFU"] > mean["LFU"]
    assert mean["A-LRU"] > mean["LRU"]
    assert mean["Combination"] < mean["A-LFU"] / 2
