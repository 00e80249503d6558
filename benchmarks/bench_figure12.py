"""Bench F12 — regenerate Figure 12 (cache occupancy over the month trace)."""

from repro.experiments import figures


def bench_figure12(run_once, scenario, record_artifact):
    result = run_once(figures.figure12, scenario)
    text = result.render()
    # Also dump the raw zone/record series for plotting.
    series_lines = []
    for label, series in figures.memory_series(result).items():
        points = ", ".join(
            f"({day:.2f}, {records})"
            for day, records in series.records_series()[::4]
        )
        series_lines.append(f"{label} records(day): {points}")
    record_artifact("figure12", text + "\n\n" + "\n".join(series_lines))

    # Paper shapes: enhanced schemes cache ~2-3x the objects of vanilla
    # DNS, and the absolute footprint stays tiny (tens of MB at paper
    # scale; well under that here).
    for label in result.axes["scheme"]:
        if label == "DNS":
            continue
        ratio = figures.occupancy_ratio(result, label)
        assert 1.0 <= ratio < 8.0, (label, ratio)
    combo = figures.occupancy_ratio(result, "Combination")
    assert combo > 1.2
