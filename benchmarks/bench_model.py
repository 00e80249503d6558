"""Extension bench: closed-form availability model vs the simulator.

Validates the renewal-theory model of `repro.analysis.model` — a piece
of analysis the paper does not attempt — against full trace replays.
Success = per-scheme agreement within tens of percent AND the right
scheme ordering.
"""

from repro.experiments.model_validation import model_validation, relative_error


def bench_model_validation(run_once, scenario, record_artifact):
    result = run_once(model_validation, scenario)
    record_artifact("model_validation", result.render())
    for scheme, cell in zip(result.axes["scheme"], result.cells):
        assert relative_error(cell) < 0.35, scheme
    predicted = [cell["predicted"] for cell in result.cells]
    assert predicted == sorted(predicted)
