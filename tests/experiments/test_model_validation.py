"""Tests for the model-vs-simulation validation experiment."""

import pytest

from repro.experiments.model_validation import model_validation, relative_error
from repro.experiments.scenarios import Scale, make_scenario


@pytest.fixture(scope="module")
def result():
    return model_validation(make_scenario(Scale.TINY))


class TestModelValidation:
    def test_reasonable_agreement(self, result):
        # Steady-state Poisson model vs diurnal simulation: within 35 %.
        for scheme, cell in zip(result.axes["scheme"], result.cells):
            assert relative_error(cell) < 0.35, scheme

    def test_model_reproduces_scheme_ordering(self, result):
        predicted = [cell["predicted"] for cell in result.cells]
        measured = [cell["measured"] for cell in result.cells]
        # vanilla < refresh < renewal <= long-ttl in both columns.
        assert predicted == sorted(predicted)
        assert measured == sorted(measured)

    def test_render(self, result):
        text = result.render()
        assert "Analytical model" in text and "Rel. error" in text

    def test_unknown_scheme(self, result):
        with pytest.raises(KeyError):
            result.cell(scheme="nope")
