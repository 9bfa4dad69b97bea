"""Degenerate interconnect through the batched driver model.

Lines whose inductance or resistance is vanishingly small, with and without a
far-end load, must either reproduce the scalar :func:`model_driver_output`
oracle lane by lane or raise a :class:`~repro.errors.ModelingError` exactly
where the oracle does.  Neither path may produce a NaN or let a NumPy
``RuntimeWarning`` escape.  Past the driver model, both far ends refuse a line
whose time of flight is too short for their fixed step.
"""

import math
import warnings

import numpy as np
import pytest

from repro.core import (ModelingOptions, far_end_response, far_end_response_batch,
                        model_driver_output_batch)
from repro.core.scalar_oracle import model_driver_output
from repro.errors import ModelingError
from repro.interconnect import RLCLine
from repro.units import mm, nH, pF, ps

FIELDS = ("gate_delay", "tr1", "ceff1", "ceff2", "tr2", "tr2_effective",
          "driver_resistance", "breakpoint_fraction")

LINES = {
    "nominal": RLCLine(40.0, nH(2.1), pF(0.44), mm(2)),
    "L->0": RLCLine(40.0, 1e-21, pF(0.44), mm(2)),
    "R->0": RLCLine(1e-9, nH(2.1), pF(0.44), mm(2)),
    "R,L->0": RLCLine(1e-9, 1e-21, pF(0.44), mm(2)),
    "L small": RLCLine(40.0, 1e-15, pF(0.44), mm(2)),
    "R small": RLCLine(1e-3, nH(2.1), pF(0.44), mm(2)),
}


def outcome(run):
    """``(model, None)`` or ``(None, error)`` with RuntimeWarnings as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return run(), None
        except ModelingError as error:
            return None, error


@pytest.mark.parametrize("name", sorted(LINES))
@pytest.mark.parametrize("load", [0.0, 2e-14])
@pytest.mark.parametrize("transition", ["rise", "fall"])
def test_lane_matches_scalar_oracle_or_raises(library, name, load, transition):
    cell = library.get(75.0)
    options = ModelingOptions(transition=transition)
    line = LINES[name]
    scalar, scalar_error = outcome(
        lambda: model_driver_output(cell, ps(80), line, load, options=options))
    batched, batch_error = outcome(lambda: model_driver_output_batch(
        [(cell, ps(80), line, load, options)])[0])
    assert (scalar_error is None) == (batch_error is None)
    if scalar is None:
        return
    assert batched.kind == scalar.kind
    for field in FIELDS:
        expected, actual = getattr(scalar, field), getattr(batched, field)
        if expected is None:
            assert actual is None
            continue
        assert math.isfinite(actual)
        assert actual == pytest.approx(expected, rel=1e-9, abs=0.0)
    for value in (batched.delay(), batched.slew()):
        assert math.isfinite(value)


def test_mixed_degenerate_batch_matches_one_lane_batches(library):
    """Degenerate lanes do not disturb their neighbours in a shared batch."""
    cell = library.get(100.0)
    requests = [(cell, ps(60), line, load, ModelingOptions(transition=transition))
                for line in LINES.values() for load in (0.0, 2e-14)
                for transition in ("rise", "fall")]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        together = model_driver_output_batch(requests)
        alone = [model_driver_output_batch([request])[0] for request in requests]
    for shared, single in zip(together, alone):
        assert shared.kind == single.kind
        np.testing.assert_allclose(
            [shared.gate_delay, shared.tr1, shared.ceff1],
            [single.gate_delay, single.tr1, single.ceff1], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name", ["L->0", "R,L->0"])
@pytest.mark.parametrize("load", [0.0, 2e-14])
def test_vanishing_inductance_is_refused_by_both_far_ends(library, name, load):
    """L = 1e-21 H gives a ~7e-19 s step, ~1e8 steps: refused before allocating."""
    cell = library.get(75.0)
    model = model_driver_output_batch(
        [(cell, ps(80), LINES[name], load, ModelingOptions())])[0]
    with pytest.raises(ModelingError, match="steps"):
        far_end_response_batch([model])
    with pytest.raises(ModelingError, match="steps"):
        far_end_response(model)
    nominal = model_driver_output_batch(
        [(cell, ps(80), LINES["nominal"], load, ModelingOptions())])[0]
    with pytest.raises(ModelingError, match="steps"):
        far_end_response_batch([nominal, model])  # one refused lane fails the batch
