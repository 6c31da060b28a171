"""Properties of the gate over its valid domain, drawn by hypothesis:
gamma in [1e-3, 1], s in [0.05, 1], |y| <= 40."""

import math

import numpy as np
import pytest

from cvcat.errors import ZeroProbabilityOutcomeError
from cvcat.gate import PROBABILITY_FLOOR, added_factor_grid, apply_gate, \
    outcome_probability_density
from cvcat.states import GateParams, GridSpec, make_squeezed_vacuum

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

VACUUM = make_squeezed_vacuum(1.0, GridSpec(-10.0, 10.0, 512))
gammas = st.floats(1e-3, 1.0)
squeezes = st.floats(0.05, 1.0)
outcomes = st.floats(-40.0, 40.0)


@settings(max_examples=60, deadline=None)
@given(gamma=gammas, s=squeezes, y=outcomes)
def test_probability_is_the_gate_output_norm(gamma, s, y):
    p = outcome_probability_density(VACUUM, gamma, s, y)
    assert math.isfinite(p) and p >= 0.0
    params = GateParams(gamma=gamma, s=s, y_m=y)
    if p < PROBABILITY_FLOOR:
        with pytest.raises(ZeroProbabilityOutcomeError):
            apply_gate(VACUUM, params)
    else:
        assert apply_gate(VACUUM, params).probability_density == p


@settings(max_examples=60, deadline=None)
@given(gamma=gammas, s=squeezes, y=outcomes, shift=outcomes)
def test_factor_depends_on_x_minus_y_only(gamma, s, y, shift):
    """x - y is rounded differently on the two sides. Next to a zero of Ai
    that alone moves the value by more than 1e-10 of itself, so each point
    is measured against the largest |value| among it and its two
    neighbours on either side (0.05 apart in x - y)."""
    offsets = np.linspace(-10.0, 10.0, 401)
    a = added_factor_grid(y + offsets, GateParams(gamma=gamma, s=s, y_m=y))
    b = added_factor_grid((y + shift) + offsets,
                          GateParams(gamma=gamma, s=s, y_m=y + shift))
    padded = np.pad(np.abs(a), 2)
    local = np.max([padded[k:k + a.size] for k in range(5)], axis=0)
    assert np.all(np.abs(a - b) <= 1e-10 * local)
