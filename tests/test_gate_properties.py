"""Properties of the gate over its valid domain, drawn by hypothesis:
gamma in [1e-3, 1], s in [0.05, 1], |y| <= 40; and of the Airy function
and fidelity it is built on."""

import math

import numpy as np
import pytest

from cvcat.analysis import fidelity
from cvcat.errors import ZeroProbabilityOutcomeError
from cvcat.gate import _EDGES, PROBABILITY_FLOOR, added_factor_grid, \
    apply_gate, outcome_probability_density
from cvcat.special_numerics import _DOMAIN, _SEAMS, _runs, airy_ai, \
    airy_ai_scaled
from cvcat.states import GateParams, GridSpec, WaveFunction, \
    make_squeezed_vacuum

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

VACUUM = make_squeezed_vacuum(1.0, GridSpec(-10.0, 10.0, 512))
# |psi|^2 of this vacuum is subnormal past |x| ~ 26.6 and 0 past ~ 27.3
WIDE_VACUUM = make_squeezed_vacuum(1.0, GridSpec(-40.0, 40.0, 4096))
gammas = st.floats(1e-3, 1.0)
squeezes = st.floats(0.05, 1.0)
outcomes = st.floats(-40.0, 40.0)
gate_params = st.builds(GateParams, gamma=gammas, s=squeezes, y_m=outcomes)


def tangent_pole(k: int) -> float:
    """The double z, within 200 ulps of where ph/2 = pi/2 + k pi on the
    oscillatory side (ph = zeta - pi/4, so zeta = 5 pi/4 + 2 k pi), at which
    tan(ph/2) is largest; k >= 3 keeps z <= -9. The tangent there is far
    beyond any ordinary phase's."""
    z0 = -(1.5 * (1.25 * math.pi + 2.0 * k * math.pi)) ** (2.0 / 3.0)
    w = -z0 + np.arange(-200, 201) * np.spacing(-z0)
    tangent = np.abs(np.tan(0.5 * ((2.0 / 3.0) * w * np.sqrt(w)) - 0.125 * math.pi))
    assert tangent.max() > 1e12
    return -float(w[np.argmax(tangent)])


SEAMS = [sign * edge + d for edge in (4.0, 9.0) for sign in (-1.0, 1.0)
         for d in (-1e-9, 0.0, 1e-9)]
airy_points = st.one_of(
    st.floats(-4.0, 4.0), st.floats(4.0, 9.0), st.floats(-9.0, -4.0),
    st.floats(9.0, 500.0), st.floats(-500.0, -9.0), st.sampled_from(SEAMS),
    st.integers(3, 400).map(tangent_pole))


def unit_output(params):
    """apply_gate's state, with outcomes under the probability floor
    rejected."""
    assume(outcome_probability_density(VACUUM, params.gamma, params.s,
                                       params.y_m) >= PROBABILITY_FLOOR)
    return apply_gate(VACUUM, params).state


@settings(max_examples=60, deadline=None)
@given(z=st.lists(airy_points, min_size=2, max_size=40))
def test_airy_arrays_equal_their_scalar_calls(z):
    """One formula per regime: an array's values are its points' scalar
    values to the bit, and finite, at the seams and the tangent poles too."""
    z = np.array(z)
    got = airy_ai(z)
    assert np.isfinite(got).all()
    assert all(got[i] == airy_ai(float(v)) for i, v in enumerate(z))
    z = z[z >= 0.0]
    got = airy_ai_scaled(z)
    assert np.isfinite(got).all()
    assert all(got[i] == airy_ai_scaled(float(v)) for i, v in enumerate(z))


@settings(max_examples=60, deadline=None)
@given(params=gate_params)
def test_gate_output_is_normalized(params):
    out = unit_output(params)
    assert abs(np.trapezoid(out.density(), dx=out.dx) - 1.0) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(params=gate_params, p0=st.floats(-5.0, 5.0))
def test_momentum_kick_commutes_with_the_gate(params, p0):
    """The gate multiplies its input by a function of x, so the kick
    e^(i p0 x) may come before it or after it: the outputs agree to 1e-13,
    and P does not move."""
    kick = np.exp(1j * p0 * VACUUM.x)
    kicked = WaveFunction(VACUUM.grid, kick * VACUUM.amplitudes)
    plain = unit_output(params)
    p = apply_gate(VACUUM, params).probability_density
    out = apply_gate(kicked, params)
    assert np.max(np.abs(out.state.amplitudes - kick * plain.amplitudes)) <= 1e-13
    assert abs(out.probability_density - p) <= 1e-13 * p


@settings(max_examples=40, deadline=None)
@given(pa=gate_params, pb=st.one_of(st.none(), gate_params))
def test_fidelity_is_symmetric_and_bounded(pa, pb):
    """pb = None takes the first state itself, whose trapezoid overlap can
    pass 1 by rounding."""
    a = unit_output(pa)
    b = a if pb is None else unit_output(pb)
    f = fidelity(a, b)
    assert f == fidelity(b, a)
    assert 0.0 <= f <= 1.0


@settings(max_examples=60, deadline=None)
@given(gamma=gammas, s=squeezes, y=outcomes)
def test_probability_is_the_gate_output_norm(gamma, s, y):
    """P, formed from the input's density and F, is apply_gate's P and
    within 4e-15 relative of the trapezoid norm of the product psi_in F
    itself, on the vacuum and on a wide grid whose tails underflow."""
    params = GateParams(gamma=gamma, s=s, y_m=y)
    for wave in (VACUUM, WIDE_VACUUM):
        p = outcome_probability_density(wave, gamma, s, y)
        assert math.isfinite(p) and p >= 0.0
        if p < PROBABILITY_FLOOR:
            with pytest.raises(ZeroProbabilityOutcomeError):
                apply_gate(wave, params)
        else:
            assert apply_gate(wave, params).probability_density == p
            product = wave.amplitudes * added_factor_grid(wave.x, params)
            norm = np.trapezoid(np.abs(product) ** 2, dx=wave.dx)
            # near the floor the terms |psi_in F|^2 are subnormal, each off
            # by up to 2^-1074: at P = 2.2e-308 the norm was 4.7e-15 from a
            # 40-digit mpmath sum, and P 5.1e-17
            subnormal = wave.n_points * wave.dx * 2.0 ** -1074
            assert abs(p - norm) <= 4e-15 * norm + subnormal


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


# the covariance deviation, as a share of the block maximum, measured at
# most 1.3e-13 over 16,000 uniform draws from the ranges below and 6.3e-14
# over 5,000 hypothesis examples; the bound leaves about 8x of that
COVARIANCE_TOLERANCE = 1e-12


@settings(max_examples=60, deadline=None)
@given(g=st.one_of(st.just(0.0), st.floats(-12.0, 8.0).map(lambda e: 10.0 ** e)),
       s=st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e),
       lam=st.floats(-1.0, 1.0).map(lambda e: 10.0 ** e),
       shift=st.floats(0.0, 0.5))
def test_factor_scaling_covariance(g, s, lam, shift):
    """x = lam u maps the resource at (gamma, s) to (gamma lam^3, s lam), so
    F(delta; gamma lam^3, s lam) = lam^(-1/2) F(delta/lam; gamma, s). The
    Airy argument is invariant, so this checks the exponent algebra of every
    regime with no oracle. gamma = g s^3 over g = gamma/s^3 in [1e-12, 1e8]
    and 0; delta/s spans m [-10, 10] with m = max(1, (12 g)^(1/4)), the
    factor's width. Deviations are scaled by the block's maximum."""
    gamma = g * s ** 3
    delta = s * max(1.0, (12.0 * g) ** 0.25) * (np.linspace(-10.0, 10.0, 41)
                                                + shift)
    scaled = added_factor_grid(delta, GateParams(gamma * lam ** 3, s * lam, 0.0))
    plain = added_factor_grid(delta / lam, GateParams(gamma, s, 0.0))
    plain /= math.sqrt(lam)
    assert np.max(np.abs(scaled - plain)) \
        <= COVARIANCE_TOLERANCE * np.max(np.abs(plain))


# the edges _runs splits at: the Airy kernel's seams, the gate's run edges
# and airy_ai's domain, four edges with +inf the last
RUN_EDGES = (_SEAMS, _EDGES, _DOMAIN)
# every edge with its neighbouring doubles, and the infinities
RUN_POINTS = st.one_of(st.floats(allow_nan=False), st.sampled_from(sorted(
    {-math.inf, math.inf} | {float(np.nextafter(e, to))
                             for edges in RUN_EDGES for e in edges
                             for to in (-math.inf, e, math.inf)})))


@settings(max_examples=200, deadline=None)
@given(z=st.lists(RUN_POINTS, max_size=40))
def test_run_slices_and_masks_select_the_same_points(z):
    """On a non-decreasing array, ties and infinities included, the binary
    search's slices and the masks of its 2-D view pick the same points in
    each run, for every edge set, and each run holds what its edges say. A
    NaN appended to the view lands in the first run."""
    z = np.sort(np.array(z, dtype=float))
    index = np.arange(z.size)
    for edges in RUN_EDGES:
        slices = _runs(z, edges)
        assert all(isinstance(part, slice) for part in slices)
        masks = _runs(np.append(z, math.nan)[None], edges)
        assert len(slices) == len(masks) == len(edges) + 1
        assert masks[0][0, -1] and not any(m[0, -1] for m in masks[1:])
        for part, mask in zip(slices, masks):
            assert np.array_equal(index[part], np.flatnonzero(mask[0, :-1]))
        runs = [z[part] for part in slices]
        assert sum(run.size for run in runs) == z.size
        assert np.all(runs[0] < edges[0]) and np.all(runs[-1] >= edges[-1])
        for run, lo, hi in zip(runs[1:-1], edges, edges[1:]):
            assert np.all((run >= lo) & (run < hi))
