import math
import re

import numpy as np
import pytest

from cvcat.analysis import db_to_s, phase_aligned_l2
from cvcat.errors import DomainError
from cvcat.gate import added_factor, added_factor_grid, apply_gate
from cvcat.oracle import _TAIL_EXPONENT, _projection_step, ancilla_grid_for, \
    oracle_added_factor, oracle_two_mode
from cvcat.states import MAX_GRID_POINTS, GateParams, GridSpec, \
    default_grid, make_squeezed_vacuum

# the verify benchmark's two-mode target and its cases, (gamma, dB, y_m)
VERIFY_TARGET = default_grid(math.sqrt(10.0), 256)
VERIFY_CASES = ((0.1, 5.0, 3.0), (0.5, 14.0, 15.0))
# the CLI's default target and cases, (gamma, dB, y_m), up to 20 dB
CLI_TARGET = default_grid(math.sqrt(10.0), 2048)
CLI_CASES = ((0.5, 14.0, 15.0), (0.1, 20.0, 3.0), (0.5, 20.0, 15.0))
# (s_in, half-width, n1, s) of the wide targets, each at gamma = y_m = 0
WIDE_CASES = ((0.3, 25.0, 513, 1.0), (0.2, 40.0, 1025, 3.0))


def gate_distance(vac, params):
    """L2 between the oracle's and apply_gate's states, and the relative
    gap between their P."""
    oracle = oracle_two_mode(vac, params)
    closed = apply_gate(vac, params)
    rel = abs(closed.probability_density - oracle.probability_density) \
        / oracle.probability_density
    return phase_aligned_l2(closed.state, oracle.state), rel


def build_two_mode_grid(input, params):
    """Reference for oracle_two_mode, which factorises its sum: the ancilla
    grid and the entangled target x ancilla amplitude matrix
    psi(x1) psi_sq(x2) exp(i gamma x2^3) exp(i x1 x2)."""
    grid_2 = ancilla_grid_for(params, input.n_points,
                              max(abs(input.x_min), abs(input.x_max)))
    x2 = grid_2.x
    s = params.s
    sq = (math.sqrt(s) / math.pi ** 0.25) * np.exp(-0.5 * (s * x2) ** 2)
    row_phase = np.exp(1j * params.gamma * x2 ** 3) * sq
    return grid_2, input.amplitudes[:, None] * row_phase[None, :] \
        * np.exp(1j * np.outer(input.x, x2))


class TestOracleAddedFactor:
    def test_real_to_tolerance(self):
        for delta in (-2.0, 0.0, 1.5):
            v = oracle_added_factor(3.0 + delta,
                                    GateParams(gamma=0.1, s=1.0, y_m=3.0))
            assert abs(v.imag) <= 1e-8 * abs(v)

    def test_matches_closed_form(self):
        for gamma, s in ((0.1, 1.0), (0.5, 0.5623413251903491), (50.0, 0.03),
                         (1e3, 1.0), (1e4, 3.0)):
            params = GateParams(gamma=gamma, s=s, y_m=3.0)
            for x in (0.0, 2.0, 3.0, 7.5):
                o = oracle_added_factor(x, params)
                a = added_factor(x, params)
                assert abs(a - o) <= max(1e-8 * abs(o), 1e-12)

    def test_gamma_zero_matches_closed_form(self):
        """gamma = 0 under verify's rule, from squeezed to anti-squeezed."""
        x = np.linspace(-7.0, 13.0, 41)
        for s in (0.2, 1.0, 3.0):
            params = GateParams(gamma=0.0, s=s, y_m=3.0)
            o = oracle_added_factor(x, params)
            a = added_factor_grid(x, params)
            assert np.all(np.abs(a - o) <= np.maximum(1e-8 * np.abs(o), 1e-12))

    def test_matches_closed_form_where_s_squared_is_zero(self):
        """At s = 1e-170, s^2 is 0 and the saddle height is 0/0 on
        delta <= 0; the contour's floor still holds, so the values stay
        finite and equal the closed form."""
        params = GateParams(gamma=0.1, s=1e-170, y_m=3.0)
        x = params.y_m + np.array([0.0, -1.0, 1e-3])
        o = oracle_added_factor(x, params)
        a = added_factor_grid(x, params)
        assert np.all(np.isfinite(o))
        assert np.all(np.abs(a - o) <= 1e-12 * np.abs(a))

    def test_gamma_zero_where_s_squared_underflows_is_refused_by_name(self):
        """At gamma = 0 the same s leaves the quadrature no decay; the
        oracle passes on its refusal, which names the underflow."""
        with pytest.raises(DomainError,
                           match="s=1e-170 underflows s\\^2 to 0"):
            oracle_added_factor(np.array([0.0, -1.0, 1e-3]),
                                GateParams(0.0, 1e-170, 0.0))


class TestTwoModeGrid:
    def test_entangling_phases_unimodular(self):
        vac = make_squeezed_vacuum(1.0, GridSpec(-8.0, 8.0, 128))
        params = GateParams(gamma=0.1, s=1.0, y_m=3.0)
        grid_2, amplitudes = build_two_mode_grid(vac, params)
        x2 = grid_2.x
        s = params.s
        sq = (math.sqrt(s) / math.pi ** 0.25) * np.exp(-0.5 * (s * x2) ** 2)
        want = np.abs(vac.amplitudes)[:, None] * sq[None, :]
        assert np.allclose(np.abs(amplitudes), want, rtol=0, atol=1e-12)

    def test_unit_norm_after_entangling(self):
        vac = make_squeezed_vacuum(1.0, GridSpec(-8.0, 8.0, 256))
        grid_2, amplitudes = build_two_mode_grid(
            vac, GateParams(gamma=0.1, s=0.5, y_m=3.0))
        density = np.abs(amplitudes) ** 2
        norm2 = np.trapezoid(np.trapezoid(density, dx=grid_2.dx, axis=1),
                             dx=vac.dx)
        assert abs(norm2 - 1.0) < 1e-6


class TestOracleTwoMode:
    def test_agrees_with_gate(self):
        vac = make_squeezed_vacuum(1.0, GridSpec(-11.0, 11.0, 129))
        l2, rel = gate_distance(
            vac, GateParams(gamma=0.1, s=10.0 ** (-5.0 / 20.0), y_m=3.0))
        assert l2 <= 1e-6
        assert rel <= 1e-6

    def test_factorised_sum_matches_two_mode_matrix(self):
        """The factorised projection equals the trapezoid sum over the full
        entangled matrix, up to the rounding of the split phases."""
        vac = make_squeezed_vacuum(1.0, GridSpec(-11.0, 11.0, 129))
        for params in (GateParams(gamma=0.1, s=0.5623413251903491, y_m=3.0),
                       GateParams(gamma=0.5, s=0.5, y_m=-4.0)):
            grid_2, amplitudes = build_two_mode_grid(vac, params)
            projected = np.trapezoid(
                amplitudes * np.exp(-1j * params.y_m * grid_2.x),
                dx=grid_2.dx, axis=1) / math.sqrt(2.0 * math.pi)
            prob = float(np.trapezoid(np.abs(projected) ** 2, dx=vac.dx))
            oracle = oracle_two_mode(vac, params)
            assert abs(oracle.probability_density - prob) <= 1e-12 * prob
            assert np.max(np.abs(oracle.state.amplitudes
                                 - projected / math.sqrt(prob))) <= 1e-11

    def test_grid_halving_convergence(self, monkeypatch):
        """Halving the ancilla step on the same width moves neither P nor
        the state, at the verify cases and at 20 dB, up to (0.5, 20 dB, 15),
        the widest band and longest FFT of the tests: the band-limit rule
        has already converged."""
        vac = make_squeezed_vacuum(1.0, VERIFY_TARGET)
        cases = [GateParams(gamma=gamma, s=db_to_s(db), y_m=y_m)
                 for gamma, db, y_m in VERIFY_CASES + ((0.1, 20.0, 3.0),
                                                       (0.5, 20.0, 15.0))]
        rules = [oracle_two_mode(vac, params) for params in cases]

        def halved(*args):
            grid = ancilla_grid_for(*args)
            return GridSpec(grid.x_min, grid.x_max, 2 * grid.n_points - 1)

        monkeypatch.setattr("cvcat.oracle.ancilla_grid_for", halved)
        for params, rule in zip(cases, rules):
            fine = oracle_two_mode(vac, params)
            assert abs(rule.probability_density - fine.probability_density) \
                <= 1e-13 * fine.probability_density
            assert phase_aligned_l2(rule.state, fine.state) <= 1e-12

    def test_gamma_zero_output_stays_gaussian(self):
        vac = make_squeezed_vacuum(1.0, GridSpec(-9.0, 9.0, 257))
        out = oracle_two_mode(vac, GateParams(gamma=0.0, s=1.0, y_m=0.0))
        dens = out.state.density()
        x = out.state.x
        dx = out.state.dx
        mean = float(np.trapezoid(x * dens, dx=dx))
        m2 = float(np.trapezoid((x - mean) ** 2 * dens, dx=dx))
        m4 = float(np.trapezoid((x - mean) ** 4 * dens, dx=dx))
        assert abs(m4 / m2 ** 2 - 3.0) <= 1e-3

    def test_ancilla_grid_edge_rule(self):
        """No alias image of the column's band, which begins at
        2 pi/dx - B, reaches a target point, and the envelope has fallen to
        e^-L at the edge."""
        params = GateParams(gamma=0.5, s=0.1995262314968879, y_m=15.0)
        tail = math.sqrt(2.0 * _TAIL_EXPONENT)
        for x1_max in (0.0, 11.0, 1e4):
            grid = ancilla_grid_for(params, 256, x1_max)
            band = abs(params.y_m) + 3.0 * params.gamma * grid.x_max ** 2 \
                + params.s * tail
            assert grid.dx * (band + x1_max) <= 2.0 * math.pi * (1 + 1e-12)
            edge_envelope = math.exp(-0.5 * (params.s * grid.x_max) ** 2)
            assert edge_envelope <= math.exp(-_TAIL_EXPONENT) * (1 + 1e-12)

    def test_ancilla_grid_refuses_past_max_grid_points(self, monkeypatch):
        """At 30 dB the band-limit rule needs 1.08e7 ancilla points, over
        MAX_GRID_POINTS: refused by name, before any step or column."""
        def nothing(*args):
            raise AssertionError("work done for an oversized ancilla grid")

        monkeypatch.setattr("cvcat.oracle._projection_step", nothing)
        monkeypatch.setattr("cvcat.oracle._cis", nothing)
        params = GateParams(gamma=0.5, s=db_to_s(30.0), y_m=15.0)
        message = (f"ancilla grid at gamma=0.5, s={params.s!r} needs "
                   f"n_points=1.08e\\+07, over the {MAX_GRID_POINTS} cap")
        with pytest.raises(DomainError, match=message):
            ancilla_grid_for(params, 256)
        with pytest.raises(DomainError, match=message):
            oracle_two_mode(make_squeezed_vacuum(1.0, VERIFY_TARGET), params)

    def test_projection_step_rule(self):
        """The FFT length N is the least 2^a 3^b 5^c >= n1 whose ancilla
        step 2 pi/(N dx1) is at most ancilla_grid_for's, at the verify
        cases, 14 and 20 dB on the verify target, and the wide targets."""
        cases = [(VERIFY_TARGET, GateParams(gamma=gamma, s=db_to_s(db), y_m=y_m))
                 for gamma, db, y_m in VERIFY_CASES + ((0.1, 14.0, 3.0),
                                                       (0.1, 20.0, 3.0))]
        cases += [(GridSpec(-half, half, n1), GateParams(gamma=0.0, s=s, y_m=0.0))
                  for _, half, n1, s in WIDE_CASES]
        smooth = {2 ** a * 3 ** b * 5 ** c for a in range(40)
                  for b in range(26) for c in range(18)}
        for target, params in cases:
            n1, dx1 = target.n_points, target.dx
            rule = ancilla_grid_for(params, n1,
                                    max(abs(target.x_min), abs(target.x_max)))
            n_fft, dx2 = _projection_step(n1, dx1, rule.dx)
            assert abs(n_fft * dx1 * dx2 - 2.0 * math.pi) <= 8e-16 * 2.0 * math.pi
            assert dx2 <= rule.dx
            assert n_fft >= n1
            assert n_fft in smooth
            assert all(2.0 * math.pi / (m * dx1) > rule.dx
                       for m in smooth if n1 <= m < n_fft), (target, params)

    def test_refuses_an_fft_over_the_entry_cap(self, monkeypatch):
        """A target grid this fine would need an FFT of 7.41e7 points; it is
        refused before the FFT length is searched or the column built."""
        def nothing(*args):
            raise AssertionError("work done for an oversized FFT")

        monkeypatch.setattr("cvcat.oracle._projection_step", nothing)
        monkeypatch.setattr("cvcat.oracle._cis", nothing)
        vac = make_squeezed_vacuum(1e4, GridSpec(-1e-3, 1e-3, 4096))
        with pytest.raises(DomainError, match="FFT of 7.41e\\+07 points, over "
                                              "the 2\\^26 entry cap"):
            oracle_two_mode(vac, GateParams(gamma=0.1, s=1.0, y_m=3.0))

    @pytest.mark.parametrize("s, length", [(1e306, "1.04e+308"),
                                           (1e307, "inf")])
    def test_refuses_an_fft_length_past_the_float_range(self, monkeypatch, s,
                                                         length):
        """At these s the FFT length 2 pi/(dx1 dx) is 1.04e308 and inf: the
        projection is refused by name, with the length, before
        _projection_step takes the ceiling of it."""
        def nothing(*args):
            raise AssertionError("work done for an oversized FFT")

        monkeypatch.setattr("cvcat.oracle._projection_step", nothing)
        monkeypatch.setattr("cvcat.oracle._cis", nothing)
        vac = make_squeezed_vacuum(1.0, VERIFY_TARGET)
        with pytest.raises(DomainError, match=re.escape(
                f"FFT of {length} points, over the 2^26 entry cap")):
            oracle_two_mode(vac, GateParams(gamma=0.1, s=s, y_m=3.0))

    @pytest.mark.parametrize("gamma, db, y_m", VERIFY_CASES + (
        (0.1, 14.0, 3.0), (0.1, 20.0, 3.0), (0.2, 9.0, 6.0), (0.033, 0.0, 1.0)))
    def test_matches_gate_on_the_verify_target(self, gamma, db, y_m):
        """The ancilla grid keeps its envelope uncut at 20 dB; an envelope
        cut at e^-23 errs by an L2 of 2.0e-11."""
        vac = make_squeezed_vacuum(1.0, VERIFY_TARGET)
        l2, rel = gate_distance(vac, GateParams(gamma=gamma, s=db_to_s(db),
                                                y_m=y_m))
        assert l2 <= 1e-12
        assert rel <= 1e-12

    @pytest.mark.parametrize("gamma, db, y_m", CLI_CASES)
    def test_matches_gate_on_the_cli_grid(self, gamma, db, y_m):
        """On the CLI's 2,048-point grid the ancilla grid is the band rule
        alone; an ancilla shrunk to fit 2^26 target x ancilla entries erred
        by an L2 of 2.0e-13 and 1.65e-11, and the third case was refused."""
        vac = make_squeezed_vacuum(1.0, CLI_TARGET)
        l2, rel = gate_distance(vac, GateParams(gamma=gamma, s=db_to_s(db),
                                                y_m=y_m))
        assert l2 <= 1e-12
        assert rel <= 1e-12

    @pytest.mark.parametrize("s_in, half, n1, s", WIDE_CASES)
    def test_matches_gate_on_a_wide_target(self, s_in, half, n1, s):
        """The step counts the target's x range; a step blind to it aliases
        the column's spectrum onto the far points (L2 2.1e-3 and 1.2e-9)."""
        vac = make_squeezed_vacuum(s_in, GridSpec(-half, half, n1))
        l2, rel = gate_distance(vac, GateParams(gamma=0.0, s=s, y_m=0.0))
        assert l2 <= 1e-12
        assert rel <= 1e-12
