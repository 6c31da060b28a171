import math

import numpy as np
import pytest

from cvcat.errors import DegenerateSuperpositionError, DomainError
from cvcat.states import MAX_GRID_POINTS, CatParams, GateParams, GridSpec, \
    WaveFunction, cat_params_from_gate, default_grid, make_cubic_phase_state, \
    make_ideal_cat, make_squeezed_vacuum


def moment(wf, k):
    return float(np.trapezoid(wf.x ** k * wf.density(), dx=wf.dx))


class TestSqueezedVacuum:
    def test_vacuum_value_at_origin(self):
        wf = make_squeezed_vacuum(1.0, GridSpec(-8.0, 8.0, 2049))
        at_zero = wf.amplitudes[wf.n_points // 2]
        assert abs(at_zero - math.pi ** -0.25) < 1e-12

    def test_norm(self):
        for s in (1.0, 0.5, 0.1995262314968879):
            wf = make_squeezed_vacuum(s, GridSpec(-10.0 / s, 10.0 / s, 2048))
            assert abs(moment(wf, 0) - 1.0) < 1e-9

    def test_variance(self):
        wf = make_squeezed_vacuum(0.5, GridSpec(-20.0, 20.0, 2048))
        assert abs(moment(wf, 2) - 2.0) < 1e-6

    def test_grid_too_narrow(self):
        with pytest.raises(DomainError):
            make_squeezed_vacuum(0.1, GridSpec(-8.0, 8.0, 2048))

    def test_rejects_nonpositive_s(self):
        with pytest.raises(DomainError):
            make_squeezed_vacuum(0.0, GridSpec(-10.0, 10.0, 2048))

    @pytest.mark.parametrize("s", [math.inf, math.nan])
    def test_refuses_non_finite_s_by_name(self, s):
        """An infinite s passed the positivity check and made inf * 0 = NaN
        amplitudes; it is refused by name before any array work, also
        through the cubic phase state."""
        grid = GridSpec(-10.0, 10.0, 2048)
        want = f"squeeze factor s must be finite, got {s!r}"
        with pytest.raises(DomainError, match=want):
            make_squeezed_vacuum(s, grid)
        with pytest.raises(DomainError, match=want):
            make_cubic_phase_state(0.1, s, grid)


class TestCubicPhaseState:
    def test_pure_phase_factor(self):
        grid = GridSpec(-12.0, 12.0, 1024)
        cubic = make_cubic_phase_state(0.1, 1.0, grid)
        base = make_squeezed_vacuum(1.0, grid)
        assert np.allclose(np.abs(cubic.amplitudes), np.abs(base.amplitudes),
                           rtol=0, atol=1e-15)

    def test_gamma_zero_identity(self):
        grid = GridSpec(-12.0, 12.0, 1024)
        cubic = make_cubic_phase_state(0.0, 1.0, grid)
        base = make_squeezed_vacuum(1.0, grid)
        assert np.array_equal(cubic.amplitudes, base.amplitudes)


class TestIdealCat:
    def test_alpha_zero_theta_zero_is_vacuum(self):
        grid = GridSpec(-8.0, 8.0, 1024)
        cat = make_ideal_cat(CatParams(0.0, 0.0), grid)
        vac = make_squeezed_vacuum(1.0, grid)
        assert np.allclose(cat.amplitudes, vac.amplitudes, rtol=0, atol=1e-12)

    def test_norm(self):
        for p_plus, theta in ((3.1623, 0.7854), (1.0, -2.0), (0.3, 0.0)):
            wf = make_ideal_cat(CatParams(p_plus, theta),
                                default_grid(p_plus, 2048))
            assert abs(moment(wf, 0) - 1.0) < 1e-9

    def test_momentum_peaks(self):
        cat = make_ideal_cat(CatParams(3.162, 0.7854),
                             GridSpec(-16.0, 16.0, 4096))
        spec = np.fft.fftshift(np.fft.fft(cat.amplitudes))
        p = 2.0 * math.pi * np.fft.fftshift(np.fft.fftfreq(cat.n_points,
                                                           d=cat.dx))
        dens = np.abs(spec) ** 2
        pos = p > 0
        neg = p < 0
        assert abs(p[pos][np.argmax(dens[pos])] - 3.162) < 0.05
        assert abs(p[neg][np.argmax(dens[neg])] + 3.162) < 0.05

    def test_parity_symmetric_density_at_theta_zero(self):
        grid = GridSpec(-12.0, 12.0, 2001)
        cat = make_ideal_cat(CatParams(2.0, 0.0), grid)
        dens = cat.density()
        assert np.allclose(dens, dens[::-1], rtol=0, atol=1e-12)

    def test_degenerate_superposition(self):
        with pytest.raises(DegenerateSuperpositionError):
            make_ideal_cat(CatParams(0.0, math.pi / 2.0),
                           default_grid(0.0, 2048))


class TestCatParams:
    @pytest.mark.parametrize("p_plus, theta", [
        (math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0),
        (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf)])
    def test_refuses_non_finite_by_name(self, p_plus, theta):
        with pytest.raises(DomainError, match="p_plus and theta must be finite"):
            CatParams(p_plus, theta)

    def test_refuses_the_infinite_p_plus_of_a_subnormal_gamma(self):
        """y_m / (3 gamma) overflows at gamma = 5e-324, while theta stays
        finite; the cat is refused where it is made, not by the grid."""
        with pytest.raises(DomainError, match="p_plus and theta must be finite"):
            cat_params_from_gate(GateParams(5e-324, 1.0, 3.0))


class TestCatParamsFromGate:
    def test_ym_zero(self):
        cat = cat_params_from_gate(GateParams(gamma=0.3, s=1.0, y_m=0.0))
        assert cat.p_plus == 0.0
        assert abs(cat.theta - math.pi / 4.0) < 1e-15

    def test_direct_evaluation(self):
        cat = cat_params_from_gate(GateParams(gamma=0.1, s=1.0, y_m=3.0))
        assert abs(cat.p_plus - math.sqrt(10.0)) < 1e-12
        want = math.pi / 4.0 - (2.0 / (3.0 * math.sqrt(0.3))) * 3.0 ** 1.5
        want = math.remainder(want, 2.0 * math.pi)
        assert abs(cat.theta - want) < 1e-12

    def test_proportional_gamma_family(self):
        for y_m in (3.0, 6.0, 9.0, 12.0, 15.0):
            cat = cat_params_from_gate(GateParams(gamma=y_m / 30.0, s=1.0,
                                                  y_m=y_m))
            assert abs(cat.p_plus - math.sqrt(10.0)) < 1e-12

    def test_theta_reduced(self):
        for y_m in (3.0, 7.0, 15.0, 40.0):
            cat = cat_params_from_gate(GateParams(gamma=0.2, s=1.0, y_m=y_m))
            assert -math.pi < cat.theta <= math.pi

    def test_rejects_negative_ym(self):
        with pytest.raises(DomainError):
            cat_params_from_gate(GateParams(gamma=0.1, s=1.0, y_m=-1.0))


class TestWaveFunction:
    def test_grid_halving_moment_stability(self):
        coarse = make_squeezed_vacuum(1.0, GridSpec(-10.0, 10.0, 2048))
        fine = make_squeezed_vacuum(1.0, GridSpec(-10.0, 10.0, 4096))
        for k in (0, 2, 4):
            assert abs(moment(coarse, k) - moment(fine, k)) < 1e-8

    def test_normalized_flag_checked(self):
        with pytest.raises(DomainError,
                           match=r"\[-1\.0, 1\.0\] with n_points=32"):
            WaveFunction(GridSpec(-1.0, 1.0, 32), np.ones(32, dtype=complex))

    def test_rejects_non_finite_amplitudes(self):
        amp = np.ones(32, dtype=complex)
        amp[3] = np.nan
        with pytest.raises(DomainError):
            WaveFunction(GridSpec(-1.0, 1.0, 32), amp)

    def test_copies_the_callers_array(self):
        buf = np.full(32, 0.5 ** 0.5, dtype=complex)
        view = buf[:]
        wf = WaveFunction(GridSpec(0.0, 2.0, 32), buf)
        assert buf.flags.writeable
        buf[0] = 5.0
        view[:] = 5.0
        assert np.all(wf.amplitudes == 0.5 ** 0.5)

    def test_cached_arrays_are_read_only(self):
        wf = make_squeezed_vacuum(1.0, GridSpec(-10.0, 10.0, 64))
        for arr in (wf.x, wf.density(), wf.amplitudes):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        assert wf.x is wf.x and wf.density() is wf.density()
        assert np.array_equal(wf.x, np.linspace(-10.0, 10.0, 64))
        assert np.array_equal(wf.density(), np.abs(wf.amplitudes) ** 2)

    def test_states_on_one_grid_share_its_coordinates(self):
        grid = GridSpec(-10.0, 10.0, 64)
        a = make_squeezed_vacuum(1.0, grid)
        b = make_cubic_phase_state(0.1, 1.0, grid)
        assert a.grid is grid and b.grid is grid
        assert a.x is grid.x and b.x is grid.x and a.dx == grid.dx
        assert (a.x_min, a.x_max, a.n_points) == (-10.0, 10.0, 64)

    def test_grid_spec_caps_n_points(self):
        # the coordinates are made on first use, so no check here allocates
        assert GridSpec(-1.0, 1.0, MAX_GRID_POINTS).n_points == MAX_GRID_POINTS
        for n in (15, MAX_GRID_POINTS + 1, 10 ** 11):
            with pytest.raises(DomainError, match=str(MAX_GRID_POINTS)):
                GridSpec(-1.0, 1.0, n)

    @pytest.mark.parametrize("n", [20.5, 20.0])
    def test_grid_spec_refuses_a_count_that_is_not_an_integer(self, n):
        # at construction, not as a TypeError from np.linspace at the first .x
        with pytest.raises(DomainError,
                           match=f"n_points must be an integer, got {n!r}"):
            GridSpec(-10.0, 10.0, n)

    def test_default_grid_covers_lobes(self):
        grid = default_grid(3.0, 512)
        assert grid.x_min == -11.0 and grid.x_max == 11.0

    def test_gate_params_reject_non_finite(self):
        for bad in (math.nan, math.inf, -math.inf):
            for kwargs in ({"gamma": bad, "s": 1.0, "y_m": 3.0},
                           {"gamma": 0.1, "s": bad, "y_m": 3.0},
                           {"gamma": 0.1, "s": 1.0, "y_m": bad}):
                with pytest.raises(DomainError):
                    GateParams(**kwargs)

    def test_grid_spec_rejects_non_finite_bounds(self):
        for lo, hi in ((-math.inf, 1.0), (-1.0, math.inf), (math.nan, 1.0),
                       (-1.0, math.nan)):
            with pytest.raises(DomainError):
                GridSpec(lo, hi, 64)

    def test_gate_params_validation(self):
        with pytest.raises(DomainError):
            GateParams(gamma=0.1, s=0.0, y_m=3.0)
        with pytest.raises(DomainError):
            GateParams(gamma=-0.1, s=1.0, y_m=3.0)
