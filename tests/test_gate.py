import itertools
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from cvcat.errors import DomainError, ZeroProbabilityOutcomeError
from cvcat.gate import added_factor, added_factor_grid, added_factor_rows, \
    apply_gate, gate_rows, outcome_probability_density
from cvcat.oracle import integrate_oscillatory_gaussian
from cvcat.states import GateParams, GridSpec, make_squeezed_vacuum
from cvcat.analysis import SweepSpec, db_to_s, phase_aligned_l2, run_sweep
from cvcat.cli import VERIFY_GRID


# (gamma, y_m) at s = 1 where the factor overflows: the Airy phase zeta at
# |z| ~ 1e206
OVERFLOWING = [(0.1, 1e206)]

# (gamma, y_m) at s = 1 where lead and zeta, each about s^6/(108 gamma^2),
# would cancel into an overflow in exp(lead - zeta): three small gammas (the
# third is y_m = 5e-161 under the y_m/30 rule) and z itself overflowing at
# 1e-300
SMALL_GAMMA = [(1e-12, 3.0), (1e-100, 3.0), (5e-161 / 30.0, 5e-161),
               (1e-300, 3.0)]

# gamma = 1/3, s = 1 and y_m = 0 make z = x + 0.25 exactly. SEAM_Z holds
# every regime and z exactly on the seams z = +-9 and one ulp either side,
# in ascending order, the order that takes the binary-search route.
SEAM_PARAMS = GateParams(gamma=1.0 / 3.0, s=1.0, y_m=0.0)
SEAM_Z = np.sort(np.concatenate([
    np.linspace(-30.0, 30.0, 25), [-9.0, 9.0],
    [np.nextafter(edge, to) for edge in (-9.0, 9.0) for to in (-40.0, 40.0)]]))


def vacuum(grid=None):
    return make_squeezed_vacuum(1.0, grid or GridSpec(-10.0, 10.0, 2048))


class TestAddedFactor:
    def test_matches_defining_integral(self):
        params = GateParams(gamma=0.1, s=1.0, y_m=0.0)
        want = math.sqrt(1.0) / (math.pi ** 0.75 * math.sqrt(2.0)) \
            * integrate_oscillatory_gaussian(0.0, 0.1, 1.0)
        got = added_factor(0.0, params)
        assert abs(got.imag) == 0.0
        assert abs(got - want) <= 1e-8 * abs(want)

    def test_vanishes_with_strong_squeezing(self):
        # the factor decays like sqrt(s) at fixed coordinate: monotone to 0
        vals = [abs(added_factor(3.0, GateParams(gamma=0.1, s=s, y_m=3.0)))
                for s in (1.0, 0.3, 0.1, 0.03, 0.01, 0.001)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        # sqrt(s) scaling in the small-s regime
        ratio = vals[-1] / vals[-2]
        assert abs(ratio - math.sqrt(0.001 / 0.01)) < 0.02

    def test_vanishes_by_two_decades_at_s_005(self):
        # the decay is exactly sqrt(s): at x = y_m the factor tends to
        # sqrt(2 s) pi^(1/4) (3 gamma)^(-1/3) Ai(0), so s = 0.05 keeps ~0.31
        # of the s = 1 value and two decades need s below ~5e-5
        gamma = 0.1
        ai0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
        limit = math.sqrt(2.0) * math.pi ** 0.25 \
            * (3.0 * gamma) ** (-1.0 / 3.0) * ai0

        def size(s):
            return abs(added_factor(3.0, GateParams(gamma=gamma, s=s, y_m=3.0)))

        assert abs(size(0.05) / math.sqrt(0.05) - limit) <= 1e-4 * limit
        weak = size(1.0)
        assert size(1e-4) > 1e-2 * weak
        assert size(2e-5) < 1e-2 * weak

    def test_depends_on_x_minus_ym_only(self):
        a = added_factor_grid(np.array([1.0, 2.0]),
                              GateParams(gamma=0.2, s=0.5, y_m=0.0))
        b = added_factor_grid(np.array([6.0, 7.0]),
                              GateParams(gamma=0.2, s=0.5, y_m=5.0))
        assert np.array_equal(a, b)

    def test_no_overflow_at_strong_squeezing(self):
        # s^4/(18 gamma) alone overflows exp() here; the log-space assembly
        # must keep the product finite
        params = GateParams(gamma=0.01, s=5.0, y_m=0.0)
        vals = added_factor_grid(np.linspace(-10.0, 10.0, 101), params)
        assert np.all(np.isfinite(vals))

    def test_scalar_matches_grid_across_regimes(self):
        """x is placed so that z runs through every Airy regime and lands
        1e-9 either side of the seams z = 0, +-4 and +-9."""
        params = GateParams(gamma=0.1, s=0.7, y_m=3.0)
        scale = (3.0 * params.gamma) ** (-1.0 / 3.0)
        seams = [edge + d for edge in (-9.0, -4.0, 0.0, 4.0, 9.0)
                 for d in (-1e-9, 0.0, 1e-9)]
        z = np.concatenate([np.linspace(-30.0, 30.0, 121), seams])
        for z in (z, np.sort(z)):
            x = z / scale - params.s ** 4 / (12.0 * params.gamma) + params.y_m
            grid = added_factor_grid(x, params)
            assert np.all(np.isfinite(grid)) and np.all(grid != 0.0)
            assert all(added_factor(float(v), params) == grid[i]
                       for i, v in enumerate(x))

    def test_ordered_and_masked_routes_agree_to_the_bit(self):
        """An x with ascending z is split by binary search, a reversed or
        shuffled one by masks; both give the same bits at every point."""
        x = SEAM_Z - 0.25
        assert np.array_equal(x + 0.25, SEAM_Z)
        want = added_factor_grid(x, SEAM_PARAMS).tobytes()
        shuffle = np.random.default_rng(0).permutation(x.size)
        for order in (np.arange(x.size), np.arange(x.size)[::-1], shuffle):
            got = added_factor_grid(x[order], SEAM_PARAMS)[np.argsort(order)]
            assert got.tobytes() == want

    def test_caller_arrays_keep_their_bytes(self):
        """The factor's forms work in place on temporaries of their own:
        writable ascending, reversed, shuffled and 2-D x come back unchanged
        from added_factor_grid, and a stand-in input's writable x and
        amplitudes from apply_gate and outcome_probability_density."""
        x = SEAM_Z - 0.25
        shuffle = np.random.default_rng(0).permutation(x.size)
        for a in (x.copy(), x[::-1].copy(), x[shuffle], np.stack([x, x[::-1]])):
            want = a.tobytes()
            added_factor_grid(a, SEAM_PARAMS)
            assert a.tobytes() == want
        grid = GridSpec(-10.0, 10.0, 256)
        for y_m in (-30.0, 0.0, 30.0):   # all z >= 9, both edges, all z <= -9
            amplitudes = np.exp(-grid.x ** 2 / 2.0) + 0.5j
            wave = SimpleNamespace(grid=grid, x=grid.x.copy(), dx=grid.dx,
                                   amplitudes=amplitudes,
                                   density=lambda: np.abs(amplitudes) ** 2,
                                   n_points=grid.n_points)
            want = wave.x.tobytes(), wave.amplitudes.tobytes()
            apply_gate(wave, GateParams(gamma=0.1, s=1.0, y_m=y_m))
            outcome_probability_density(wave, 0.1, 1.0, y_m)
            assert (wave.x.tobytes(), wave.amplitudes.tobytes()) == want

    def test_non_finite_coordinate_is_named(self):
        """A NaN or infinite coordinate anywhere in an ascending x leaves a
        NaN factor there, which every entry point names. apply_gate and
        outcome_probability_density see it through a stand-in input, since
        a WaveFunction cannot hold such a grid."""
        named = "^" + re.escape("added factor is not finite at "
                                "gamma=0.3333333333333333, s=1.0, y_m=0.0") + "$"
        gamma, s, y_m = 1.0 / 3.0, 1.0, 0.0
        for bad, at in itertools.product((math.nan, -math.inf, math.inf),
                                         (0, SEAM_Z.size // 2, SEAM_Z.size)):
            x = np.insert(SEAM_Z - 0.25, at, bad)
            wave = SimpleNamespace(x=x, amplitudes=np.full(x.size, 0.1 + 0j),
                                   dx=0.5, n_points=x.size)
            with pytest.raises(DomainError, match=named):
                added_factor_grid(x, SEAM_PARAMS)
            with pytest.raises(DomainError, match=named):
                apply_gate(wave, SEAM_PARAMS)
            with pytest.raises(DomainError, match=named):
                outcome_probability_density(wave, gamma, s, y_m)

    def test_matches_closed_form(self, mp, reference_integral):
        """Against the 30-digit closed form on z = -75..120 at step 0.5, to
        1e-10 relative. On z < 0 the scale is the oscillation envelope, with
        Ai replaced by its modulus sqrt(Ai^2 + Bi^2): next to a zero of Ai
        the rounding of z alone moves the value by more than 1e-10 of itself.
        Strong squeezing keeps both ends above the underflow threshold."""
        gamma, s, y_m = 0.05, 1.5, 2.0
        scale = (3.0 * gamma) ** (-1.0 / 3.0)
        z = np.arange(-150, 241) / 2.0
        x = z / scale - s ** 4 / (12.0 * gamma) + y_m
        got = added_factor_grid(x, GateParams(gamma=gamma, s=s, y_m=y_m))
        norm = math.sqrt(s) / (math.pi ** 0.75 * math.sqrt(2.0))
        for xi, zi, g in zip(x, z, got):
            delta = xi - y_m
            want = norm * reference_integral(delta, gamma, s).real
            size = abs(want)
            if zi < 0.0:
                lead = 2.0 * math.pi * scale * mp.exp(
                    s * s / (6.0 * gamma) * (delta + s ** 4 / (18.0 * gamma)))
                size = max(size, float(norm * lead * mp.sqrt(
                    mp.airyai(zi) ** 2 + mp.airybi(zi) ** 2)))
            assert abs(g - want) <= 1e-10 * size, zi

    @pytest.mark.parametrize("gamma, y_m", OVERFLOWING)
    def test_overflowing_factor_is_rejected(self, gamma, y_m):
        """The factor overflows at these settings; it must fail with an
        error that names gamma, s and y_m, not come back as inf or NaN with
        only a RuntimeWarning (which fails the suite)."""
        params = GateParams(gamma=gamma, s=1.0, y_m=y_m)
        named = re.escape(f"not finite at gamma={gamma!r}, s=1.0, y_m={y_m!r}")
        with pytest.raises(DomainError, match=named):
            added_factor_grid(np.linspace(-10.0, 10.0, 64), params)
        with pytest.raises(DomainError, match=named):
            apply_gate(vacuum(), params)
        with pytest.raises(DomainError, match=named):
            outcome_probability_density(vacuum(), gamma, 1.0, y_m)

    def test_rows_equal_the_per_row_route_on_the_verify_grid(self):
        """On VERIFY_GRID's 36 settings, over x = y_m + delta (36, 41) and
        over the offsets shared as one 1-D x, the block equals one
        added_factor_grid call per row to the bit."""
        gammas, dbs, y_ms, deltas = VERIFY_GRID
        rows = [GateParams(gamma=gamma, s=db_to_s(db), y_m=y_m)
                for gamma in gammas for db in dbs for y_m in y_ms]
        x = np.array([p.y_m for p in rows])[:, None] + deltas
        assert x.shape == (36, 41)
        assert np.array_equal(added_factor_rows(x, rows), np.array(
            [added_factor_grid(xi, p) for xi, p in zip(x, rows)]))
        assert np.array_equal(added_factor_rows(deltas, rows), np.array(
            [added_factor_grid(deltas, p) for p in rows]))

    def test_no_rows_give_an_empty_block(self):
        """No settings give a (0, n) factor block, on a shared 1-D x and on
        an x of rows, and gate_rows an empty block, an empty P and no
        errors."""
        x = np.linspace(-10.0, 10.0, 64)
        assert added_factor_rows(x, []).shape == (0, 64)
        assert added_factor_rows(np.empty((0, 64)), []).shape == (0, 64)
        states, prob, errors = gate_rows(vacuum(), [])
        assert states.shape == (0, vacuum().n_points)
        assert prob.shape == (0,) and errors == []

    @pytest.mark.parametrize("shape", [(), (5,), (1, 5), (2, 5), (3, 5),
                                       (4, 5), (1, 3, 5), (3, 1, 5)])
    @pytest.mark.parametrize("n_rows", [0, 3])
    def test_rows_refuse_an_x_of_another_shape(self, shape, n_rows):
        """An x that is neither 1-D nor one row per setting is refused by
        name, where it broadcast against the columns or escaped as numpy's
        bare ValueError."""
        rows = [GateParams(0.1, 1.0, y_m) for y_m in range(n_rows)]
        x = np.zeros(shape)
        if len(shape) == 1 or shape[:-1] == (n_rows,):
            assert added_factor_rows(x, rows).shape == (n_rows, shape[-1])
            return
        with pytest.raises(DomainError, match=re.escape(
                f"one x row per setting, ({n_rows}, n); got {shape}")):
            added_factor_rows(x, rows)

    @pytest.mark.parametrize("gamma, y_m", OVERFLOWING)
    def test_rows_name_their_first_non_finite_row(self, gamma, y_m):
        """A block with an overflowing row raises what added_factor_grid
        raises at that row, though a later row overflows too."""
        x = np.linspace(-10.0, 10.0, 64)
        bad = GateParams(gamma=gamma, s=1.0, y_m=y_m)
        with pytest.raises(DomainError) as want:
            added_factor_grid(x, bad)
        rows = [GateParams(gamma=gamma, s=1.0, y_m=3.0), bad,
                GateParams(gamma=gamma, s=1.0, y_m=2.0 * y_m)]
        with pytest.raises(DomainError) as got:
            added_factor_rows(x, rows)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("gamma, y_m", SMALL_GAMMA)
    def test_small_gamma_matches_reference(self, gamma, y_m,
                                           reference_integral):
        """The factor is within 1e-13 of the reference: mpmath's closed form
        with its precision raised by log10(s^6/(108 gamma^2)) digits from
        gamma = 1e-14 on, the Gaussian limit below, where gamma moves the
        factor by less than 1e-80 of itself. Both entry points return the
        same P, within 1e-9 of the Gaussian gate's."""
        x = np.linspace(-10.0, 10.0, 64)
        got = added_factor_grid(x, GateParams(gamma=gamma, s=1.0, y_m=y_m))
        limit = gamma if gamma >= 1e-14 else 0.0
        want = np.array([reference_integral(v - y_m, limit, 1.0).real
                         for v in x]) / (math.pi ** 0.75 * math.sqrt(2.0))
        assert np.max(np.abs(got - want) / want) <= 1e-13
        p = outcome_probability_density(vacuum(), gamma, 1.0, y_m)
        assert apply_gate(vacuum(), GateParams(gamma=gamma, s=1.0, y_m=y_m)
                          ).probability_density == p
        gaussian = outcome_probability_density(vacuum(), 0.0, 1.0, y_m)
        assert abs(p - gaussian) <= 1e-9 * gaussian

    def test_overflowing_s_to_the_fourth_is_named(self):
        """From s ~ 1e77 on, s ** 4 overflows, z is +inf at every x and the
        factor is the Gaussian pi^(-1/4) s^(-1/2) exp(-(delta/s)^2 / 2).
        On the vacuum, P = pi^(-1/2)/s at every entry point, not an error."""
        s = 1e100
        want = 1.0 / (math.sqrt(math.pi) * s)
        out = apply_gate(vacuum(), GateParams(gamma=0.1, s=s, y_m=3.0))
        assert abs(out.probability_density - want) <= 1e-14 * want
        p = outcome_probability_density(vacuum(), 0.1, s, 3.0)
        assert p == out.probability_density
        [row] = run_sweep(SweepSpec(values=(1.0 / s,), y_m=3.0, gamma=0.1))
        assert row.error == ""
        assert abs(row.probability_density - want) <= 1e-14 * want

    @pytest.mark.parametrize("gamma", [1e-9, 1e-4, 0.1, 10.0])
    def test_exponentials_stay_below_their_bounds(self, gamma,
                                                  reference_integral):
        """With a = s^2/(6 gamma), the exponent over log_pref is at most
        zeta(z), reached where z = a^2 (3 gamma)^(2/3), which is x = y_m.
        s^2 = 2 sqrt(z) (3 gamma)^(2/3) puts that worst case at z = 9, just
        under it (below the edge, where exp(lead) Ai(z) is at its largest)
        and at z = 20 and 50 (above it, where lead - zeta = log_pref). The
        factor is finite there and matches the closed form."""
        scale = (3.0 * gamma) ** (-1.0 / 3.0)
        for z_star in (9.0, 20.0, 50.0):
            s = math.sqrt(2.0 * math.sqrt(z_star) * (3.0 * gamma) ** (2.0 / 3.0))
            assert 1e-3 <= s <= 1e3
            x = np.array([-1e-9 / scale, 0.0])
            got = added_factor_grid(x, GateParams(gamma=gamma, s=s, y_m=0.0))
            norm = math.sqrt(s) / (math.pi ** 0.75 * math.sqrt(2.0))
            want = np.array([norm * reference_integral(v, gamma, s).real
                             for v in x])
            assert np.all(np.isfinite(got))
            assert np.max(np.abs(got - want) / want) <= 1e-12, z_star

    def test_ideal_resource_limit_at_tiny_s(self, mp):
        """As s -> 0 the factor tends to the ideal-resource gate's
        sqrt(2 s) pi^(1/4) (3 gamma)^(-1/3) Ai(z), z = (3 gamma)^(-1/3) delta.
        At z = 15 and 30, above the edge, it holds to 1e-13 down to
        s = 1e-300, where u = 12 gamma delta / s^4 itself would overflow."""
        gamma = 0.1
        scale = (3.0 * gamma) ** (-1.0 / 3.0)
        delta = np.array([15.0, 30.0]) / scale
        for s in (1e-30, 1e-100, 1e-300):
            got = added_factor_grid(delta, GateParams(gamma=gamma, s=s, y_m=0.0))
            want = np.array([float(mp.sqrt(2 * mp.mpf(s)) * mp.pi ** 0.25
                                   * mp.mpf(scale) * mp.airyai(scale * d))
                             for d in delta])
            assert np.max(np.abs(got - want) / want) <= 1e-13, s

    def test_gamma_zero_at_tiny_s(self):
        """Below s ~ 1e-162, 2 s^2 underflows to 0; the Gaussian exponent is
        formed from (x - y_m)/s, so P comes back. It is 0 here, as no grid
        point lies within s of y_m, and the state fails by name."""
        for s, y_m in ((1e-200, 0.0), (1e-170, 0.3)):
            assert outcome_probability_density(vacuum(), 0.0, s, y_m) == 0.0
            with pytest.raises(ZeroProbabilityOutcomeError):
                apply_gate(vacuum(), GateParams(gamma=0.0, s=s, y_m=y_m))

    def test_gamma_zero_rows_in_a_block(self):
        """gamma = 0 rows take the Gaussian factor in a block as apply_gate
        takes it alone, next to the gamma > 0 rows that share one factor
        call."""
        rows = [GateParams(0.0, 1.0, 0.0), GateParams(0.1, 0.7, 3.0),
                GateParams(0.0, 0.5, 0.0), GateParams(0.2, 0.5, -2.0)]
        wave = vacuum()
        states, prob, errors = gate_rows(wave, rows)
        assert errors == [None] * len(rows)
        for i, row in enumerate(rows):
            out = apply_gate(wave, row)
            assert repr(out.probability_density) == repr(float(prob[i]))
            assert out.state.amplitudes.tobytes() == states[i].tobytes()

    def test_lone_row_equals_its_row_in_a_block(self):
        """apply_gate and outcome_probability_density take the factor's
        scalar route on a 1-D array, a block its column route row by row;
        both give the same output and P to the bit, at an outcome whose z
        is all at or above 9, one with z all at or below -9 and one that
        crosses both edges."""
        wave = vacuum()
        gamma, s = 0.1, 1.0
        scale = (3.0 * gamma) ** (-1.0 / 3.0)
        rows = [GateParams(gamma=gamma, s=s, y_m=y_m) for y_m in (-16.0, 17.0, 0.0)]
        z = [scale * (wave.x - row.y_m + s ** 4 / (12.0 * gamma)) for row in rows]
        assert z[0].min() >= 9.0 and z[1].max() <= -9.0
        assert z[2].min() < -9.0 and z[2].max() > 9.0
        states, prob, errors = gate_rows(wave, rows)
        assert errors == [None] * 3
        for i, row in enumerate(rows):
            out = apply_gate(wave, row)
            assert out.state.amplitudes.tobytes() == states[i].tobytes()
            assert repr(out.probability_density) == repr(float(prob[i]))
            p = outcome_probability_density(wave, gamma, s, row.y_m)
            assert repr(p) == repr(float(prob[i]))

    def test_gamma_zero_routed_to_special_case(self):
        """gamma = 0 is the Gaussian limit of the one factor formula."""
        assert added_factor(0.0, GateParams(gamma=0.0, s=1.0, y_m=0.0)) \
            == math.pi ** -0.25


class TestApplyGate:
    def test_output_normalized(self):
        out = apply_gate(vacuum(), GateParams(gamma=0.1,
                                              s=10.0 ** (-5.0 / 20.0), y_m=3.0))
        n2 = np.trapezoid(out.state.density(), dx=out.state.dx)
        assert abs(n2 - 1.0) < 1e-9
        assert out.probability_density > 0.0

    def test_global_phase_invariance(self):
        vac = vacuum()
        params = GateParams(gamma=0.1, s=0.5, y_m=3.0)
        rotated = type(vac)(vac.grid, np.exp(0.3j) * vac.amplitudes)
        a = apply_gate(vac, params).state
        b = apply_gate(rotated, params).state
        assert phase_aligned_l2(a, b) <= 1e-10

    def test_gamma_zero_gaussian_output(self):
        # vacuum * exp(-x^2/(2 s^2)) with s=1 is exp(-x^2): variance 1/4
        out = apply_gate(vacuum(), GateParams(gamma=0.0, s=1.0, y_m=0.0))
        var = float(np.trapezoid(out.state.x ** 2 * out.state.density(),
                                 dx=out.state.dx))
        assert abs(var - 0.25) < 1e-9
        # |psi~|^2 = exp(-2x^2)/pi integrates to 1/sqrt(2 pi)
        want = 1.0 / math.sqrt(2.0 * math.pi)
        assert abs(out.probability_density - want) <= 1e-9 * want

    def test_probability_grid_refinement(self):
        params = GateParams(gamma=0.1, s=0.5623413251903491, y_m=3.0)
        p1 = outcome_probability_density(vacuum(GridSpec(-10.0, 10.0, 2048)),
                                         params.gamma, params.s, params.y_m)
        p2 = outcome_probability_density(vacuum(GridSpec(-10.0, 10.0, 4096)),
                                         params.gamma, params.s, params.y_m)
        assert abs(p1 - p2) <= 1e-8 * p1

    def test_zero_probability_outcome(self):
        with pytest.raises(ZeroProbabilityOutcomeError):
            apply_gate(vacuum(), GateParams(gamma=0.0, s=0.5, y_m=50.0))

    def test_nan_gamma_not_routed_to_gaussian_case(self):
        vac = make_squeezed_vacuum(1.0, GridSpec(-10.0, 10.0, 256))
        with pytest.raises(DomainError):
            outcome_probability_density(vac, math.nan, 1.0, 3.0)

    def test_rejects_unnormalized_input(self):
        # the input the gate would refuse can no longer be built
        vac = vacuum()
        with pytest.raises(DomainError, match="is not 1 on the grid"):
            type(vac)(vac.grid, 2.0 * vac.amplitudes)

    def test_overflowing_probability_is_named(self):
        # at s = 1e-310 the Gaussian factor is finite, 1/sqrt(s) ~ 1e155 at
        # the grid point x = y_m = 0, but |psi~|^2 overflows
        vac = vacuum(GridSpec(-10.0, 10.0, 2049))
        named = re.escape("outcome probability density is not finite at "
                          "gamma=0.0, s=1e-310, y_m=0.0")
        params = GateParams(gamma=0.0, s=1e-310, y_m=0.0)
        assert np.isfinite(added_factor_grid(vac.x, params)).all()
        with pytest.raises(DomainError, match=named):
            outcome_probability_density(vac, 0.0, 1e-310, 0.0)
        with pytest.raises(DomainError, match=named):
            apply_gate(vac, params)

    def test_probability_density_consistency(self):
        params = GateParams(gamma=0.2, s=0.8, y_m=4.0)
        vac = vacuum()
        out = apply_gate(vac, params)
        p = outcome_probability_density(vac, params.gamma, params.s, params.y_m)
        assert p == out.probability_density
