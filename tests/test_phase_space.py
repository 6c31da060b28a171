import io
import math

import numpy as np
import pytest

from cvcat.errors import DomainError
from cvcat.gate import apply_gate
from cvcat.phase_space import WignerGrid, build_support_region, \
    intersect_horizontal, semiclassical_shear, suggest_wigner_bounds, \
    wigner_log_negativity, wigner_transform
from cvcat.states import CatParams, GateParams, GridSpec, \
    cat_params_from_gate, make_cubic_phase_state, make_ideal_cat, \
    make_squeezed_vacuum


def vacuum_wigner(n=241):
    vac = make_squeezed_vacuum(1.0, GridSpec(-8.0, 8.0, 2 * n - 1))
    return wigner_transform(vac, (-6.0, 6.0, -6.0, 6.0), n, n)


class TestWignerTransform:
    def test_vacuum_peak(self):
        w = vacuum_wigner(241)
        # odd counts put a node exactly at the origin
        assert abs(w.values[120, 120] - 1.0 / math.pi) < 1e-6

    def test_vacuum_is_gaussian(self):
        w = vacuum_wigner(121)
        want = np.exp(-np.add.outer(w.x ** 2, w.p ** 2)) / math.pi
        assert np.max(np.abs(w.values - want)) < 1e-6

    def test_mass_and_purity(self):
        w = vacuum_wigner(241)
        assert abs(w.mass() - 1.0) < 1e-3
        assert abs(w.purity() - 1.0) < 1e-3

    def test_marginal_matches_density(self):
        state = make_squeezed_vacuum(1.0, GridSpec(-7.5, 7.5, 301))
        # x nodes chosen to coincide with the state grid
        w = wigner_transform(state, (-7.5, 7.5, -8.0, 8.0), 301, 257)
        marginal = np.sum(w.values, axis=1) * w.dp
        assert np.max(np.abs(marginal - state.density())) < 1e-4

    def test_wigner_bound(self):
        cat = make_ideal_cat(CatParams(math.sqrt(10.0), math.pi / 4.0))
        w = wigner_transform(cat, suggest_wigner_bounds(cat))
        assert np.max(np.abs(w.values)) <= 1.0 / math.pi + 1e-6

    def test_bounds_truncating_state_rejected(self):
        vac = make_squeezed_vacuum(1.0, GridSpec(-8.0, 8.0, 512))
        with pytest.raises(DomainError):
            wigner_transform(vac, (-1.0, 1.0, -6.0, 6.0), 64, 64)

    def test_requires_normalized_state(self):
        vac = make_squeezed_vacuum(1.0, GridSpec(-8.0, 8.0, 512))
        bad = type(vac)(vac.x_min, vac.x_max, vac.n_points,
                        1.5 * vac.amplitudes)
        with pytest.raises(DomainError):
            wigner_transform(bad, (-6.0, 6.0, -6.0, 6.0), 64, 64)

    @pytest.mark.parametrize("n_x", [31, 33, 301])
    def test_off_lattice_matches_ideal_cat_closed_form(self, n_x):
        # W = sum_ab c_a* c_b exp(-x^2 - (p - p+(a+b)/2)^2 + i p+ x (b-a)) / pi
        # with c_+- = exp(+-i theta) / sqrt(denom); 31, 33 and 301 columns
        # fill less than one, just over one and many column blocks
        p_plus, theta = math.sqrt(10.0), math.pi / 4.0
        cat = make_ideal_cat(CatParams(p_plus, theta))
        w = wigner_transform(cat, (-6.07, 5.93, -9.9, 10.3), n_x, 257)
        offset = (w.x - cat.x_min) / cat.dx
        assert np.median(np.abs(offset - np.round(offset))) > 0.1
        denom = 2.0 * (1.0 + math.cos(2.0 * theta) * math.exp(-p_plus ** 2))
        x, p = w.x[:, None], w.p[None, :]
        want = np.zeros((n_x, 257), dtype=complex)
        for a in (1, -1):
            for b in (1, -1):
                coef = np.exp(1j * theta * (b - a)) / denom
                want += coef * np.exp(-x ** 2 - (p - p_plus * (a + b) / 2.0) ** 2
                                      + 1j * p_plus * x * (b - a))
        assert np.max(np.abs(w.values - want.real / math.pi)) < 1e-12

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_bounds_rejected(self, bad):
        vac = make_squeezed_vacuum(1.0, GridSpec(-8.0, 8.0, 512))
        for k in range(4):
            bounds = [-6.0, 6.0, -6.0, 6.0]
            bounds[k] = bad
            with pytest.raises(DomainError):
                wigner_transform(vac, tuple(bounds), 64, 64)


class TestWignerGrid:
    def test_fewer_than_two_points_rejected(self):
        with pytest.raises(DomainError):
            WignerGrid(-1.0, 1.0, -1.0, 1.0, 1, 4, np.zeros((1, 4)))
        with pytest.raises(DomainError):
            WignerGrid(-1.0, 1.0, -1.0, 1.0, 4, 1, np.zeros((4, 1)))

    @pytest.mark.parametrize("shape", [(3, 5), (2, 2), (5, 3)])
    def test_csv_matches_savetxt(self, shape):
        special = [-0.0, 5e-324, 2.2e-310, 1e300, -1e300, -1.0 / 3.0,
                   math.pi, 0.1, -7.0, 1e-17, 123456789.0, -2.5e-5,
                   0.0, 1.0, -0.5]
        values = np.array(special[:shape[0] * shape[1]]).reshape(shape)
        grid = WignerGrid(-1.5, 2.0, -3.25, 4.0, *shape, values)
        buf = io.StringIO()
        np.savetxt(buf, values, delimiter=",", fmt="%.17g")
        assert grid.to_csv() == f"-1.5,2.0,-3.25,4.0,{shape[0]},{shape[1]}\n" \
            + buf.getvalue()


class TestWignerLogNegativity:
    def test_vacuum_near_zero(self):
        assert abs(wigner_log_negativity(vacuum_wigner(241))) <= 1e-3

    def test_cat_value_stable_under_grid_doubling(self):
        cat = make_ideal_cat(CatParams(math.sqrt(10.0), math.pi / 4.0))
        bounds = suggest_wigner_bounds(cat)
        a = wigner_log_negativity(wigner_transform(cat, bounds, 256, 256))
        b = wigner_log_negativity(wigner_transform(cat, bounds, 512, 512))
        assert a > 0.0
        assert abs(a - b) <= 1e-3

    def test_gate_output_negativity(self):
        # high-fidelity configuration shows clear interference negativity;
        # the -0.05 floor comes from the ideal cat through the same transform
        params = GateParams(gamma=0.5, s=10.0 ** (-14.0 / 20.0), y_m=15.0)
        cat = cat_params_from_gate(params)
        vac = make_squeezed_vacuum(1.0, GridSpec(-12.0, 12.0, 2048))
        out = apply_gate(vac, params).state
        w = wigner_transform(out, suggest_wigner_bounds(out))
        ideal = make_ideal_cat(cat)
        wi = wigner_transform(ideal, suggest_wigner_bounds(ideal))
        assert np.min(wi.values) < -0.05
        assert np.min(w.values) < -0.05


class TestSemiclassicalShear:
    def test_fixed_line(self):
        assert semiclassical_shear(0.0, 1.7, 0.4) == (0.0, 1.7)

    def test_direct_value(self):
        assert semiclassical_shear(3.0, 0.0, 0.1) == (3.0, 2.7)

    def test_inverse_identity(self):
        x, y = semiclassical_shear(*semiclassical_shear(1.3, -0.4, 0.2),
                                   gamma=-0.2)
        assert (x, y) == (1.3, -0.4)


class TestSupportRegion:
    def test_unsheared_ellipse(self):
        region = build_support_region(0.5, 0.0, sigma_level=2.0)
        b = region.boundary
        assert abs(np.max(b[:, 0]) - 2.0 / (math.sqrt(2.0) * 0.5)) < 1e-9
        assert abs(np.max(b[:, 1]) - 2.0 * 0.5 / math.sqrt(2.0)) < 1e-9
        assert np.array_equal(b[0], b[-1])

    def test_shear_preserves_area(self):
        s = 10.0 ** (-14.0 / 20.0)
        flat = build_support_region(s, 0.0, n_boundary=4096)
        sheared = build_support_region(s, 0.1, n_boundary=4096)
        assert abs(flat.area() - sheared.area()) < 1e-6

    def test_two_intervals_at_measured_outcome(self):
        s = 10.0 ** (-14.0 / 20.0)
        region = build_support_region(s, 0.1, n_boundary=4096)
        intervals = intersect_horizontal(region, 3.0)
        assert len(intervals) == 2
        (a0, a1), (b0, b1) = intervals
        assert a1 < b0

    def test_validation(self):
        with pytest.raises(DomainError):
            build_support_region(0.0, 0.1)
        with pytest.raises(DomainError):
            build_support_region(1.0, 0.1, n_boundary=8)


class TestSuggestWignerBounds:
    def test_covers_vacuum(self):
        vac = make_squeezed_vacuum(1.0, GridSpec(-8.0, 8.0, 512))
        x_min, x_max, p_min, p_max = suggest_wigner_bounds(vac)
        assert x_min < -6.0 and x_max > 6.0
        assert p_min < -6.0 and p_max > 6.0

    def test_usable_for_cubic_state(self):
        state = make_cubic_phase_state(0.2, 1.0 / 2.82,
                                       GridSpec(-24.0, 24.0, 3072))
        w = wigner_transform(state, suggest_wigner_bounds(state), 128, 256)
        assert abs(w.mass() - 1.0) < 1e-3
