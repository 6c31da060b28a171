import io
import math

import numpy as np
import pytest

import cvcat.cli
import cvcat.phase_space
from cvcat.cli import main
from cvcat.errors import DomainError
from cvcat.gate import apply_gate
from cvcat.phase_space import SupportRegion, WignerGrid, \
    build_support_region, semiclassical_shear, suggest_wigner_bounds, \
    wigner_log_negativity, wigner_transform
from cvcat.states import MAX_GRID_POINTS, CatParams, GateParams, GridSpec, \
    band_limited_grid, cat_params_from_gate, default_grid, \
    make_cubic_phase_state, make_ideal_cat, make_squeezed_vacuum


def vacuum_wigner(n=241):
    vac = make_squeezed_vacuum(1.0, GridSpec(-8.0, 8.0, 2 * n - 1))
    return wigner_transform(vac, (-6.0, 6.0, -6.0, 6.0), n, n)


def axes(w):
    """The x and p nodes of a Wigner map."""
    return (np.linspace(w.x_min, w.x_max, w.n_x),
            np.linspace(w.p_min, w.p_max, w.n_p))


class TestWignerTransform:
    def test_vacuum_peak(self):
        w = vacuum_wigner(241)
        # odd counts put a node exactly at the origin
        assert abs(w.values[120, 120] - 1.0 / math.pi) < 1e-6

    def test_vacuum_is_gaussian(self):
        w = vacuum_wigner(121)
        x, p = axes(w)
        want = np.exp(-np.add.outer(x ** 2, p ** 2)) / math.pi
        assert np.max(np.abs(w.values - want)) < 1e-6

    def test_mass_and_purity(self):
        w = vacuum_wigner(241)
        assert abs(w.mass() - 1.0) < 1e-3
        purity = 2.0 * math.pi * np.sum(w.values ** 2) * w.dx * w.dp
        assert abs(purity - 1.0) < 1e-3

    def test_marginal_matches_density(self):
        state = make_squeezed_vacuum(1.0, GridSpec(-7.5, 7.5, 301))
        # x nodes chosen to coincide with the state grid
        w = wigner_transform(state, (-7.5, 7.5, -8.0, 8.0), 301, 257)
        marginal = np.sum(w.values, axis=1) * w.dp
        assert np.max(np.abs(marginal - state.density())) < 1e-4

    def test_wigner_bound(self):
        cat = make_ideal_cat(CatParams(math.sqrt(10.0), math.pi / 4.0),
                             default_grid(math.sqrt(10.0), 2048))
        w = wigner_transform(cat, suggest_wigner_bounds(cat), 256, 256)
        assert np.max(np.abs(w.values)) <= 1.0 / math.pi + 1e-6

    def test_bounds_truncating_state_rejected(self):
        vac = make_squeezed_vacuum(1.0, GridSpec(-8.0, 8.0, 512))
        with pytest.raises(DomainError):
            wigner_transform(vac, (-1.0, 1.0, -6.0, 6.0), 64, 64)

    def test_requires_normalized_state(self):
        # the state wigner_transform would refuse can no longer be built
        vac = make_squeezed_vacuum(1.0, GridSpec(-8.0, 8.0, 512))
        with pytest.raises(DomainError, match="n_points=512"):
            type(vac)(vac.grid, 1.5 * vac.amplitudes)

    @pytest.mark.parametrize("n_x", [31, 33, 301])
    def test_off_lattice_matches_ideal_cat_closed_form(self, n_x):
        # W = sum_ab c_a* c_b exp(-x^2 - (p - p+(a+b)/2)^2 + i p+ x (b-a)) / pi
        # with c_+- = exp(+-i theta) / sqrt(denom); 31, 33 and 301 columns
        # fill less than one, just over one and many column blocks
        p_plus, theta = math.sqrt(10.0), math.pi / 4.0
        cat = make_ideal_cat(CatParams(p_plus, theta),
                             default_grid(p_plus, 2048))
        w = wigner_transform(cat, (-6.07, 5.93, -9.9, 10.3), n_x, 257)
        x, p = axes(w)
        offset = (x - cat.x_min) / cat.dx
        assert np.median(np.abs(offset - np.round(offset))) > 0.1
        denom = 2.0 * (1.0 + math.cos(2.0 * theta) * math.exp(-p_plus ** 2))
        x, p = x[:, None], p[None, :]
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

    @pytest.mark.parametrize("n_x, n_p, name", [
        (64.5, 64, "n_x"), (64, 64.0, "n_p")])
    def test_counts_that_are_not_integers_are_refused(self, n_x, n_p, name):
        vac = make_squeezed_vacuum(1.0, GridSpec(-8.0, 8.0, 512))
        with pytest.raises(DomainError, match=f"{name} must be an integer"):
            wigner_transform(vac, (-6.0, 6.0, -6.0, 6.0), n_x, n_p)

    @pytest.mark.parametrize("n_points, n_x, n_p", [
        (2048, 2 ** 16, 2), (2048, 2, 2 ** 16), (64, 2 ** 13 + 1, 2 ** 13 + 1)])
    def test_maps_over_the_entry_cap_are_refused(self, n_points, n_x, n_p):
        # the bounds truncate the state: had the size check not come first,
        # that cheap error would be raised instead of an allocation
        vac = make_squeezed_vacuum(1.0, GridSpec(-8.0, 8.0, n_points))
        with pytest.raises(DomainError) as info:
            wigner_transform(vac, (-1.0, 1.0, -6.0, 6.0), n_x, n_p)
        assert f"n_x={n_x}, n_p={n_p} on n_points={n_points}" in str(info.value)
        assert "2^26 entry cap" in str(info.value)


def gate_output(gamma, db, y_m, grid=None):
    """The gate's output for a vacuum input, on `cvcat wigner`'s default grid."""
    params = GateParams(gamma=gamma, s=10.0 ** (-db / 20.0), y_m=y_m)
    if grid is None:
        grid = default_grid(cat_params_from_gate(params).p_plus, 2048)
    return apply_gate(make_squeezed_vacuum(1.0, grid), params).state


def cubic_state(db):
    """`cvcat wigner --source cubic`'s state: gamma 0.1 on 2,048 points."""
    s = 10.0 ** (-db / 20.0)
    return make_cubic_phase_state(0.1, s, GridSpec(-10.0 / s, 10.0 / s, 2048))


REFERENCE_STATES = {
    "output(0.5, 14, 15)": lambda: gate_output(0.5, 14.0, 15.0),
    "output(0.1, 14, 3)": lambda: gate_output(0.1, 14.0, 3.0),
    "output(0.1, 5, 3)": lambda: gate_output(0.1, 5.0, 3.0),
    "cubic 5 dB": lambda: cubic_state(5.0),
    "cat": lambda: make_ideal_cat(CatParams(math.sqrt(10.0), math.pi / 4.0),
                                  default_grid(math.sqrt(10.0), 2048)),
    "vacuum": lambda: make_squeezed_vacuum(1.0, default_grid(0.0, 2048)),
}


def grid_aligned_bounds(state, n_x):
    """The suggested bounds with x_min, x_max moved onto state grid points
    an integer number of steps per map column apart, inside the grid."""
    x_min, x_max, p_min, p_max = suggest_wigner_bounds(state)
    last = state.n_points - 1
    lo = max(0, math.floor((x_min - state.x_min) / state.dx))
    hi = min(last, math.ceil((x_max - state.x_min) / state.dx))
    step = min(-(-(hi - lo) // (n_x - 1)), last // (n_x - 1))
    lo = min(lo, last - step * (n_x - 1))
    return (float(state.x[lo]), float(state.x[lo + step * (n_x - 1)]),
            p_min, p_max)


def brute_force_wigner(state, bounds, n_x, n_p):
    """(dy/pi) sum over every k of psi*(x + k dy) psi(x - k dy) exp(2ipk dy)
    at x on state grid points, one term per pair of samples."""
    a, dy, n = state.amplitudes, state.dx, state.n_points
    cols = np.rint((np.linspace(bounds[0], bounds[1], n_x) - state.x_min)
                   / dy).astype(int)
    k = np.arange(-(n - 1), n)
    corr = np.zeros((n_x, len(k)), dtype=complex)
    for i, j in enumerate(cols):
        both = (j + k >= 0) & (j + k < n) & (j - k >= 0) & (j - k < n)
        corr[i, both] = np.conj(a[j + k[both]]) * a[j - k[both]]
    p = np.linspace(bounds[2], bounds[3], n_p)
    return (corr @ np.exp(2j * np.outer(k * dy, p))).real * dy / math.pi


def p_bound(bounds):
    return max(abs(bounds[2]), abs(bounds[3]))


class TestYStride:
    # 65 columns: at 33 the gate outputs and the cat fail the mass check
    N_X, N_P = 65, 65

    def deviation(self, state):
        bounds = grid_aligned_bounds(state, self.N_X)
        want = brute_force_wigner(state, bounds, self.N_X, self.N_P)
        w = wigner_transform(state, bounds, self.N_X, self.N_P)
        return float(np.max(np.abs(w.values - want)))

    @pytest.mark.parametrize("name", REFERENCE_STATES)
    def test_matches_the_brute_force_sum(self, name):
        assert self.deviation(REFERENCE_STATES[name]()) <= 1e-12

    @pytest.mark.parametrize("name", REFERENCE_STATES)
    def test_a_coarser_rule_fails_the_brute_force_sum(self, name, monkeypatch):
        # a 1e-6 density floor and no half-Nyquist margin: strides of 5 to
        # 30 where the rule takes 1 to 13, off by 5e-11 to 1e-7
        def coarse(state, p_max):
            k_band = np.max(np.abs(
                cvcat.phase_space._momentum_support(state, 1e-6)))
            return max(1, int((math.pi / (k_band + p_max)) // state.dx))

        monkeypatch.setattr(cvcat.phase_space, "_y_stride", coarse)
        assert self.deviation(REFERENCE_STATES[name]()) > 1e-12

    def test_a_2048_point_output_takes_a_stride(self):
        out = gate_output(0.1, 14.0, 3.0)
        stride = cvcat.phase_space._y_stride(
            out, p_bound(suggest_wigner_bounds(out)))
        assert stride >= 2

    def test_a_band_limited_output_keeps_every_point(self):
        # a sweep's wln row sits on this grid; stride 1 keeps its bytes
        params = GateParams(gamma=0.1, s=10.0 ** (-14.0 / 20.0), y_m=3.0)
        out = gate_output(0.1, 14.0, 3.0, band_limited_grid(params, True))
        assert cvcat.phase_space._y_stride(
            out, p_bound(suggest_wigner_bounds(out))) == 1


class TestWignerGrid:
    def test_fewer_than_two_points_rejected(self):
        with pytest.raises(DomainError):
            WignerGrid(-1.0, 1.0, -1.0, 1.0, np.zeros((1, 4)))
        with pytest.raises(DomainError):
            WignerGrid(-1.0, 1.0, -1.0, 1.0, np.zeros((4, 1)))
        with pytest.raises(DomainError):
            WignerGrid(-1.0, 1.0, -1.0, 1.0, np.zeros(4))

    @pytest.mark.parametrize("shape", [(3, 5), (2, 2), (5, 3)])
    def test_csv_matches_savetxt(self, shape, monkeypatch, capsys):
        special = [-0.0, 5e-324, 2.2e-310, 1e300, -1e300, -1.0 / 3.0,
                   math.pi, 0.1, -7.0, 1e-17, 123456789.0, -2.5e-5,
                   0.0, 1.0, -0.5]
        values = np.array(special[:shape[0] * shape[1]]).reshape(shape)
        grid = WignerGrid(-1.5, 2.0, -3.25, 4.0, values)
        assert (grid.n_x, grid.n_p) == shape
        # `cvcat wigner` writes whatever grid the transform returns
        monkeypatch.setattr(cvcat.cli, "wigner_transform",
                            lambda *args: grid)
        assert main(["wigner", "--source", "vacuum", "--grid-points", "64",
                     "--bounds=-1.5:2:-3.25:4"]) == 0
        buf = io.StringIO()
        np.savetxt(buf, values, delimiter=",", fmt="%.17g")
        assert capsys.readouterr().out == \
            f"-1.5,2.0,-3.25,4.0,{shape[0]},{shape[1]}\n" + buf.getvalue()

    @pytest.mark.parametrize("bounds", [
        (math.nan, 1.0, -1.0, 1.0), (-1.0, math.inf, -1.0, 1.0),
        (-1.0, 1.0, -math.inf, 1.0), (-1.0, 1.0, -1.0, math.nan)])
    def test_non_finite_bounds_rejected(self, bounds):
        with pytest.raises(DomainError, match="bounds must be finite"):
            WignerGrid(*bounds, np.zeros((4, 4)))

    @pytest.mark.parametrize("bounds", [
        (1.0, -1.0, -1.0, 1.0), (1.0, 1.0, -1.0, 1.0),
        (-1.0, 1.0, 1.0, -1.0), (-1.0, 1.0, 2.0, 2.0)])
    def test_empty_or_reversed_bounds_rejected(self, bounds):
        # reversed x bounds gave dx = -1 and a mass of -9
        with pytest.raises(DomainError, match="x_min < x_max"):
            WignerGrid(*bounds, np.ones((4, 4)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        values = np.zeros((4, 4))
        values[2, 1] = bad
        with pytest.raises(DomainError, match="values must be finite"):
            WignerGrid(-1.0, 1.0, -1.0, 1.0, values)

    def test_copies_the_callers_array(self):
        buf = np.ones((4, 4))
        view = buf[:]
        grid = WignerGrid(0.0, 1.0, 0.0, 1.0, buf)
        assert buf.flags.writeable
        buf[0, 0] = 5.0
        view[:] = 5.0
        assert np.all(grid.values == 1.0) and not grid.values.flags.writeable


class TestWignerLogNegativity:
    def test_vacuum_near_zero(self):
        assert abs(wigner_log_negativity(vacuum_wigner(241))) <= 1e-3

    def test_zero_grid_is_refused(self):
        # the log of 0 had raised a bare ValueError
        with pytest.raises(DomainError, match="absolute integral is 0"):
            wigner_log_negativity(WignerGrid(-1.0, 1.0, -1.0, 1.0,
                                             np.zeros((4, 4))))

    def test_cat_value_stable_under_grid_doubling(self):
        cat = make_ideal_cat(CatParams(math.sqrt(10.0), math.pi / 4.0),
                             default_grid(math.sqrt(10.0), 2048))
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
        w = wigner_transform(out, suggest_wigner_bounds(out), 256, 256)
        ideal = make_ideal_cat(cat, default_grid(cat.p_plus, 2048))
        wi = wigner_transform(ideal, suggest_wigner_bounds(ideal), 256, 256)
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


def shoelace_area(region: SupportRegion) -> float:
    """Area enclosed by the region's closed boundary."""
    x, p = region.boundary[:, 0], region.boundary[:, 1]
    return float(0.5 * abs(np.sum(x[:-1] * p[1:] - x[1:] * p[:-1])))


def intersect_horizontal(region: SupportRegion, p_value: float):
    """x-intervals where the line p = p_value lies inside the region."""
    b = region.boundary
    crossings = []
    for i in range(len(b) - 1):
        (x0, p0), (x1, p1) = b[i], b[i + 1]
        if (p0 - p_value) * (p1 - p_value) < 0:
            t = (p_value - p0) / (p1 - p0)
            crossings.append(x0 + t * (x1 - x0))
    crossings.sort()
    return [(crossings[i], crossings[i + 1]) for i in range(0, len(crossings) - 1, 2)]


class TestSupportRegion:
    def test_unsheared_ellipse(self):
        region = build_support_region(0.5, 0.0, sigma_level=2.0, n_boundary=256)
        b = region.boundary
        assert abs(np.max(b[:, 0]) - 2.0 / (math.sqrt(2.0) * 0.5)) < 1e-9
        assert abs(np.max(b[:, 1]) - 2.0 * 0.5 / math.sqrt(2.0)) < 1e-9
        assert np.array_equal(b[0], b[-1])

    def test_shear_preserves_area(self):
        s = 10.0 ** (-14.0 / 20.0)
        flat = build_support_region(s, 0.0, sigma_level=2.0, n_boundary=4096)
        sheared = build_support_region(s, 0.1, sigma_level=2.0,
                                       n_boundary=4096)
        assert abs(shoelace_area(flat) - shoelace_area(sheared)) < 1e-6

    def test_two_intervals_at_measured_outcome(self):
        s = 10.0 ** (-14.0 / 20.0)
        region = build_support_region(s, 0.1, sigma_level=2.0, n_boundary=4096)
        intervals = intersect_horizontal(region, 3.0)
        assert len(intervals) == 2
        (a0, a1), (b0, b1) = intervals
        assert a1 < b0

    def test_csv_matches_savetxt(self, monkeypatch, capsys):
        region = build_support_region(0.3, 0.2, sigma_level=1.5, n_boundary=32)
        boundary = region.boundary.copy()
        boundary[1:4] = [[-0.0, 5e-324], [1e300, -1e-17], [-1.0 / 3.0, 0.0]]
        region = SupportRegion(boundary=boundary, sigma_level=1.5)
        # `cvcat support-region` writes whatever region the builder returns
        monkeypatch.setattr(cvcat.cli, "build_support_region",
                            lambda *args: region)
        assert main(["support-region"]) == 0
        buf = io.StringIO()
        np.savetxt(buf, boundary, delimiter=",", fmt="%.17g")
        assert capsys.readouterr().out == "x,p\n" + buf.getvalue()

    def test_copies_the_callers_array(self):
        buf = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [1.0, 0.0]])
        view = buf[:]
        region = SupportRegion(boundary=buf, sigma_level=1.0)
        assert buf.flags.writeable
        buf[0, 0] = 5.0
        view[1:3] = 5.0
        assert np.array_equal(region.boundary, [[1.0, 0.0], [0.0, 1.0],
                                                [-1.0, 0.0], [1.0, 0.0]])
        assert not region.boundary.flags.writeable

    def test_validation(self):
        with pytest.raises(DomainError):
            build_support_region(0.0, 0.1, sigma_level=2.0, n_boundary=256)
        with pytest.raises(DomainError):
            build_support_region(1.0, 0.1, sigma_level=2.0, n_boundary=8)

    @pytest.mark.parametrize("level", [0.0, -2.0, math.nan, math.inf])
    def test_sigma_level_must_be_finite_and_positive(self, level):
        with pytest.raises(DomainError, match="sigma_level must be finite"):
            build_support_region(1.0, 0.1, sigma_level=level, n_boundary=256)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
    def test_gamma_must_be_finite(self, gamma):
        with pytest.raises(DomainError, match="gamma must be finite"):
            build_support_region(1.0, gamma, sigma_level=2.0, n_boundary=256)

    def test_n_boundary_over_the_cap(self):
        # refused before np.linspace allocates the boundary
        with pytest.raises(DomainError, match=f"32 to {MAX_GRID_POINTS}, "):
            build_support_region(1.0, 0.1, sigma_level=2.0,
                                 n_boundary=MAX_GRID_POINTS + 1)

    def test_n_boundary_must_be_an_integer(self):
        with pytest.raises(DomainError,
                           match="n_boundary must be an integer, got 100.5"):
            build_support_region(0.5, 0.1, 2.0, 100.5)


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
