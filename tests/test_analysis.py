import math

import numpy as np
import pytest

from cvcat import states
from cvcat.analysis import SweepRow, SweepSpec, db_to_s, fidelity, \
    phase_aligned_l2, run_sweep
from cvcat.cli import _rows_csv
from cvcat.errors import DomainError
from cvcat.states import GateParams, GridSpec, WaveFunction, _inner, \
    make_squeezed_vacuum


def vacuum(grid=None):
    return make_squeezed_vacuum(1.0, grid or GridSpec(-10.0, 10.0, 2048))


def momentum_displaced_vacuum(p_shift, grid):
    x = grid.x
    amp = math.pi ** -0.25 * np.exp(-0.5 * x ** 2 + 1j * p_shift * x)
    return WaveFunction(grid, amp)


class TestFidelity:
    def test_self_overlap(self):
        vac = vacuum()
        assert abs(fidelity(vac, vac) - 1.0) < 1e-9

    def test_self_overlap_is_held_to_one(self):
        # on 102 points the trapezoid |<vac|vac>|^2 rounds to 1 + 4e-16
        vac = vacuum(GridSpec(-10.0, 10.0, 102))
        ov = _inner(vac.amplitudes, vac.amplitudes, vac.dx)
        assert abs(ov) ** 2 > 1.0
        assert fidelity(vac, vac) == 1.0

    def test_far_displaced_vacuum_orthogonal(self):
        # momentum shift sqrt(2)*10 is coherent amplitude 10: F = e^{-100};
        # trapezoid roundoff floors the computable overlap near 2e-15, so
        # the assertion is capped at 1e-28 instead of the analytic 3.7e-44
        grid = GridSpec(-18.0, 18.0, 4096)
        far = momentum_displaced_vacuum(math.sqrt(2.0) * 10.0, grid)
        assert fidelity(vacuum(grid), far) < 1e-28

    def test_symmetry(self):
        grid = GridSpec(-12.0, 12.0, 1024)
        a = momentum_displaced_vacuum(0.7, grid)
        b = momentum_displaced_vacuum(-0.4, grid)
        assert abs(fidelity(a, b) - fidelity(b, a)) <= 1e-12

    def test_global_phase_invariance(self):
        grid = GridSpec(-12.0, 12.0, 1024)
        a = momentum_displaced_vacuum(0.7, grid)
        b = momentum_displaced_vacuum(-0.4, grid)
        rotated = WaveFunction(grid, np.exp(1.1j) * b.amplitudes)
        assert abs(fidelity(a, b) - fidelity(a, rotated)) <= 1e-12

    def test_mismatched_grids_refused(self):
        # no resampling: states on two grids are refused, both grids named
        a = vacuum(GridSpec(-10.0, 10.0, 2048))
        b = vacuum(GridSpec(-12.0, 12.0, 1500))
        with pytest.raises(DomainError, match=(
                r"fidelity requires a common grid, got GridSpec\(x_min=-10.0, "
                r"x_max=10.0, n_points=2048\) and GridSpec\(x_min=-12.0, "
                r"x_max=12.0, n_points=1500\)")):
            fidelity(a, b)

    def test_rejects_unnormalized(self):
        # the state fidelity would refuse can no longer be built
        vac = vacuum()
        with pytest.raises(DomainError, match="n_points=2048"):
            WaveFunction(vac.grid, 2.0 * vac.amplitudes)

    def test_squeezed_overlap_is_exact(self):
        # |<vacuum|s=4 vacuum>|^2 = 2s/(1+s^2) = 8/17
        grid = GridSpec(-10.0, 10.0, 2048)
        a, b = vacuum(grid), make_squeezed_vacuum(4.0, grid)
        assert abs(fidelity(a, b) - 8.0 / 17.0) <= 1e-12
        assert abs(fidelity(b, a) - 8.0 / 17.0) <= 1e-12


class TestPhaseAlignedL2:
    def test_pure_phase_is_zero(self):
        grid = GridSpec(-10.0, 10.0, 512)
        a = vacuum(grid)
        b = WaveFunction(grid, np.exp(-0.9j) * a.amplitudes)
        assert phase_aligned_l2(a, b) <= 1e-10

    def test_requires_common_grid(self):
        with pytest.raises(DomainError,
                           match="phase_aligned_l2 requires a common grid"):
            phase_aligned_l2(vacuum(GridSpec(-10.0, 10.0, 512)),
                             vacuum(GridSpec(-10.0, 10.0, 256)))


class TestDbToS:
    def test_no_squeezing(self):
        assert db_to_s(0.0) == 1.0

    def test_caption_values(self):
        assert round(1.0 / db_to_s(5.0), 2) == 1.78
        assert round(1.0 / db_to_s(9.0), 2) == 2.82
        assert round(1.0 / db_to_s(14.0), 2) == 5.01

    def test_round_trip(self):
        for db in (0.0, 3.3, 14.0, 20.0):
            assert abs(20.0 * math.log10(1.0 / db_to_s(db)) - db) <= 1e-12

    def test_negative_is_anti_squeezing(self):
        assert db_to_s(-3.0) == 10.0 ** 0.15

    def test_rejects_overflow(self):
        # below about -6,165 dB, 10^(-dB/20) passes the largest float
        with pytest.raises(DomainError, match="overflows"):
            db_to_s(-6200.0)

    def test_rejects_non_finite(self):
        for db in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                db_to_s(db)


class TestEfficiencyScore:
    def test_interior_maximum_in_inverse_s(self):
        spec = SweepSpec(values=np.geomspace(1.0, 10.0, 15), y_m=3.0,
                         gamma=0.1, outputs=frozenset({"efficiency"}))
        rows = run_sweep(spec)
        eff = [r.efficiency for r in rows]
        peak = int(np.argmax(eff))
        assert 0 < peak < len(eff) - 1


class TestSweep:
    def spec(self, **kw):
        base = dict(values=(1.0, 2.0, 4.0), y_m=3.0, gamma=0.1,
                    outputs=frozenset({"infidelity", "probability"}))
        base.update(kw)
        return SweepSpec(**base)

    def test_validation(self):
        with pytest.raises(DomainError):
            self.spec(gamma=-0.1)
        with pytest.raises(DomainError):
            self.spec(gamma=math.nan)
        with pytest.raises(DomainError):
            self.spec(values=(2.0, 1.0))
        with pytest.raises(DomainError):
            self.spec(values=())
        with pytest.raises(DomainError):
            self.spec(outputs=frozenset({"nonsense"}))
        with pytest.raises(DomainError, match="sweep outputs must name"):
            self.spec(outputs=frozenset())

    @pytest.mark.parametrize("values", [
        (1.0, math.nan, 2.0), (math.nan,), (1.0, math.inf), (-math.inf, 1.0),
        (0.0, 1.0), (-1.0, 2.0)])
    def test_rejects_non_finite_and_non_positive_inverse_s(self, values):
        with pytest.raises(DomainError):
            self.spec(values=values)

    def test_rejects_a_grid_count_that_is_not_an_integer(self):
        # at the spec, not as a TypeError that run_sweep's row handler misses
        with pytest.raises(DomainError,
                           match="n_grid_points must be an integer, got 300.5"):
            self.spec(n_grid_points=300.5)

    def test_rejects_non_finite_y_m(self):
        for y_m in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                self.spec(y_m=y_m)
            with pytest.raises(DomainError):
                self.spec(y_m=y_m, gamma=None)
        # at a fixed gamma, y_m < 0 is a per-row error, not a spec error
        rows = run_sweep(self.spec(y_m=-1.0))
        assert all(r.error.endswith("to derive cat parameters") for r in rows)

    def test_deterministic(self):
        a = run_sweep(self.spec())
        b = run_sweep(self.spec())
        assert _rows_csv(a) == _rows_csv(b)

    def test_row_fields(self):
        rows = run_sweep(self.spec())
        assert [r.variable_value for r in rows] == [1.0, 2.0, 4.0]
        for r in rows:
            assert 0.0 <= r.infidelity <= 1.0 + 1e-9
            assert r.probability_density >= 0.0
            assert math.isnan(r.wln)
            assert r.error == ""

    def test_infidelity_complements_fidelity(self):
        from cvcat.gate import apply_gate
        from cvcat.states import cat_params_from_gate, make_ideal_cat
        spec = self.spec(values=(2.0,))
        rows = run_sweep(spec)
        params = GateParams(gamma=0.1, s=0.5, y_m=3.0)
        cat = cat_params_from_gate(params)
        grid = spec.grid
        out = apply_gate(make_squeezed_vacuum(1.0, grid), params)
        f = fidelity(out.state, make_ideal_cat(cat, grid))
        assert rows[0].infidelity == 1.0 - f

    def test_gamma_rule_proportional(self):
        # gamma None is y_m / 30
        rows = run_sweep(self.spec(y_m=6.0, gamma=None))
        assert all(r.error == "" for r in rows)
        assert list(map(repr, rows)) == list(map(
            repr, run_sweep(self.spec(y_m=6.0, gamma=0.2))))

    def test_small_fixed_gamma_rows_name_the_coarse_grid(self):
        # p_plus = sqrt(y_m / 3 gamma) outgrows a fixed 2,048-point grid:
        # p_plus*dx is 1.22 at gamma = 1e-3, 10.5 at 1e-4 and 37 at 1e-5.
        # The band-limited grid, a sweep's default, resolves every cat.
        def row(gamma, n_grid_points=None):
            return run_sweep(self.spec(values=(1.0,), gamma=gamma,
                                       n_grid_points=n_grid_points))[0]

        for ok in (row(1e-3), row(1e-4), row(1e-5), row(1e-3, 2048)):
            assert ok.error == "" and 0.0 <= ok.infidelity <= 1.0
        for gamma in (1e-4, 1e-5):
            failed = row(gamma, 2048)
            assert math.isnan(failed.infidelity)
            assert failed.error.startswith(
                "DomainError: grid too coarse for the cat: p_plus=")
            assert "dx=" in failed.error and "n_points=2048" in failed.error

    def test_band_limited_grid_past_the_cap_fails_every_row(self,
                                                            monkeypatch):
        """gamma = 1e-7 at y_m = 3 needs about 2.5e7 points, over
        MAX_GRID_POINTS: every row fails with the one error that names
        gamma, y_m and that n, and no grid is built."""
        def no_grid(*args):
            raise AssertionError("grid built past the cap")

        monkeypatch.setattr(states, "GridSpec", no_grid)
        rows = run_sweep(self.spec(gamma=1e-7))
        assert {r.error for r in rows} == {
            f"DomainError: band-limited grid at gamma=1e-07, y_m=3.0 needs "
            f"n_points=2.51e+07, over the {states.MAX_GRID_POINTS} cap"}

    def test_csv_format(self):
        text = _rows_csv([SweepRow(variable_value=1.5, infidelity=0.25,
                                   error="DomainError: a, b")])
        lines = text.strip().split("\n")
        assert lines[0] == ("variable_value,infidelity,probability_density,"
                            "wln,efficiency,error")
        cells = lines[1].split(",")
        assert cells[0] == "1.5" and cells[1] == "0.25"
        assert cells[2] == "" and cells[3] == "" and cells[4] == ""
        assert cells[5] == "DomainError: a; b"
