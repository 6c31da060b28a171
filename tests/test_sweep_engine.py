"""run_sweep's row-batched engine against the route that computes each row
alone: a fresh vacuum, apply_gate, a fresh ideal cat and fidelity."""

import math
from dataclasses import replace

import numpy as np
import pytest

from cvcat.analysis import SweepRow, SweepSpec, _squared_overlap, db_to_s, \
    fidelity, run_sweep
from cvcat.errors import CvcatError
from cvcat.gate import apply_gate, gate_rows
from cvcat.phase_space import suggest_wigner_bounds, wigner_log_negativity, \
    wigner_transform
from cvcat.states import GateParams, _inner, band_limited_grid, \
    cat_params_from_gate, default_grid, make_ideal_cat, make_squeezed_vacuum

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def per_row_reference(spec, value):
    """The SweepRow of ``value`` computed on its own."""
    try:
        gamma = spec.y_m / 30.0 if spec.gamma is None else spec.gamma
        params = GateParams(gamma=gamma, s=1.0 / value, y_m=spec.y_m)
        cat = cat_params_from_gate(params)
        grid = spec.grid
        out = apply_gate(make_squeezed_vacuum(1.0, grid), params)
        fields = {}
        f_cat = math.nan
        if {"infidelity", "efficiency"} & spec.outputs:
            f_cat = fidelity(out.state, make_ideal_cat(cat, grid))
        if "infidelity" in spec.outputs:
            fields["infidelity"] = 1.0 - f_cat
        if {"probability", "efficiency"} & spec.outputs:
            fields["probability_density"] = out.probability_density
        if "efficiency" in spec.outputs:
            fields["efficiency"] = f_cat * out.probability_density
        if "wln" in spec.outputs:
            bounds = suggest_wigner_bounds(out.state)
            n_p = max(256, int((bounds[3] - bounds[2]) / 0.08))
            w = wigner_transform(out.state, bounds, 256, n_p)
            fields["wln"] = wigner_log_negativity(w)
        return SweepRow(variable_value=value, **fields)
    except CvcatError as exc:
        return SweepRow(variable_value=value,
                        error=f"{type(exc).__name__}: {exc}")


@st.composite
def sweep_specs(draw, grid_points=st.sampled_from([None, 64, 2048, 3000])):
    # gamma stays >= 1e-3 (y_m >= 0.03 under y_m/30); the factor at smaller
    # gammas has its own tests in test_gate
    return SweepSpec(
        values=tuple(sorted(draw(st.lists(st.floats(0.5, 12.0), min_size=1,
                                          max_size=9, unique=True)))),
        y_m=draw(st.one_of(st.just(0.0), st.floats(0.03, 45.0))),
        gamma=draw(st.one_of(st.none(), st.floats(1e-3, 1.0))),
        outputs=draw(st.frozensets(st.sampled_from(
            ["infidelity", "probability", "efficiency"]), min_size=1)),
        n_grid_points=draw(grid_points))


class TestRowBatchedEngine:
    """run_sweep's blocks give every row the per-row route's exact floats
    and error text. 64, 2048 and 3000 points put 128, 4 and 2 rows in a
    block, and the band-limited grid (167 to about 25,000 points here) 49
    to 1, so multi-row sweeps cross block edges."""

    @settings(max_examples=40, deadline=None)
    @given(spec=sweep_specs())
    # the mixed-error sweep: row 0 is below the probability floor
    @example(spec=SweepSpec(
        values=(1.0, 1.5, 3.0), y_m=40.0, gamma=0.01,
        outputs=frozenset({"infidelity", "probability", "efficiency"})))
    @example(spec=SweepSpec(
        values=(1.0, 2.5, 4.0), y_m=6.0,
        outputs=frozenset({"infidelity", "probability", "wln", "efficiency"}),
        n_grid_points=2048))
    def test_rows_match_per_row_route(self, spec):
        got = run_sweep(spec)
        want = [per_row_reference(spec, v) for v in spec.values]
        # repr spells every float exactly, -0.0 and NaN included
        assert list(map(repr, got)) == list(map(repr, want))

    def test_rows_that_are_not_finite_fail_by_name(self):
        """One block of four rows. At 1/s = 1e-100, s^4 overflows, and at
        1/s = 1e-3 the resource is anti-squeezed; both factors are the
        Gaussian limit to well within 1e-5, so P = pi^(-1/2)/s there. A row
        whose factor is not finite, y_m = 1e206, fails with an error naming
        gamma, s and y_m, and no RuntimeWarning, and leaves the other rows
        of its gate_rows block untouched: apply_gate gives each row's P,
        state and error text."""
        spec = SweepSpec(values=(1e-100, 1e-3, 0.5, 1.0), y_m=3.0,
                         outputs=frozenset({"infidelity", "probability"}),
                         n_grid_points=64)
        got = run_sweep(spec)
        want = [per_row_reference(spec, v) for v in spec.values]
        assert list(map(repr, got)) == list(map(repr, want))
        assert [r.error for r in got] == [""] * 4
        for row in got[:2]:
            gaussian = row.variable_value / math.sqrt(math.pi)
            assert abs(row.probability_density - gaussian) <= 1e-5 * gaussian
        vacuum = make_squeezed_vacuum(1.0, default_grid(3.0, 64))
        rows = [GateParams(0.1, 1.0, 3.0), GateParams(0.1, 1.0, 1e206),
                GateParams(0.2, 0.5, -2.0)]
        states, prob, errors = gate_rows(vacuum, rows)
        assert str(errors[1]) == ("added factor is not finite at "
                                  "gamma=0.1, s=1.0, y_m=1e+206")
        with pytest.raises(CvcatError) as alone:
            apply_gate(vacuum, rows[1])
        assert str(alone.value) == str(errors[1])
        for i in (0, 2):
            out = apply_gate(vacuum, rows[i])
            assert errors[i] is None
            assert repr(out.probability_density) == repr(float(prob[i]))
            assert out.state.amplitudes.tobytes() == states[i].tobytes()


@settings(max_examples=40, deadline=None)
@given(spec=sweep_specs(st.none()))
def test_band_limited_grid_matches_its_halving(spec):
    """A sweep on band_limited_grid and on a grid with half its dx (2n - 1
    points, the same bounds) agree to 1e-12 in infidelity and in relative P,
    and a row that fails on one fails with the same error type on the other."""
    assume(spec.params.gamma > 0)
    spec = replace(spec, outputs=frozenset({"infidelity", "probability"}))
    n = spec.grid.n_points
    halved = run_sweep(replace(spec, n_grid_points=2 * n - 1))
    for a, b in zip(run_sweep(spec), halved):
        assert a.error.split(":")[0] == b.error.split(":")[0]
        if not a.error:
            assert abs(a.infidelity - b.infidelity) <= 1e-12
            assert abs(a.probability_density - b.probability_density) \
                <= 1e-12 * b.probability_density


@pytest.mark.parametrize("n_points", [64, 212, 2048, 3000])
@pytest.mark.parametrize("n_rows", [1, 7])
def test_block_overlaps_equal_lone_fidelity(n_points, n_rows):
    """One trapezoid inner product over a (rows, n) block of gate outputs
    gives each row the overlap and fidelity of its lone route, by repr."""
    grid = default_grid(math.sqrt(10.0), n_points)
    vacuum = make_squeezed_vacuum(1.0, grid)
    cat = make_ideal_cat(cat_params_from_gate(GateParams(0.1, 1.0, 3.0)), grid)
    rows = [GateParams(0.1, db_to_s(db), 3.0)
            for db in np.linspace(0.0, 20.0, n_rows)]
    states, prob, errors = gate_rows(vacuum, rows)
    assert errors == [None] * n_rows
    block = _inner(states, cat.amplitudes, grid.dx)
    assert block.shape == (n_rows,)
    for params, row, overlap in zip(rows, states, block):
        state = apply_gate(vacuum, params).state
        assert state.amplitudes.tobytes() == row.tobytes()
        lone = _inner(state.amplitudes, cat.amplitudes, grid.dx)
        assert repr(complex(overlap)) == repr(complex(lone))
        assert repr(_squared_overlap(overlap)) == repr(fidelity(state, cat))


# the CLI's default scan, 0 to 20 dB in 60 rows
DEFAULT_VALUES = tuple(1.0 / db_to_s(db) for db in np.linspace(0.0, 20.0, 60))


@pytest.mark.parametrize("y_m", [0.3, 3.0, 9.0, 15.0, 45.0])
def test_sweep_grid_matches_a_4096_point_grid(y_m):
    """A sweep without wln, on its band-limited grid of 172 to 368 points
    here, gives every row's infidelity and relative P within 1e-12 of the
    same sweep on 4,096 points."""
    spec = SweepSpec(values=DEFAULT_VALUES, y_m=y_m,
                     outputs=frozenset({"infidelity", "probability"}))
    assert spec.grid.n_points < 400
    fine = run_sweep(replace(spec, n_grid_points=4096))
    for a, b in zip(run_sweep(spec), fine):
        assert a.error == b.error == ""
        assert abs(a.infidelity - b.infidelity) <= 1e-12
        assert abs(a.probability_density - b.probability_density) \
            <= 1e-12 * b.probability_density


def test_wln_sweep_keeps_the_wigner_padded_grid():
    """A sweep that asks for wln keeps the padded grid, 297 points at
    y_m = 3, and its wln rows equal the route on that grid spelled out;
    without wln the same sweep takes 212 points."""
    spec = SweepSpec(values=(1.0, 5.0), y_m=3.0,
                     outputs=frozenset({"probability", "wln"}))
    p_plus = cat_params_from_gate(spec.params).p_plus
    assert spec.grid == default_grid(p_plus, 297)
    assert spec.grid == band_limited_grid(spec.params, True)
    assert replace(spec, outputs=frozenset({"probability"})).grid \
        == default_grid(p_plus, 212)
    vacuum = make_squeezed_vacuum(1.0, default_grid(p_plus, 297))
    for row in run_sweep(spec):
        state = apply_gate(vacuum, GateParams(0.1, 1.0 / row.variable_value,
                                              3.0)).state
        bounds = suggest_wigner_bounds(state)
        n_p = max(256, int((bounds[3] - bounds[2]) / 0.08))
        wln = wigner_log_negativity(wigner_transform(state, bounds, 256, n_p))
        assert repr(row.wln) == repr(wln)
