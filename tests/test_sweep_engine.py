"""run_sweep's row-batched engine against the route that computes each row
alone: a fresh vacuum, apply_gate, a fresh ideal cat and fidelity."""

import math

import pytest

from cvcat.analysis import SweepRow, SweepSpec, efficiency_score, fidelity, \
    run_sweep
from cvcat.errors import CvcatError
from cvcat.gate import apply_gate
from cvcat.phase_space import suggest_wigner_bounds, wigner_log_negativity, \
    wigner_transform
from cvcat.states import GateParams, cat_params_from_gate, default_grid, \
    make_ideal_cat, make_squeezed_vacuum

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def per_row_reference(spec, value):
    """The SweepRow of ``value`` computed on its own."""
    try:
        gamma = spec.y_m / 30.0 if spec.gamma is None else spec.gamma
        params = GateParams(gamma=gamma, s=1.0 / value, y_m=spec.y_m)
        cat = cat_params_from_gate(params)
        grid = default_grid(cat.p_plus, spec.n_grid_points)
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
            fields["efficiency"] = efficiency_score(f_cat,
                                                    out.probability_density)
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
def sweep_specs(draw):
    # gamma stays >= 1e-3 (y_m >= 0.03 under y_m/30): below about 1e-11 the
    # closed form's exponent cancels into garbage that overflows; that
    # region has its own test below
    return SweepSpec(
        values=tuple(sorted(draw(st.lists(st.floats(0.5, 12.0), min_size=1,
                                          max_size=9, unique=True)))),
        y_m=draw(st.one_of(st.just(0.0), st.floats(0.03, 45.0))),
        gamma=draw(st.one_of(st.none(), st.floats(1e-3, 1.0))),
        outputs=draw(st.frozensets(st.sampled_from(
            ["infidelity", "probability", "efficiency"]))),
        n_grid_points=draw(st.sampled_from([64, 2048, 3000])))


class TestRowBatchedEngine:
    """run_sweep's blocks give every row the per-row route's exact floats
    and error text. 64, 2048 and 3000 points put 128, 4 and 2 rows in a
    block, so multi-row sweeps cross block edges."""

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
        """One block of four rows. At 1/s = 1e-100, s^4 overflows, so the
        factor is not finite; at 1/s = 1e-3 the factor is finite but P
        overflows. Each row fails with an error naming gamma, s and y_m, and
        no RuntimeWarning, and leaves the other rows untouched."""
        spec = SweepSpec(values=(1e-100, 1e-3, 0.5, 1.0), y_m=3.0,
                         outputs=frozenset({"infidelity", "probability"}),
                         n_grid_points=64)
        got = run_sweep(spec)
        want = [per_row_reference(spec, v) for v in spec.values]
        assert list(map(repr, got)) == list(map(repr, want))
        assert [r.error for r in got] == [
            "DomainError: added factor is not finite at "
            "gamma=0.1, s=1e+100, y_m=3.0",
            "DomainError: outcome probability density is not finite at "
            "gamma=0.1, s=1000.0, y_m=3.0", "", ""]
