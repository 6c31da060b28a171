"""run_sweep's row-batched engine against the route that computes each row
alone: a fresh vacuum, apply_gate, a fresh ideal cat and fidelity."""

import math

import numpy as np
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
        if spec.variable == "inverse_s":
            s, y_m = 1.0 / value, spec.fixed.y_m
        else:
            s, y_m = spec.fixed.s, value
        gamma = (y_m / 30.0 if spec.gamma_rule == "proportional_y_m_over_30"
                 else spec.fixed.gamma)
        params = GateParams(gamma=gamma, s=s, y_m=y_m)
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
    variable = draw(st.sampled_from(["inverse_s", "y_m"]))
    # gamma stays >= 1e-3 (y_m >= 0.03 under y_m/30): below about 1e-11 the
    # closed form's exponent cancels into garbage that overflows with a
    # RuntimeWarning on both routes; that region has its own test below
    value = (st.floats(0.5, 12.0) if variable == "inverse_s"
             else st.one_of(st.floats(-1.0, 0.0), st.floats(0.03, 45.0)))
    return SweepSpec(
        variable=variable,
        values=tuple(sorted(draw(st.lists(value, min_size=1, max_size=9,
                                          unique=True)))),
        fixed=GateParams(gamma=draw(st.floats(1e-3, 1.0)),
                         s=draw(st.floats(0.1, 1.0)),
                         y_m=draw(st.one_of(st.just(0.0),
                                            st.floats(0.03, 45.0)))),
        gamma_rule=draw(st.sampled_from(["fixed", "proportional_y_m_over_30"])),
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
        variable="inverse_s", values=(1.0, 1.5, 3.0),
        fixed=GateParams(gamma=0.01, s=1.0, y_m=40.0),
        outputs=frozenset({"infidelity", "probability", "efficiency"})))
    @example(spec=SweepSpec(
        variable="y_m", values=(-1.0, 0.0, 3.0, 6.0, 9.0),
        fixed=GateParams(gamma=0.1, s=0.4, y_m=3.0),
        gamma_rule="proportional_y_m_over_30",
        outputs=frozenset({"infidelity", "probability", "wln", "efficiency"}),
        n_grid_points=2048))
    def test_rows_match_per_row_route(self, spec):
        got = run_sweep(spec)
        want = [per_row_reference(spec, v) for v in spec.values]
        # repr spells every float exactly, -0.0 and NaN included
        assert list(map(repr, got)) == list(map(repr, want))

    def test_rejected_factor_fails_its_own_row(self):
        # y_m = 1e-300 under y_m/30 shares its grid with 1e-20, 0.5 and 9;
        # its Airy argument overflows to inf, so the block's factor call
        # raises and the block is retried row by row. The overflow warnings
        # are the closed form's own at gamma ~ 1e-301, on both routes.
        spec = SweepSpec(variable="y_m", values=(1e-300, 1e-20, 0.5, 3.0, 9.0),
                         fixed=GateParams(gamma=0.1, s=1.0, y_m=3.0),
                         gamma_rule="proportional_y_m_over_30",
                         outputs=frozenset({"infidelity", "probability"}),
                         n_grid_points=64)
        with np.errstate(over="ignore", invalid="ignore"):
            got = run_sweep(spec)
            want = [per_row_reference(spec, v) for v in spec.values]
        assert list(map(repr, got)) == list(map(repr, want))
        assert got[0].error == ("DomainError: airy_ai_scaled requires "
                                "finite input")
        assert [r.error for r in got[2:]] == ["", "", ""]

    def test_overflowing_factor_fails_its_row_by_name(self):
        """y_m = 5e-161 under y_m/30 shares its grid with 0.5 and 3; its
        factor overflows, which ends its row with an error naming gamma, s
        and y_m and no RuntimeWarning, and leaves the other rows untouched. (At a
        fixed gamma that small the cat's grid is so wide that the vacuum
        fails first.)"""
        spec = SweepSpec(variable="y_m", values=(5e-161, 0.5, 3.0),
                         fixed=GateParams(gamma=0.1, s=1.0, y_m=3.0),
                         gamma_rule="proportional_y_m_over_30",
                         outputs=frozenset({"infidelity", "probability"}),
                         n_grid_points=64)
        got = run_sweep(spec)
        want = [per_row_reference(spec, v) for v in spec.values]
        assert list(map(repr, got)) == list(map(repr, want))
        assert got[0].error == (
            "DomainError: added factor is not finite at "
            f"gamma={5e-161 / 30.0!r}, s=1.0, y_m=5e-161")
        assert [r.error for r in got[1:]] == [""] * (len(got) - 1)
