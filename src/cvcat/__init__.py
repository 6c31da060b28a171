"""cvcat: numerical simulator of a measurement-induced cat-state gate.

A weakly cubic, finitely squeezed ancilla is entangled with a target mode
and measured; the surviving mode is multiplied by an exact Airy-form factor.
This package evaluates that factor with hand-rolled special-function
numerics, builds the conditional output states, compares them with ideal
two-component superpositions, renders Wigner functions, and sweeps the
fidelity/probability trade-off.
"""

from .analysis import SweepRow, SweepSpec, db_to_s, fidelity, \
    phase_aligned_l2, run_sweep
from .errors import CvcatError, DegenerateSuperpositionError, DomainError, \
    ZeroProbabilityOutcomeError
from .gate import ConditionalOutput, added_factor, added_factor_grid, \
    added_factor_rows, apply_gate, outcome_probability_density
from .oracle import ancilla_grid_for, integrate_oscillatory_gaussian, \
    oracle_added_factor, oracle_two_mode
from .phase_space import SupportRegion, WignerGrid, build_support_region, \
    semiclassical_shear, suggest_wigner_bounds, wigner_log_negativity, \
    wigner_transform
from .special_numerics import airy_ai, airy_ai_scaled
from .states import CatParams, GateParams, GridSpec, WaveFunction, \
    band_limited_grid, cat_params_from_gate, default_grid, \
    make_cubic_phase_state, make_ideal_cat, make_squeezed_vacuum

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "CvcatError", "DomainError",
    "ZeroProbabilityOutcomeError", "DegenerateSuperpositionError",
    "airy_ai", "airy_ai_scaled", "integrate_oscillatory_gaussian",
    "GridSpec", "WaveFunction", "GateParams", "CatParams", "default_grid",
    "band_limited_grid", "make_squeezed_vacuum", "make_cubic_phase_state",
    "make_ideal_cat", "cat_params_from_gate",
    "ConditionalOutput", "added_factor", "added_factor_grid",
    "added_factor_rows", "apply_gate", "outcome_probability_density",
    "ancilla_grid_for", "oracle_added_factor", "oracle_two_mode",
    "WignerGrid", "SupportRegion", "wigner_transform", "wigner_log_negativity",
    "semiclassical_shear", "build_support_region", "suggest_wigner_bounds",
    "fidelity", "phase_aligned_l2", "db_to_s",
    "SweepSpec", "SweepRow", "run_sweep",
]
