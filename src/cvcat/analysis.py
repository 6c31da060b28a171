"""Fidelity, dB conversion, and the figure-data sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CvcatError, DomainError
# apply_gate stays bound: perfbench/tracing.py patches cvcat.analysis.apply_gate
from .gate import apply_gate, gate_rows
from .phase_space import suggest_wigner_bounds, wigner_log_negativity, \
    wigner_transform
from .states import GateParams, GridSpec, WaveFunction, _inner, \
    band_limited_grid, cat_params_from_gate, default_grid, make_ideal_cat, \
    make_squeezed_vacuum, require_integer

__all__ = [
    "fidelity",
    "phase_aligned_l2",
    "db_to_s",
    "SweepSpec",
    "SweepRow",
    "run_sweep",
]


def _overlap(a: WaveFunction, b: WaveFunction, name: str):
    """<a|b> by the trapezoid rule; states on different grids are refused."""
    if a.grid != b.grid:
        raise DomainError(f"{name} requires a common grid, got {a.grid} "
                          f"and {b.grid}")
    return _inner(a.amplitudes, b.amplitudes, a.dx)


def fidelity(a: WaveFunction, b: WaveFunction) -> float:
    """|<a|b>|^2 by trapezoidal overlap of two states on one grid."""
    return _squared_overlap(_overlap(a, b, "fidelity"))


def _squared_overlap(ov) -> float:
    """|ov|^2 held to at most 1: between normalized states the trapezoid
    overlap passes 1 only by rounding, up to ~1e-15 for a state with itself."""
    return min(float(abs(ov) ** 2), 1.0)


def phase_aligned_l2(a: WaveFunction, b: WaveFunction) -> float:
    """L2 distance between a and b after aligning b's global phase."""
    ov = complex(_overlap(a, b, "phase_aligned_l2"))
    # ov = <a|b> carries b's phase relative to a; undo it
    phase = np.conj(ov) / abs(ov) if ov != 0 else 1.0
    diff = a.amplitudes - phase * b.amplitudes
    return float(math.sqrt(_inner(diff, diff, a.dx).real))


def db_to_s(db: float) -> float:
    """Squeezing in dB to the momentum squeeze factor: s = 10^(-dB/20);
    a negative dB is anti-squeezing, s > 1."""
    if not math.isfinite(db):
        raise DomainError("squeezing in dB must be finite")
    try:
        s = 10.0 ** (-db / 20.0)
    except OverflowError:
        raise DomainError(f"squeezing of {db!r} dB overflows s") from None
    if s == 0.0:
        raise DomainError(f"squeezing of {db!r} dB underflows s to 0")
    return s


@dataclass(frozen=True)
class SweepSpec:
    """A scan over 1/s at one outcome y_m; gamma None means y_m / 30, and
    n_grid_points None means the band-limited grid (see grid)."""

    values: tuple                      # 1/s, strictly increasing
    y_m: float
    gamma: float | None = None
    outputs: frozenset = frozenset({"infidelity", "probability"})
    n_grid_points: int | None = None

    def __post_init__(self):
        self.params   # a non-finite y_m or a bad gamma is a spec error
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise DomainError("sweep values must be nonempty")
        if not all(map(math.isfinite, vals)):
            raise DomainError("sweep values must be finite")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise DomainError("sweep values must be strictly increasing")
        if vals[0] <= 0:
            raise DomainError("inverse_s sweep values must be positive")
        bad = set(self.outputs) - {"infidelity", "probability", "wln", "efficiency"}
        if bad:
            raise DomainError(f"unknown outputs {sorted(bad)}")
        if not self.outputs:
            raise DomainError("sweep outputs must name at least one of "
                              "infidelity, probability, wln, efficiency")
        if self.n_grid_points is not None:
            require_integer("n_grid_points", self.n_grid_points)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "outputs", frozenset(self.outputs))

    @property
    def params(self) -> GateParams:
        """The gate setting of every row, at s = 1."""
        gamma = self.y_m / 30.0 if self.gamma is None else self.gamma
        return GateParams(gamma=gamma, s=1.0, y_m=self.y_m)

    @property
    def grid(self) -> GridSpec:
        """The grid of every row: default_grid at n_grid_points, else
        band_limited_grid, with the Wigner headroom only when wln is asked
        for. Raises the DomainError of a setting that has no cat or no grid."""
        if self.n_grid_points is None:
            return band_limited_grid(self.params, "wln" in self.outputs)
        return default_grid(cat_params_from_gate(self.params).p_plus,
                            self.n_grid_points)


@dataclass(frozen=True)
class SweepRow:
    """One scan point; NaN marks outputs that were not requested. efficiency
    is f_cat * P(y_m), f_cat = 1 - infidelity: quality weighted by success
    probability, a choice of this artifact, not a published formula."""

    variable_value: float
    infidelity: float = math.nan
    probability_density: float = math.nan
    wln: float = math.nan
    efficiency: float = math.nan
    error: str = ""


# points per gate_rows call in run_sweep: bounds the (rows, n) block temporaries
_ROW_BLOCK_POINTS = 8192


def _failed(value: float, exc: CvcatError) -> SweepRow:
    return SweepRow(variable_value=value, error=f"{type(exc).__name__}: {exc}")


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate every 1/s of the scan. gamma, y_m, the target cat and the
    grid are the same in every row, so the rows share one vacuum and one
    ideal cat and go through gate_rows in (rows, n) blocks, each block's
    overlaps with the cat in one call. Per-row failures are recorded
    in-row, with the error of the row alone."""
    base, rows, todo = spec.params, [None] * len(spec.values), []
    for i, value in enumerate(spec.values):
        try:
            todo.append((i, replace(base, s=1.0 / value)))
        except CvcatError as exc:
            rows[i] = _failed(value, exc)
    try:
        cat = cat_params_from_gate(base)
        grid = spec.grid
        vacuum = make_squeezed_vacuum(1.0, grid)
    except CvcatError as exc:
        return [row or _failed(value, exc) for row, value in zip(rows, spec.values)]
    # a row fails by its gate error first, then by the cat's
    target = cat_error = None
    if {"infidelity", "efficiency"} & spec.outputs:
        try:
            target = make_ideal_cat(cat, grid)
        except CvcatError as exc:
            cat_error = exc
    step = max(1, _ROW_BLOCK_POINTS // grid.n_points)
    for start in range(0, len(todo), step):
        block = todo[start:start + step]
        states, prob, errors = gate_rows(vacuum, [params for _, params in block])
        overlaps = [math.nan] * len(block)
        if target is not None:
            # a failed row's overlap is never read
            with np.errstate(invalid="ignore", over="ignore"):
                overlaps = _inner(states, target.amplitudes, grid.dx)
        for (i, _), p, error, overlap, state in zip(
                block, prob.tolist(), errors, overlaps, states):
            value, fields = spec.values[i], {}
            if error or cat_error:
                rows[i] = _failed(value, error or cat_error)
                continue
            f_cat = math.nan if target is None else _squared_overlap(overlap)
            if "infidelity" in spec.outputs:
                fields["infidelity"] = 1.0 - f_cat
            if {"probability", "efficiency"} & spec.outputs:
                fields["probability_density"] = p
            if "efficiency" in spec.outputs:
                fields["efficiency"] = f_cat * p
            if "wln" in spec.outputs:
                try:
                    state = WaveFunction(grid, state)
                    bounds = suggest_wigner_bounds(state)
                    n_p = max(256, int((bounds[3] - bounds[2]) / 0.08))
                    w = wigner_transform(state, bounds, 256, n_p)
                    fields["wln"] = wigner_log_negativity(w)
                except CvcatError as exc:
                    rows[i] = _failed(value, exc)
                    continue
            rows[i] = SweepRow(variable_value=value, **fields)
    return rows
