"""Wavefunction constructors: squeezed vacuum, cubic phase state, ideal cat.

All states live on uniform coordinate grids as immutable ``WaveFunction``
values. Canonical units, hbar = 1; the vacuum has Var(x) = Var(p) = 1/2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateSuperpositionError, DomainError

__all__ = [
    "GridSpec",
    "WaveFunction",
    "GateParams",
    "CatParams",
    "default_grid",
    "band_limited_grid",
    "make_squeezed_vacuum",
    "make_cubic_phase_state",
    "make_ideal_cat",
    "cat_params_from_gate",
]

_EDGE_ENVELOPE = 1e-12
MAX_ENTRIES = 2 ** 26   # largest work array: a Wigner matrix, an oracle's nodes or FFT
MAX_GRID_POINTS = MAX_ENTRIES // 16   # the largest grid, 2^22 points
NORM_TOLERANCE = 1e-6   # the |norm^2 - 1| a WaveFunction may have
# beyond this, in x and in p, the vacuum amplitude exp(-k^2/2) is below 2^-53
_K_VACUUM = math.sqrt(2.0 * 53.0 * math.log(2.0))
_PAD = 6.0   # margin of phase_space's suggested Wigner bounds past the support


@dataclass(frozen=True)
class GridSpec:
    """Uniform coordinate grid, endpoints inclusive."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise DomainError("grid bounds must be finite")
        if not self.x_min < self.x_max:
            raise DomainError("grid requires x_min < x_max")
        require_integer("n_points", self.n_points)
        if not 16 <= self.n_points <= MAX_GRID_POINTS:
            raise DomainError(f"grid requires 16 <= n_points <= {MAX_GRID_POINTS}"
                              f", got {self.n_points}")

    @functools.cached_property
    def x(self) -> np.ndarray:
        """Grid coordinates, computed on first use; read-only."""
        x = np.linspace(self.x_min, self.x_max, self.n_points)
        x.setflags(write=False)
        return x

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)


def require_integer(name: str, count) -> None:
    """DomainError naming a count that is not an integer, before a range
    check passes it or np.linspace sizes an array by it."""
    if not isinstance(count, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {count!r}")


def default_grid(p_plus: float, n_points: int) -> GridSpec:
    """Grid covering the cat lobes plus 8 vacuum widths."""
    half = abs(p_plus) + 8.0
    return GridSpec(-half, half, n_points)


@dataclass(frozen=True)
class WaveFunction:
    """A normalized state: complex amplitude samples over a uniform
    coordinate grid whose trapezoid norm^2 is 1 within NORM_TOLERANCE."""

    grid: GridSpec
    amplitudes: np.ndarray
    label: str = ""

    def __post_init__(self):
        # a private copy: freezing the caller's buffer would leave its other
        # views able to write into this state behind the cached density
        amp = np.array(self.amplitudes, dtype=complex)
        if amp.shape != (self.n_points,):
            raise DomainError("amplitudes length must equal n_points")
        if not np.isfinite(amp.view(float)).all():
            raise DomainError("amplitudes must be finite")
        density = np.abs(amp) ** 2
        n2 = float(np.trapezoid(density, dx=self.dx))
        if not abs(n2 - 1.0) <= NORM_TOLERANCE:   # an inf norm^2 fails too
            raise DomainError(
                f"norm^2 = {n2!r} is not 1 on the grid [{self.x_min!r}, "
                f"{self.x_max!r}] with n_points={self.n_points}: the grid is "
                "too coarse or too narrow for the state, or the amplitudes "
                "are not normalized")
        amp.setflags(write=False)
        density.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)
        object.__setattr__(self, "_density", density)

    @property
    def x_min(self) -> float:
        return self.grid.x_min

    @property
    def x_max(self) -> float:
        return self.grid.x_max

    @property
    def n_points(self) -> int:
        return self.grid.n_points

    @property
    def x(self) -> np.ndarray:
        return self.grid.x

    @property
    def dx(self) -> float:
        return self.grid.dx

    def density(self) -> np.ndarray:
        """|amplitudes|^2, computed once at construction; read-only."""
        return self._density


def _inner(a: np.ndarray, b: np.ndarray, dx: float):
    """<a|b> along the last axis by the trapezoid rule: dx times the sum of
    conj(a) b with its two end terms at half weight. np.vecdot conjugates a
    and reduces each row of a block as it reduces that row alone, so a
    block of overlaps equals one call per row to the bit. The end terms take
    the conj method, which on a scalar skips np.conj's ufunc dispatch."""
    ends = a[..., 0].conj() * b[..., 0] + a[..., -1].conj() * b[..., -1]
    return dx * (np.vecdot(a, b) - 0.5 * ends)


@dataclass(frozen=True)
class GateParams:
    """The gate knobs: cubic coefficient, momentum squeeze, measured outcome."""

    gamma: float
    s: float
    y_m: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.gamma, self.s, self.y_m))):
            raise DomainError("gamma, s and y_m must be finite")
        if not self.s > 0:
            raise DomainError("squeeze factor s must be positive")
        if self.gamma < 0:
            raise DomainError("cubic coefficient gamma must be >= 0")


@dataclass(frozen=True)
class CatParams:
    """Ideal two-coherent-state superposition target."""

    p_plus: float   # the coherent amplitude is alpha = i p_plus
    theta: float

    def __post_init__(self):
        if not (math.isfinite(self.p_plus) and math.isfinite(self.theta)):
            raise DomainError("p_plus and theta must be finite")
        if self.p_plus < 0:
            raise DomainError("p_plus must be >= 0")


def _check_grid_covers(grid: GridSpec, s: float):
    """The Gaussian envelope must have decayed to <= 1e-12 at both edges."""
    # a product overflows to inf where a float ** 2 raises OverflowError
    lo, hi = s * grid.x_min, s * grid.x_max
    env = max(math.exp(-0.5 * (lo * lo)), math.exp(-0.5 * (hi * hi)))
    if grid.x_min > 0 or grid.x_max < 0:
        env = 1.0
    if env > _EDGE_ENVELOPE:
        raise DomainError(
            f"grid too narrow for s={s}: edge envelope {env:.3e} > {_EDGE_ENVELOPE}")


def make_squeezed_vacuum(s: float, grid: GridSpec) -> WaveFunction:
    """Momentum-squeezed vacuum: (sqrt(s)/pi^(1/4)) exp(-(s x)^2 / 2)."""
    if not s > 0:
        raise DomainError("squeeze factor s must be positive")
    _check_grid_covers(grid, s)
    x = grid.x
    with np.errstate(under="ignore", over="ignore"):   # an inf square gives 0
        amp = (math.sqrt(s) / math.pi ** 0.25) * np.exp(-0.5 * (s * x) ** 2)
    return WaveFunction(grid, amp, label=f"squeezed_vacuum(s={s})")


def make_cubic_phase_state(gamma: float, s: float,
                           grid: GridSpec) -> WaveFunction:
    """Squeezed vacuum with the pure cubic phase exp(i gamma x^3) imprinted."""
    base = make_squeezed_vacuum(s, grid)
    with np.errstate(over="ignore", invalid="ignore"):
        amp = base.amplitudes * np.exp(1j * gamma * base.x ** 3)
    if not np.isfinite(amp).all():
        raise DomainError(f"cubic phase is not finite at gamma={gamma!r} on "
                          f"[{base.x_min!r}, {base.x_max!r}]")
    return replace(base, amplitudes=amp,
                   label=f"cubic_phase(gamma={gamma}, s={s})")


def make_ideal_cat(cat: CatParams, grid: GridSpec) -> WaveFunction:
    """Normalized superposition of |alpha> and |-alpha| with alpha = i p_plus.

    alpha = i p_plus is read as a vacuum displaced by p_plus along momentum:
    psi_alpha(x) = pi^(-1/4) exp(-x^2/2 + i p_plus x), the reading validated
    against the gate output. The weights e^(+-i theta) make the sum one real
    cosine, 2 pi^(-1/4) exp(-x^2/2) cos(p_plus x + theta). The grid must
    sample the carrier exp(i p_plus x) at least four times per period
    (p_plus dx <= pi/2).
    """
    _check_grid_covers(grid, 1.0)
    if cat.p_plus * grid.dx > math.pi / 2:
        raise DomainError(
            f"grid too coarse for the cat: p_plus={cat.p_plus:.6g} with "
            f"dx={grid.dx:.6g} (n_points={grid.n_points}) gives "
            "p_plus*dx > pi/2")
    # <component_+|component_-> for momentum displacements of +-p_plus
    overlap = math.exp(-cat.p_plus ** 2)
    denom = 2.0 * (1.0 + math.cos(2.0 * cat.theta) * overlap)
    if denom < 1e-15:
        raise DegenerateSuperpositionError(
            "cat normalization denominator vanishes (alpha=0, theta=pi/2)")
    x = grid.x
    with np.errstate(under="ignore"):
        envelope = math.pi ** (-0.25) * np.exp(-0.5 * x ** 2)
    amp = (2.0 / math.sqrt(denom)) * envelope * np.cos(cat.p_plus * x + cat.theta)
    return WaveFunction(grid, amp,
                        label=f"ideal_cat(p_plus={cat.p_plus}, theta={cat.theta})")


def cat_params_from_gate(params: GateParams) -> CatParams:
    """Target cat parameters for a gate setting.

    p_plus = sqrt(y_m / 3 gamma) and
    theta = pi/4 - (2 / (3 sqrt(3 gamma))) y_m^(3/2), reduced to (-pi, pi].

    Note: with gamma = y_m/30 this gives p_plus = sqrt(10) = 3.162 for every
    y_m, so the lobe spacing is 2 p_plus = 6.32. Published figure captions
    quote the spacing as 3.16, which matches p_plus itself; the formula is
    implemented literally.
    """
    if params.y_m < 0:
        raise DomainError("y_m must be >= 0 to derive cat parameters")
    if not params.gamma > 0:
        raise DomainError("gamma must be positive to derive cat parameters")
    p_plus = math.sqrt(params.y_m / (3.0 * params.gamma))
    try:
        theta = math.pi / 4.0 - (2.0 / (3.0 * math.sqrt(3.0 * params.gamma))) * params.y_m ** 1.5
        theta = math.remainder(theta, 2.0 * math.pi)
    except (OverflowError, ValueError):   # y_m^1.5 or the phase is infinite
        raise DomainError(f"cat phase overflows at gamma={params.gamma!r}, "
                          f"y_m={params.y_m!r}") from None
    if theta <= -math.pi:
        theta = math.pi
    return CatParams(p_plus=p_plus, theta=theta)


def band_limited_grid(params: GateParams, wigner: bool) -> GridSpec:
    """default_grid's half-width p_plus + 8, sampled as finely as the gate
    output and target cat of a vacuum input need: dx = (pi/2)/k_max, or
    (pi/2)/(k_max + _PAD) when wigner is true.

    With k_in = _K_VACUUM, the factor's largest stationary-phase frequency
    over |x| <= k_in is k_F = sqrt(max(0, y_m + k_in)/(3 gamma)) at every s,
    so the output's band is k_in + k_F and the cat's p_plus + k_in; k_max is
    the larger. dx is half of pi/k_max, the step below which the trapezoid
    rule integrates a product of two such states, an overlap or P, exact to
    rounding. The _PAD keeps the suggested Wigner p bound of either state
    within the Nyquist limit pi/(2 dx) of its Wigner transform. A grid of
    more than MAX_GRID_POINTS raises DomainError before anything allocates.
    """
    gamma, y_m = params.gamma, params.y_m
    p_plus = cat_params_from_gate(params).p_plus
    k_factor = math.sqrt(max(0.0, y_m + _K_VACUUM) / (3.0 * gamma))
    k_max = max(_K_VACUUM + k_factor, p_plus + _K_VACUUM)
    if wigner:
        k_max += _PAD
    half = p_plus + 8.0
    steps = 2.0 * half * k_max / (math.pi / 2.0)   # 2 half / dx
    if not steps <= MAX_GRID_POINTS - 1:   # an inf fails too
        raise DomainError(
            f"band-limited grid at gamma={gamma!r}, y_m={y_m!r} needs "
            f"n_points={steps + 1.0:.3g}, over the {MAX_GRID_POINTS} cap")
    return GridSpec(-half, half, math.ceil(steps) + 1)
