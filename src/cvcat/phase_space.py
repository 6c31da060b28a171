"""Wigner transform, Wigner logarithmic negativity, and the semiclassical
shear picture with its support-region construction."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .states import _PAD, MAX_ENTRIES, MAX_GRID_POINTS, WaveFunction, \
    require_integer

__all__ = [
    "WignerGrid",
    "SupportRegion",
    "wigner_transform",
    "wigner_log_negativity",
    "semiclassical_shear",
    "build_support_region",
    "suggest_wigner_bounds",
]


@dataclass(frozen=True)
class WignerGrid:
    """Real quasiprobability samples over an (x, p) rectangle."""

    x_min: float
    x_max: float
    p_min: float
    p_max: float
    values: np.ndarray   # (n_x, n_p): one row per x, one column per p

    def __post_init__(self):
        bounds = (self.x_min, self.x_max, self.p_min, self.p_max)
        if not all(math.isfinite(b) for b in bounds):
            raise DomainError(f"WignerGrid bounds must be finite, got {bounds}")
        if not (self.x_min < self.x_max and self.p_min < self.p_max):
            raise DomainError("WignerGrid needs x_min < x_max and "
                              f"p_min < p_max, got {bounds}")
        v = np.array(self.values, dtype=float, order="C")   # a private copy
        if v.ndim != 2 or min(v.shape) < 2:
            raise DomainError("WignerGrid needs an (n_x, n_p) matrix with "
                              "n_x, n_p >= 2")
        if not np.isfinite(v).all():
            raise DomainError("WignerGrid values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n_x(self) -> int:
        return self.values.shape[0]

    @property
    def n_p(self) -> int:
        return self.values.shape[1]

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_x - 1)

    @property
    def dp(self) -> float:
        return (self.p_max - self.p_min) / (self.n_p - 1)

    def mass(self) -> float:
        return float(np.sum(self.values) * self.dx * self.dp)


# columns per batched inverse FFT: bounds the (block, pad) temporaries
_COLUMN_BLOCK = 32


def _exp_ladder(rate: np.ndarray, first: int, n: int) -> np.ndarray:
    """exp(i rate_r k), k = first .. first + n - 1, one row per rate, from two
    small exp tables: k = first + J a + b."""
    j = math.isqrt(n - 1) + 1
    coarse = np.exp(1j * np.outer(rate, first + j * np.arange(-(-n // j))))
    fine = np.exp(1j * np.outer(rate, np.arange(j)))
    return (coarse[:, :, None] * fine[:, None, :]).reshape(len(rate), -1)[:, :n]


def _correlation_block(spectrum: np.ndarray, rel: np.ndarray, n: int,
                       k_half: int) -> np.ndarray:
    """psi*(x+y) psi(x-y) on the y lattice for x columns at ``rel`` grid steps.

    Each column is shifted by its fractional step with an FFT phase ramp on
    the zero-padded spectrum (the states decay to <= 1e-10 density at the
    grid edges, so wraparound is negligible); samples off the grid read 0.
    """
    base = np.floor(rel).astype(int)
    half = len(spectrum) // 2
    ramp = _exp_ladder(math.pi / half * (rel - base), 0, half + 1)
    shifted = np.fft.ifft(np.hstack([ramp[:, :half], ramp[:, half:0:-1].conj()])
                          * spectrum, axis=1)
    shifted[:, n:] = 0.0
    # -1 and n both land in the zeroed tail, since len(spectrum) >= 2n
    j = np.clip(base[:, None] + np.arange(-k_half, k_half + 1), -1, n)
    a = np.take_along_axis(shifted, j, axis=1)
    return np.conj(a) * a[:, ::-1]   # x - y reads the x + y samples reversed


def _momentum_support(state: WaveFunction, floor: float) -> np.ndarray:
    """Momenta where |FFT(psi)|^2 exceeds ``floor`` times its peak."""
    p_dens = np.abs(np.fft.fft(state.amplitudes)) ** 2
    p_axis = 2.0 * math.pi * np.fft.fftfreq(state.n_points, d=state.dx)
    return p_axis[p_dens > floor * float(p_dens.max())]


# share of its peak above which the momentum density counts as the band
_BAND_FLOOR = 2.0 ** -53


def _y_stride(state: WaveFunction, p_bound: float) -> int:
    """Stride r of the y quadrature over the state's grid: r dy <= h.

    K is the largest |k| where |FFT(psi)|^2 exceeds _BAND_FLOOR of its peak
    and p_bound the largest |p| of the map, so psi*(x+y) psi(x-y) exp(2ipy)
    has band 2K + 2 p_bound and the trapezoid rule is exact to rounding for
    h < pi/(K + p_bound); h = (pi/2)/(K + p_bound) keeps band_limited_grid's
    half-Nyquist margin.
    """
    k_band = float(np.max(np.abs(_momentum_support(state, _BAND_FLOOR))))
    h = (math.pi / 2.0) / (k_band + p_bound)
    return max(1, int(h // state.dx))


def wigner_transform(state: WaveFunction,
                     bounds: tuple[float, float, float, float],
                     n_x: int, n_p: int) -> WignerGrid:
    """W(x, p) = (1/pi) integral of psi*(x+y) psi(x-y) exp(2ipy) dy.

    The y quadrature is the trapezoid rule over the state's half-width, on
    every r-th grid point, with the stride r of _y_stride: the largest step
    within half the Nyquist limit of the integrand's band, which the state's
    momentum support and max(|p_min|, |p_max|) set. Raises DomainError when
    a work array would pass MAX_ENTRIES, when the x bounds truncate the
    state or when the resulting grid fails the unit-mass check (few points
    or tight bounds).
    """
    if not all(math.isfinite(b) for b in bounds):
        raise DomainError("phase-space bounds must be finite")
    x_min, x_max, p_min, p_max = bounds
    if not (x_min < x_max and p_min < p_max):
        raise DomainError("invalid phase-space bounds")
    require_integer("n_x", n_x)
    require_integer("n_p", n_p)
    if n_x < 2 or n_p < 2:
        raise DomainError("wigner_transform needs n_x, n_p >= 2")
    n = state.n_points
    if max(n_x, n_p) * n > MAX_ENTRIES or n_x * n_p > MAX_ENTRIES:
        raise DomainError(f"Wigner map of n_x={n_x}, n_p={n_p} on n_points={n} "
                          "exceeds the 2^26 entry cap")
    dens = state.density()
    for edge in (x_min, x_max):
        if state.x_min <= edge <= state.x_max:
            val = float(np.interp(edge, state.x, dens))
            if val > 1e-10:
                raise DomainError(
                    f"x bounds too tight: density {val:.3e} at x={edge}")
    stride = _y_stride(state, max(abs(p_min), abs(p_max)))
    amplitudes = state.amplitudes[::stride]
    n, dy = len(amplitudes), stride * state.dx
    k_half = (n - 1) // 2
    rel = (np.linspace(x_min, x_max, n_x) - state.x_min) / dy
    spectrum = np.fft.fft(amplitudes, 1 << int(math.ceil(math.log2(2 * n))))
    corr = np.empty((n_x, 2 * k_half + 1), dtype=complex)
    for i in range(0, n_x, _COLUMN_BLOCK):
        corr[i:i + _COLUMN_BLOCK] = _correlation_block(
            spectrum, rel[i:i + _COLUMN_BLOCK], n, k_half)
    # exp(2i p y_k) with y_k = dy (k - k_half)
    rate = 2.0 * dy * np.linspace(p_min, p_max, n_p)
    w_cplx = corr @ _exp_ladder(rate, -k_half, 2 * k_half + 1).T
    w_cplx *= dy / math.pi
    resid = float(np.max(np.abs(w_cplx.imag)))
    if not resid <= 1e-8:
        raise DomainError(f"Wigner imaginary residue {resid:.3e} exceeds 1e-8")
    grid = WignerGrid(x_min, x_max, p_min, p_max, w_cplx.real)
    mass = grid.mass()
    if not abs(mass - 1.0) <= 1e-3:
        raise DomainError(
            f"Wigner mass {mass} deviates from 1 by > 1e-3 on n_x={n_x}, "
            f"n_p={n_p}: use more points or wider bounds")
    return grid


def wigner_log_negativity(w: WignerGrid) -> float:
    """log of the total absolute integral of W; 0 for nonnegative W.

    Raises DomainError when that integral is 0, where the log is undefined.
    """
    total = float(np.sum(np.abs(w.values)) * w.dx * w.dp)
    if not total > 0:
        raise DomainError("Wigner logarithmic negativity of a grid whose "
                          "absolute integral is 0 is undefined")
    return math.log(total)


def semiclassical_shear(x: float, y: float, gamma: float):
    """Area-preserving phase-plane map of the cubic evolution: y += 3 gamma x^2."""
    return x, y + 3.0 * gamma * x ** 2


@dataclass(frozen=True)
class SupportRegion:
    """Closed polyline marking a constant-sigma contour on the phase plane."""

    boundary: np.ndarray   # (n, 2) array of (x, p); first row equals last
    sigma_level: float

    def __post_init__(self):
        b = np.array(self.boundary, dtype=float, order="C")   # a private copy
        if b.ndim != 2 or b.shape[1] != 2 or b.shape[0] < 4:
            raise DomainError("boundary must be an (n, 2) polyline")
        if not np.isfinite(b).all():
            raise DomainError("boundary must be finite")
        if not np.allclose(b[0], b[-1], rtol=0, atol=1e-12):
            raise DomainError("boundary must be closed (first point = last)")
        b.setflags(write=False)
        object.__setattr__(self, "boundary", b)


def build_support_region(s: float, gamma: float, sigma_level: float,
                         n_boundary: int) -> SupportRegion:
    """Squeezed-vacuum uncertainty ellipse pushed through the cubic shear.

    Semi-axes: sigma_level / (sqrt(2) s) along x, sigma_level * s / sqrt(2)
    along p (variances 1/(2 s^2) and s^2/2).
    """
    if not s > 0:
        raise DomainError("squeeze factor s must be positive")
    if not math.isfinite(gamma):
        raise DomainError(f"gamma must be finite, got {gamma!r}")
    if not 0 < sigma_level < math.inf:   # nan fails too
        raise DomainError("sigma_level must be finite and > 0, got "
                          f"{sigma_level!r}")
    require_integer("n_boundary", n_boundary)
    if not 32 <= n_boundary <= MAX_GRID_POINTS:   # before linspace allocates
        raise DomainError(f"n_boundary must be 32 to {MAX_GRID_POINTS}, "
                          f"got {n_boundary}")
    t = np.linspace(0.0, 2.0 * math.pi, n_boundary + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        x = sigma_level / (math.sqrt(2.0) * s) * np.cos(t)
        p = sigma_level * s / math.sqrt(2.0) * np.sin(t)
        x, p = semiclassical_shear(x, p, gamma)
    if not (np.isfinite(x).all() and np.isfinite(p).all()):
        raise DomainError(f"support region overflows at s={s!r}, "
                          f"gamma={gamma!r}, sigma_level={sigma_level!r}: "
                          "its boundary is not finite")
    x[-1], p[-1] = x[0], p[0]
    return SupportRegion(boundary=np.column_stack([x, p]), sigma_level=sigma_level)


_SUPPORT_FLOOR = 1e-6   # share of its peak from which a density is support


def suggest_wigner_bounds(state: WaveFunction):
    """Phase-space rectangle that should capture the state's Wigner mass.

    x range from the coordinate density support; p range from the momentum
    density (FFT of the amplitudes), both widened by _PAD on each side.
    """
    dens = state.density()
    sig = np.flatnonzero(dens > _SUPPORT_FLOOR * float(dens.max()))
    xs = state.x[sig]
    ps = _momentum_support(state, _SUPPORT_FLOOR)
    return (float(xs.min() - _PAD), float(xs.max() + _PAD),
            float(ps.min() - _PAD), float(ps.max() + _PAD))
