"""Wigner transform, Wigner logarithmic negativity, and the semiclassical
shear picture with its support-region construction."""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .states import WaveFunction

__all__ = [
    "WignerGrid",
    "SupportRegion",
    "wigner_transform",
    "wigner_log_negativity",
    "semiclassical_shear",
    "build_support_region",
    "intersect_horizontal",
    "suggest_wigner_bounds",
]


@dataclass(frozen=True)
class WignerGrid:
    """Real quasiprobability samples over an (x, p) rectangle."""

    x_min: float
    x_max: float
    p_min: float
    p_max: float
    n_x: int
    n_p: int
    values: np.ndarray

    def __post_init__(self):
        if self.n_x < 2 or self.n_p < 2:
            raise DomainError("WignerGrid needs n_x, n_p >= 2")
        if self.values.shape != (self.n_x, self.n_p):
            raise DomainError("values shape must be (n_x, n_p)")
        v = np.ascontiguousarray(self.values, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_x)

    @property
    def p(self) -> np.ndarray:
        return np.linspace(self.p_min, self.p_max, self.n_p)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_x - 1)

    @property
    def dp(self) -> float:
        return (self.p_max - self.p_min) / (self.n_p - 1)

    def mass(self) -> float:
        return float(np.sum(self.values) * self.dx * self.dp)

    def purity(self) -> float:
        return float(2.0 * math.pi * np.sum(self.values ** 2) * self.dx * self.dp)

    def to_csv(self) -> str:
        """CSV matrix with a one-line header 'x_min,x_max,p_min,p_max,n_x,n_p'."""
        buf = io.StringIO()
        buf.write(f"{self.x_min!r},{self.x_max!r},{self.p_min!r},"
                  f"{self.p_max!r},{self.n_x},{self.n_p}\n")
        row = ",".join(["%.17g"] * self.n_p) + "\n"
        buf.write((row * self.n_x) % tuple(self.values.ravel().tolist()))
        return buf.getvalue()


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


def wigner_transform(state: WaveFunction,
                     bounds: tuple[float, float, float, float],
                     n_x: int = 256, n_p: int = 256) -> WignerGrid:
    """W(x, p) = (1/pi) integral of psi*(x+y) psi(x-y) exp(2ipy) dy.

    The y quadrature runs on the state's own grid spacing over the state's
    half-width. Raises DomainError when the x bounds truncate the state or
    when the resulting grid fails the unit-mass check (p window too tight).
    """
    if abs(state.norm_squared() - 1.0) > 1e-6:
        raise DomainError("wigner_transform expects a normalized state")
    if not all(math.isfinite(b) for b in bounds):
        raise DomainError("phase-space bounds must be finite")
    x_min, x_max, p_min, p_max = bounds
    if not (x_min < x_max and p_min < p_max):
        raise DomainError("invalid phase-space bounds")
    if n_x < 2 or n_p < 2:
        raise DomainError("wigner_transform needs n_x, n_p >= 2")
    dens = state.density()
    for edge in (x_min, x_max):
        if state.x_min <= edge <= state.x_max:
            val = float(np.interp(edge, state.x, dens))
            if val > 1e-10:
                raise DomainError(
                    f"x bounds too tight: density {val:.3e} at x={edge}")
    n, dy = state.n_points, state.dx
    k_half = (n - 1) // 2
    rel = (np.linspace(x_min, x_max, n_x) - state.x_min) / dy
    spectrum = np.fft.fft(state.amplitudes, 1 << int(math.ceil(math.log2(2 * n))))
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
    grid = WignerGrid(x_min, x_max, p_min, p_max, n_x, n_p, w_cplx.real)
    mass = grid.mass()
    if not abs(mass - 1.0) <= 1e-3:
        raise DomainError(
            f"bounds too tight: Wigner mass {mass} deviates from 1 by > 1e-3")
    return grid


def wigner_log_negativity(w: WignerGrid) -> float:
    """log of the total absolute integral of W; 0 for nonnegative W."""
    return float(math.log(np.sum(np.abs(w.values)) * w.dx * w.dp))


def semiclassical_shear(x: float, y: float, gamma: float):
    """Area-preserving phase-plane map of the cubic evolution: y += 3 gamma x^2."""
    return x, y + 3.0 * gamma * x * x


@dataclass(frozen=True)
class SupportRegion:
    """Closed polyline marking a constant-sigma contour on the phase plane."""

    boundary: np.ndarray   # (n, 2) array of (x, p); first row equals last
    sigma_level: float

    def __post_init__(self):
        b = np.ascontiguousarray(self.boundary, dtype=float)
        if b.ndim != 2 or b.shape[1] != 2 or b.shape[0] < 4:
            raise DomainError("boundary must be an (n, 2) polyline")
        if not np.allclose(b[0], b[-1], rtol=0, atol=1e-12):
            raise DomainError("boundary must be closed (first point = last)")
        b.setflags(write=False)
        object.__setattr__(self, "boundary", b)

    def area(self) -> float:
        """Shoelace area of the enclosed region."""
        x = self.boundary[:, 0]
        p = self.boundary[:, 1]
        return float(0.5 * abs(np.sum(x[:-1] * p[1:] - x[1:] * p[:-1])))

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("x,p\n")
        np.savetxt(buf, self.boundary, delimiter=",", fmt="%.17g")
        return buf.getvalue()


def build_support_region(s: float, gamma: float, sigma_level: float = 2.0,
                         n_boundary: int = 256) -> SupportRegion:
    """Squeezed-vacuum uncertainty ellipse pushed through the cubic shear.

    Semi-axes: sigma_level / (sqrt(2) s) along x, sigma_level * s / sqrt(2)
    along p (variances 1/(2 s^2) and s^2/2).
    """
    if not s > 0:
        raise DomainError("squeeze factor s must be positive")
    if n_boundary < 32:
        raise DomainError("n_boundary must be >= 32")
    t = np.linspace(0.0, 2.0 * math.pi, n_boundary + 1)
    x = sigma_level / (math.sqrt(2.0) * s) * np.cos(t)
    p = sigma_level * s / math.sqrt(2.0) * np.sin(t)
    p = p + 3.0 * gamma * x ** 2
    x[-1], p[-1] = x[0], p[0]
    return SupportRegion(boundary=np.column_stack([x, p]), sigma_level=sigma_level)


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


def suggest_wigner_bounds(state: WaveFunction, pad: float = 6.0,
                          density_floor: float = 1e-6):
    """Phase-space rectangle that should capture the state's Wigner mass.

    x range from the coordinate density support; p range from the momentum
    density (FFT of the amplitudes), both widened by ``pad`` on each side.
    """
    dens = state.density()
    sig = np.flatnonzero(dens > density_floor * float(dens.max()))
    xs = state.x[sig]
    spec = np.fft.fftshift(np.fft.fft(state.amplitudes))
    p_axis = 2.0 * math.pi * np.fft.fftshift(np.fft.fftfreq(state.n_points,
                                                            d=state.dx))
    p_dens = np.abs(spec) ** 2
    sig_p = np.flatnonzero(p_dens > density_floor * float(p_dens.max()))
    ps = p_axis[sig_p]
    return (float(xs.min() - pad), float(xs.max() + pad),
            float(ps.min() - pad), float(ps.max() + pad))
