"""The measurement-induced gate core.

The gate multiplies the target wavefunction by the Airy-form added factor,
yields the outcome probability density as the squared norm of the
unnormalized product, and normalizes to obtain the conditional output state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ZeroProbabilityOutcomeError
from .special_numerics import ASYMP_EDGE, airy_ai, airy_ai_scaled
from .states import GateParams, WaveFunction

__all__ = [
    "ConditionalOutput",
    "added_factor",
    "added_factor_grid",
    "added_factor_rows",
    "apply_gate",
    "outcome_probability_density",
]

PROBABILITY_FLOOR = 1e-300


@dataclass(frozen=True)
class ConditionalOutput:
    """Normalized conditional state plus the density of its outcome."""

    state: WaveFunction
    probability_density: float
    params: GateParams

    def __post_init__(self):
        if self.probability_density < 0:
            raise DomainError("probability_density must be >= 0")


def _factor_constants(params: GateParams) -> tuple:
    """y_m, log-prefactor, exponent rate and shift, Airy scale and shift."""
    gamma, s, y_m = params.gamma, params.s, params.y_m
    if not gamma > 0:
        raise DomainError("added_factor needs gamma > 0; "
                          "gamma = 0 is the Gaussian special case")
    log_pref = 0.5 * math.log(2.0 * s) + 0.25 * math.log(math.pi) \
        - (1.0 / 3.0) * math.log(3.0 * gamma)
    return (y_m, log_pref, s * s / (6.0 * gamma), s ** 4 / (18.0 * gamma),
            (3.0 * gamma) ** (-1.0 / 3.0), s ** 4 / (12.0 * gamma))


def _factor(x, y_m, log_pref, rate, exp_shift, scale, z_shift) -> np.ndarray:
    """Assembled in log space: log-prefactor, exponent argument and log |Ai|
    are summed before a single exponentiation, so the growing exponential
    never meets the decaying Ai at overflow scale. On the asymptotic side,
    z >= ASYMP_EDGE, Ai = airy_ai_scaled(z) exp(-zeta) can underflow, so the
    scaled form enters with -zeta added to the exponent. Below the edge Ai
    is no smaller than Ai(9) ~ 1e-10 (away from its zeros on z < 0), so the
    plain Ai enters as log |Ai|, its sign restored after the exponentiation.

    Float constants give an array shaped like x, (rows, 1) columns one row
    per setting; every element sees the same operations either way.

    Floating-point warnings are off in here, the Airy calls' included, under
    one errstate context. Underflow is the factor's tails, log(0) at an
    exact zero of Ai becomes 0 after the exponentiation, and an overflow or
    invalid operation, here or inside the Airy code, leaves the result
    non-finite, which _checked_finite rejects. One way to get there is a
    small gamma: the exponent cancels two terms of size ~s^6/(108 gamma^2)
    and, below gamma ~ 1e-10 s^3, what is left overflows."""
    delta = x - y_m
    with np.errstate(all="ignore"):
        lead = log_pref + rate * (delta + exp_shift)
        z = scale * (delta + z_shift)
        out = np.empty_like(z)
        # scaled branch first: a z that overflowed to +inf fails there, with
        # airy_ai_scaled's error
        asy = z >= ASYMP_EDGE
        if asy.any():
            za = z[asy]
            scaled = airy_ai_scaled(za)
            out[asy] = np.exp(lead[asy] - (2.0 / 3.0) * (za * np.sqrt(za))
                              + np.log(scaled))
        low = ~asy
        if low.any():
            ai = airy_ai(z[low])
            out[low] = np.copysign(np.exp(lead[low] + np.log(np.abs(ai))), ai)
    return out


def _checked_finite(factor: np.ndarray, rows) -> np.ndarray:
    """factor (one row per GateParams in rows), or a DomainError naming the
    first setting whose factor is not finite."""
    finite = np.isfinite(factor)
    if not finite.all():
        bad = rows[int(np.argmin(finite.reshape(len(rows), -1).all(axis=1)))]
        raise DomainError(
            f"added factor is not finite at gamma={bad.gamma!r}, s={bad.s!r}, "
            f"y_m={bad.y_m!r}")
    return factor


def added_factor_rows(x: np.ndarray, rows) -> np.ndarray:
    """Airy-form factor on a 1-D coordinate array, one row per GateParams."""
    columns = np.array([_factor_constants(p) for p in rows])[:, :, None]
    return _checked_finite(
        _factor(np.asarray(x, dtype=float), *columns.transpose(1, 0, 2)), rows)


def added_factor_grid(x: np.ndarray, params: GateParams) -> np.ndarray:
    """Airy-form multiplicative factor evaluated on an array of coordinates:
    the one-row case of ``added_factor_rows``."""
    return _checked_finite(
        _factor(np.asarray(x, dtype=float), *_factor_constants(params)), [params])


def added_factor(x: float, params: GateParams) -> complex:
    """Scalar added factor; real-valued, returned as complex by contract."""
    return complex(float(added_factor_grid(np.asarray([x]), params)[0]))


def _gaussian_factor_grid(x: np.ndarray, params: GateParams) -> np.ndarray:
    """gamma = 0 limit of the added factor (Gaussian Fourier identity)."""
    s, y_m = params.s, params.y_m
    with np.errstate(under="ignore"):
        return math.pi ** (-0.25) / math.sqrt(s) * np.exp(-((x - y_m) ** 2) / (2.0 * s * s))


def _unnormalized_output(input: WaveFunction, params: GateParams) -> np.ndarray:
    if params.gamma > 0:
        factor = added_factor_grid(input.x, params)
    else:
        factor = _gaussian_factor_grid(input.x, params)
    return input.amplitudes * factor


def norm_squared(amplitudes: np.ndarray, dx: float):
    """Trapezoid integral of |amplitudes|^2 along the last axis. On the
    unnormalized output this is P(y_m), and every route to P uses it, so
    apply_gate, outcome_probability_density and run_sweep agree to the bit."""
    with np.errstate(over="ignore"):   # an infinite P fails the norm check
        return np.trapezoid(np.abs(amplitudes) ** 2, dx=dx, axis=-1)


def apply_gate(input: WaveFunction, params: GateParams) -> ConditionalOutput:
    """Condition the input on the ancilla momentum outcome params.y_m."""
    if abs(input.norm_squared() - 1.0) > 1e-6:
        raise DomainError("apply_gate expects a normalized input state")
    unnorm = _unnormalized_output(input, params)
    prob = float(norm_squared(unnorm, input.dx))
    if prob < PROBABILITY_FLOOR:
        raise ZeroProbabilityOutcomeError(
            f"outcome y_m={params.y_m} has probability density {prob}; "
            "the conditional state is undefined")
    state = WaveFunction(input.grid, unnorm / math.sqrt(prob),
                         label=f"gate_output(gamma={params.gamma}, s={params.s}, "
                               f"y_m={params.y_m})",
                         normalized=True)
    return ConditionalOutput(state=state, probability_density=prob, params=params)


def outcome_probability_density(input: WaveFunction, gamma: float, s: float,
                                y_m: float) -> float:
    """P(y_m): squared norm of the unnormalized conditional output."""
    if abs(input.norm_squared() - 1.0) > 1e-6:
        raise DomainError("outcome_probability_density expects a normalized input")
    unnorm = _unnormalized_output(input, GateParams(gamma=gamma, s=s, y_m=y_m))
    return float(norm_squared(unnorm, input.dx))
