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
from .states import NORM_TOLERANCE, GateParams, WaveFunction

__all__ = [
    "ConditionalOutput",
    "added_factor",
    "added_factor_grid",
    "apply_gate",
    "gate_rows",
    "outcome_probability_density",
]

PROBABILITY_FLOOR = 1e-300


@dataclass(frozen=True)
class ConditionalOutput:
    """Normalized conditional state plus the density of its outcome."""

    state: WaveFunction
    probability_density: float


def _factor_constants(params: GateParams) -> tuple:
    """y_m, log-prefactor, exponent rate and shift, Airy scale and shift."""
    gamma, s, y_m = params.gamma, params.s, params.y_m
    if not gamma > 0:
        raise DomainError("added_factor needs gamma > 0; "
                          "gamma = 0 is the Gaussian special case")
    log_pref = 0.5 * math.log(2.0 * s) + 0.25 * math.log(math.pi) \
        - (1.0 / 3.0) * math.log(3.0 * gamma)
    try:
        s4 = s ** 4   # s*s*s*s differs from it in the last bit
    except OverflowError:   # s >~ 1e77: the factor is not finite, by name
        s4 = math.inf
    return (y_m, log_pref, s * s / (6.0 * gamma), s4 / (18.0 * gamma),
            (3.0 * gamma) ** (-1.0 / 3.0), s4 / (12.0 * gamma))


def _factor(x, y_m, log_pref, rate, exp_shift, scale, z_shift) -> np.ndarray:
    """The factor exp(lead) Ai(z), lead = log_pref + rate (delta + exp_shift).

    Neither exponential can overflow, but by the rounding named below.
    With a = s^2/(6 gamma),
    lead - log_pref = a (3 gamma)^(1/3) z - gamma a^3, which over a is at
    most zeta = (2/3) z^(3/2), reached at z = a^2 (3 gamma)^(2/3); on z < 0
    it is negative. So below the edge, z < ASYMP_EDGE, lead <= log_pref + 18
    and the factor is exp(lead) Ai(z). At and above the edge,
    lead - zeta <= log_pref and the factor is exp(lead - zeta) times the
    scaled Ai, so the growing exponential never meets the decaying Ai at
    overflow scale. log_pref itself stays below 620 for every finite s and
    positive gamma.

    Float constants give an array shaped like x, (rows, 1) columns one row
    per setting; every element sees the same operations either way.

    Floating-point warnings are off in here, the Airy calls' included, under
    one errstate context, and nothing raises. Underflow is the factor's
    tails, and a z that overflowed (NaN out) or an overflow left by rounding
    leaves the result non-finite, which the callers name. One way there is a
    small gamma: lead cancels two terms of size ~s^6/(108 gamma^2) and,
    below gamma ~ 1e-10 s^3, what the rounding leaves overflows."""
    delta = x - y_m
    with np.errstate(all="ignore"):
        lead = log_pref + rate * (delta + exp_shift)
        z = scale * (delta + z_shift)
        out = np.full_like(z, math.nan)
        finite = np.isfinite(z)
        asy = finite & (z >= ASYMP_EDGE)
        low = finite ^ asy
        if asy.any():
            za = z[asy]
            out[asy] = airy_ai_scaled(za) \
                * np.exp(lead[asy] - (2.0 / 3.0) * (za * np.sqrt(za)))
        if low.any():
            out[low] = airy_ai(z[low]) * np.exp(lead[low])
    return out


def _not_finite(params: GateParams, factor: np.ndarray) -> DomainError:
    what = "outcome probability density" if np.isfinite(factor).all() \
        else "added factor"
    return DomainError(f"{what} is not finite at gamma={params.gamma!r}, "
                       f"s={params.s!r}, y_m={params.y_m!r}")


def added_factor_grid(x: np.ndarray, params: GateParams) -> np.ndarray:
    """Airy-form multiplicative factor evaluated on an array of coordinates,
    or a DomainError naming the setting where it is not finite."""
    factor = _factor(np.asarray(x, dtype=float), *_factor_constants(params))
    if not np.isfinite(factor).all():
        raise _not_finite(params, factor)
    return factor


def added_factor(x: float, params: GateParams) -> complex:
    """Scalar added factor; real-valued, returned as complex by contract."""
    return complex(float(added_factor_grid(np.asarray([x]), params)[0]))


def _gaussian_factor_grid(x: np.ndarray, params: GateParams) -> np.ndarray:
    """gamma = 0 limit of the added factor (Gaussian Fourier identity). The
    exponent is formed as -((x - y_m)/s)^2 / 2: a tiny s overflows the ratio
    to a factor of 0, where 2 s^2 would underflow to a division by zero."""
    s, y_m = params.s, params.y_m
    with np.errstate(over="ignore", under="ignore"):
        return math.pi ** (-0.25) / math.sqrt(s) * np.exp(-0.5 * ((x - y_m) / s) ** 2)


def norm_squared(amplitudes: np.ndarray, dx: float):
    """Trapezoid integral of |amplitudes|^2 along the last axis of a complex
    array: the sum of squares of its float view, the two end points at half
    weight, every row reduced the same way. On the unnormalized output this
    is P(y_m), and every route to P uses it, so apply_gate,
    outcome_probability_density and run_sweep agree to the bit."""
    f = amplitudes.view(float)
    ends = f[..., [0, 1, -2, -1]]
    with np.errstate(over="ignore", invalid="ignore"):   # gate_rows names it
        return dx * (np.vecdot(f, f) - 0.5 * np.vecdot(ends, ends))


def gate_rows(input: WaveFunction, rows) -> tuple:
    """The gate on one normalized input for each GateParams in rows: the
    unnormalized outputs (rows, n), P(y_m) per row, and per row None or the
    error that leaves its state undefined. A lone gamma > 0 row is one
    added_factor_grid call; otherwise the gamma > 0 rows share one _factor
    call and each gamma = 0 row takes the Gaussian factor."""
    if abs(input.norm_squared() - 1.0) > NORM_TOLERANCE:
        raise DomainError("the gate expects a normalized input state")
    if len(rows) == 1 and rows[0].gamma > 0:
        try:
            factor = added_factor_grid(input.x, rows[0])[None]
        except DomainError:   # not finite; named below, from its P
            factor = np.full((1, input.n_points), math.nan)
    else:
        cubic = [p for p in rows if p.gamma > 0]
        if cubic:
            columns = np.array([_factor_constants(p) for p in cubic])[:, :, None]
            shared = iter(_factor(input.x, *columns.transpose(1, 0, 2)))
        factor = np.array([next(shared) if p.gamma > 0
                           else _gaussian_factor_grid(input.x, p) for p in rows])
    with np.errstate(invalid="ignore"):   # inf * 0j: its row fails below
        unnorm = input.amplitudes * factor
    prob = norm_squared(unnorm, input.dx)
    errors = [None] * len(rows)
    for i, p in enumerate(prob.tolist()):
        if not math.isfinite(p):   # so is a factor that is not finite
            errors[i] = _not_finite(rows[i], factor[i])
        elif p < PROBABILITY_FLOOR:
            errors[i] = ZeroProbabilityOutcomeError(
                f"outcome y_m={rows[i].y_m} has probability density {p}; "
                "the conditional state is undefined")
    return unnorm, prob, errors


def apply_gate(input: WaveFunction, params: GateParams) -> ConditionalOutput:
    """Condition the input on the ancilla momentum outcome params.y_m."""
    unnorm, prob, [error] = gate_rows(input, [params])
    if error:
        raise error
    prob = float(prob[0])
    state = WaveFunction(input.grid, unnorm[0] / math.sqrt(prob),
                         label=f"gate_output(gamma={params.gamma}, s={params.s}, "
                               f"y_m={params.y_m})",
                         normalized=True)
    return ConditionalOutput(state=state, probability_density=prob)


def outcome_probability_density(input: WaveFunction, gamma: float, s: float,
                                y_m: float) -> float:
    """P(y_m): squared norm of the unnormalized conditional output, also under
    the probability floor; a P or factor that is not finite raises."""
    _, prob, [error] = gate_rows(input, [GateParams(gamma=gamma, s=s, y_m=y_m)])
    if error and not isinstance(error, ZeroProbabilityOutcomeError):
        raise error
    return float(prob[0])
