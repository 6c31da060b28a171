"""The measurement-induced gate core.

The gate multiplies the target wavefunction by the real Airy-form added
factor F, yields the outcome probability density as the squared norm of the
unnormalized product, the integral of |psi_in|^2 F^2, and normalizes to
obtain the conditional output state.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ZeroProbabilityOutcomeError
# airy_ai_scaled stays bound: perfbench/tracing.py patches it here
from .special_numerics import _OSC_FLOOR, ASYMP_EDGE, _positive_sum, \
    _runs, _zeta, airy_ai, airy_ai_scaled
from .states import GateParams, WaveFunction, _inner

__all__ = [
    "ConditionalOutput",
    "added_factor",
    "added_factor_grid",
    "apply_gate",
    "outcome_probability_density",
]

# the smallest normal double: below it P is subnormal and has lost bits
PROBABILITY_FLOOR = sys.float_info.min
# z runs: NaN and below airy_ai's floor (-inf included), Airy, asymptotic
_EDGES = np.array([_OSC_FLOOR, ASYMP_EDGE])


@dataclass(frozen=True)
class ConditionalOutput:
    """Normalized conditional state plus the density of its outcome."""

    state: WaveFunction
    probability_density: float


def _factor_constants(params: GateParams) -> tuple:
    """y_m; below the edge log_pref, rate, exp_shift, scale and z_shift (z
    is +inf at every x when gamma = 0); at and above it pi^(-1/4) s^(1/2)/m,
    m, 12 gamma/m^4 and (s/m)^2, where m = max(s, (12 gamma)^(1/4))."""
    gamma, s, y_m = params.gamma, params.s, params.y_m
    try:
        s4 = s ** 4   # s*s*s*s differs from it in the last bit
    except OverflowError:   # s >~ 1e77: z is +inf
        s4 = math.inf
    below = (math.nan,) * 3 + (math.inf,) * 2
    if gamma > 0:
        below = (0.5 * math.log(2.0 * s) + 0.25 * math.log(math.pi)
                 - (1.0 / 3.0) * math.log(3.0 * gamma), s * s / (6.0 * gamma),
                 s4 / (18.0 * gamma), (3.0 * gamma) ** (-1.0 / 3.0),
                 s4 / (12.0 * gamma))
    root = (12.0 * gamma) ** 0.25
    m = max(s, root)
    return (y_m, *below, math.pi ** (-0.25) / math.sqrt(s) * (s / m), m,
            (root / m) ** 4, (s / m) ** 2)


def _factor(x, y_m, log_pref, rate, exp_shift, scale, z_shift, pref, m, c,
            ratio) -> np.ndarray:
    """The added factor exp(lead) Ai(z) on x, given _factor_constants.

    Below the edge, z = scale (delta + z_shift) < ASYMP_EDGE, it is formed
    so, as lead = log_pref + rate (delta + exp_shift) <= log_pref + 18.
    At and above it, +inf included, lead and zeta = (2/3) z^(3/2) are each
    about K = s^6/(108 gamma^2). In u = 12 gamma delta/s^4 and w = 1 + u,
    lead - zeta - log_pref = K (1 + 3u/2 - w^(3/2)), and the factor is

        pi^(-1/4) s^(-1/2) w^(-1/4) S(zeta)
            exp(-(delta/s)^2 (1 + 4u/3) / (w^(3/2) + 1 + 3u/2)),

    S the economized asymptotic sum, exactly 1 at zeta = inf. No two terms
    cancel for u > -1, so this holds for every gamma >= 0; at gamma = 0 it
    is the Gaussian pi^(-1/4) s^(-1/2) exp(-(delta/s)^2 / 2) to the bit. In
    p = w^(-1/2) and W = w (s/m)^4 = (s/m)^4 + 12 gamma delta/m^4, finite
    at a tiny s, the exponent is -(delta/m)^2 (2 + p)/(1.5 (1 + p)^2 W^(1/2)).

    special_numerics._runs splits z. Over (rows, 1) columns, one row per
    setting, lead is formed on every point and gathered, and each column
    repeated to one value per point; else lead is formed on the low run.
    Each formula is written once for a slice or a mask, in place on
    temporaries of its own, so every element sees the same operations
    either way and x is never written. Nothing raises: the tails underflow,
    and a z that is NaN or below airy_ai's floor leaves a NaN for the
    callers to refuse."""
    delta = x - y_m
    with np.errstate(all="ignore"):
        z = delta + z_shift
        z *= scale
        nan, low, asy = _runs(z, _EDGES)
        out = np.empty_like(z)
        out[nan] = math.nan
        if isinstance(m, np.ndarray):   # (rows, 1) columns, one per setting
            lead, gather = delta, low
            counts = np.count_nonzero(asy, axis=-1)
            pref, m, c, ratio = (k[:, 0].repeat(counts)
                                 for k in (pref, m, c, ratio))
        else:
            lead, gather = delta[low], ...
        za, zl = z[asy], z[low]
        if za.size:
            # pref / sqrt(root) * S(zeta) * exp(q^2 / root * (p + 2)
            # / (-1.5 (p + 1)^2)), q = d / m, in place in that order
            d = delta[asy]
            root = c * d
            root += ratio * ratio
            np.sqrt(root, out=root)   # sqrt(W)
            p = ratio / root
            expo = d / m
            expo *= expo
            expo /= root
            frac = p + 2.0
            p += 1.0
            np.square(p, out=p)
            p *= -1.5
            frac /= p
            expo *= frac
            np.exp(expo, out=expo)
            np.sqrt(root, out=root)
            value = np.divide(pref, root, out=root)
            value *= _positive_sum(_zeta(za))
            value *= expo
            out[asy] = value
        if zl.size:
            lead = lead + exp_shift
            lead *= rate
            lead += log_pref
            growth = lead[gather]
            np.exp(growth, out=growth)
            ai = airy_ai(zl)
            ai *= growth
            out[low] = ai
    return out


def _row_error(params: GateParams, p: float, factor: np.ndarray):
    """None, or the error that leaves the state at params undefined: a P
    that is not finite, named by the added factor when that is not finite
    (it then makes P not finite), or a P below the probability floor."""
    if math.isfinite(p):
        return None if p >= PROBABILITY_FLOOR else ZeroProbabilityOutcomeError(
            f"outcome y_m={params.y_m} has probability density {p}; "
            "the conditional state is undefined")
    what = "outcome probability density" if np.isfinite(factor).all() \
        else "added factor"
    return DomainError(f"{what} is not finite at gamma={params.gamma!r}, "
                       f"s={params.s!r}, y_m={params.y_m!r}")


def added_factor_grid(x: np.ndarray, params: GateParams) -> np.ndarray:
    """Airy-form multiplicative factor evaluated on an array of coordinates,
    or a DomainError naming the setting where it is not finite."""
    factor = _factor(np.asarray(x, dtype=float), *_factor_constants(params))
    if not np.isfinite(factor).all():
        raise _row_error(params, math.nan, factor)
    return factor


def _factor_rows(x: np.ndarray, rows) -> np.ndarray:
    """The added factor for each GateParams in rows, one row each, by one
    _factor call over (rows, 1) constant columns, on a shared 1-D x or an
    x of one row per setting; no settings give an empty (0, n) block."""
    if not rows:
        return np.empty((0, x.shape[-1]))
    columns = np.array([_factor_constants(p) for p in rows])[:, :, None]
    return _factor(x, *columns.transpose(1, 0, 2))


def added_factor(x: float, params: GateParams) -> float:
    """Scalar added factor."""
    return float(added_factor_grid(np.asarray([x]), params)[0])


def _probability(input: WaveFunction, factor: np.ndarray):
    """P(y_m), the integral of |psi_in|^2 F^2 = |psi_in F|^2: the trapezoid
    inner product of the input's density times the real factor F with F,
    along the last axis, a 1-D factor as one row. Every route to P uses it,
    so apply_gate, outcome_probability_density and gate_rows agree to the
    bit. An overflow is left to the caller's errstate."""
    return _inner(input.density() * factor, factor, input.dx)


def gate_rows(input: WaveFunction, rows) -> tuple:
    """The gate on one input for each GateParams in rows, by one _factor
    call over constant columns: the outputs (rows, n), each divided by the
    square root of its P(y_m), or of PROBABILITY_FLOOR below it, as
    apply_gate divides it; P(y_m) per row; and per row None or the error
    that leaves its state undefined, whose output row is not a state."""
    factor = _factor_rows(input.x, rows)
    # inf * 0j and an overflowing sum: their rows fail below
    with np.errstate(over="ignore", invalid="ignore"):
        states = input.amplitudes * factor
        prob = _probability(input, factor)
        states /= np.sqrt(np.maximum(prob, PROBABILITY_FLOOR))[:, None]
    errors = [_row_error(params, p, f)
              for params, p, f in zip(rows, prob.tolist(), factor)]
    return states, prob, errors


def apply_gate(input: WaveFunction, params: GateParams) -> ConditionalOutput:
    """Condition the input on the ancilla momentum outcome params.y_m."""
    factor = added_factor_grid(input.x, params)
    with np.errstate(over="ignore", invalid="ignore"):
        prob = float(_probability(input, factor))
    if error := _row_error(params, prob, factor):
        raise error
    state = WaveFunction(input.grid, input.amplitudes * factor / math.sqrt(prob),
                         label=f"gate_output(gamma={params.gamma}, s={params.s}, "
                               f"y_m={params.y_m})")
    return ConditionalOutput(state=state, probability_density=prob)


def outcome_probability_density(input: WaveFunction, gamma: float, s: float,
                                y_m: float) -> float:
    """P(y_m) from the input's density and the added factor, also under the
    probability floor; a P or factor that is not finite raises."""
    params = GateParams(gamma=gamma, s=s, y_m=y_m)
    factor = added_factor_grid(input.x, params)
    with np.errstate(over="ignore", invalid="ignore"):
        prob = float(_probability(input, factor))
    if not math.isfinite(prob):
        raise _row_error(params, prob, factor)
    return prob
