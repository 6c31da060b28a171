"""Brute-force cross-checks for the closed-form gate path.

Nothing here shares code with the Airy evaluation: the added factor is
recomputed by direct oscillatory quadrature, and the whole protocol is
re-simulated on a two-mode coordinate grid (entangle, then project on the
measured ancilla momentum). Test fixture quality, not a production path.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, ZeroProbabilityOutcomeError
from .gate import PROBABILITY_FLOOR, ConditionalOutput
from .special_numerics import _TAIL_EXPONENT, _cis, integrate_oscillatory_gaussian
from .states import MAX_ENTRIES, GateParams, GridSpec, WaveFunction

__all__ = [
    "ancilla_grid_for",
    "oracle_added_factor",
    "oracle_two_mode",
]


def oracle_added_factor(x, params: GateParams):
    """Added factor by direct quadrature of its defining integral, at a
    float x (a complex out) or an array of them (a complex array out)."""
    integral = integrate_oscillatory_gaussian(np.subtract(x, params.y_m),
                                              params.gamma, params.s)
    return math.sqrt(params.s) / (math.pi ** 0.75 * math.sqrt(2.0)) * integral


def ancilla_grid_for(params: GateParams, n_target: int,
                     x1_max: float = 0.0) -> GridSpec:
    """Ancilla grid for a target with |x1| <= x1_max, sized from the column's
    band limit within the n_target * n_ancilla <= 2^26 entry cap.

    With L = _TAIL_EXPONENT, the half-width w = sqrt(2L)/s cuts the envelope
    exp(-(s x)^2 / 2) at e^-L. The column's band is B = |y_m| + 3 gamma w^2
    + s sqrt(2L), its largest instantaneous frequency plus its Gaussian
    bandwidth; the trapezoid sum repeats that band every 2 pi / dx, so the
    step dx = 2 pi / (B + max(x1_max, B)) keeps every alias off every target
    point. Over the cap, the half-width (and B with it) shrinks as long as
    the edge density stays below 1e-10.
    """
    s = params.s
    tail = math.sqrt(2.0 * _TAIL_EXPONENT)
    w = tail / s

    def n_for(width: float) -> int:
        band = abs(params.y_m) + 3.0 * params.gamma * width ** 2 + s * tail
        dx = 2.0 * math.pi / (band + max(x1_max, band))
        return int(math.ceil(2.0 * width / dx)) + 1

    while n_for(w) > MAX_ENTRIES // n_target:
        w *= 0.95
        if math.exp(-((s * w) ** 2)) > 1e-10:
            raise DomainError(
                "cannot satisfy both the phase-step rule and the 2^26 entry cap "
                f"for gamma={params.gamma}, s={s}: reduce the target grid size")
    return GridSpec(-w, w, max(n_for(w), 16))


def oracle_two_mode(input: WaveFunction, params: GateParams) -> ConditionalOutput:
    """End-to-end grid simulation: entangle, project on y_m, normalize, on
    the ancilla grid that ancilla_grid_for sizes for the input's x range.

    The projected amplitude is the trapezoid sum over x2_j of
    exp(i x1 x2_j) times the ancilla column. Both grids are uniform, so with
    j = J m + r the kernel factorises as exp(i x1 (x2_0 + r dx2)) times
    exp(i x1 J dx2 m): two small phase tables and one matrix product replace
    the n1 x n2 table of complex exponentials, and the full two-mode matrix
    is never materialized. Every phase factor, the column's included, is
    taken from one tangent of the half phase (special_numerics._cis), which
    costs a fraction of numpy's complex exp.
    """
    ancilla = ancilla_grid_for(params, input.n_points,
                               max(abs(input.x_min), abs(input.x_max)))
    x2 = ancilla.x
    s = params.s
    with np.errstate(under="ignore"):
        sq = (math.sqrt(s) / math.pi ** 0.25) * np.exp(-0.5 * (s * x2) ** 2)
        # cubic resource phase and homodyne projection phase, fused per column
        column = sq * _cis(params.gamma * x2 * x2 * x2 - params.y_m * x2)
    x1 = input.x
    n2, dx2 = ancilla.n_points, ancilla.dx
    big_j = math.isqrt(n2 - 1) + 1          # ceil(sqrt(n2))
    big_m = -(-n2 // big_j)                 # ceil(n2 / J)
    # trapezoid weights over x2 (endpoints carry half weight), zero-padded
    # to J*M and laid out as weights[m, r] for column j = J m + r
    weights = np.zeros(big_j * big_m, dtype=complex)
    weights[:n2] = column * dx2
    weights[0] *= 0.5
    weights[n2 - 1] *= 0.5
    weights = weights.reshape(big_m, big_j)
    fine = _cis(np.outer(x1, ancilla.x_min + dx2 * np.arange(big_j)))
    coarse = _cis(np.outer(x1, (big_j * dx2) * np.arange(big_m)))
    out = np.sum(coarse * (fine @ weights.T), axis=1)
    out *= input.amplitudes / math.sqrt(2.0 * math.pi)
    prob = float(np.trapezoid(np.abs(out) ** 2, dx=input.dx))
    if prob < PROBABILITY_FLOOR:
        raise ZeroProbabilityOutcomeError(
            f"outcome y_m={params.y_m} has probability density {prob}")
    state = WaveFunction(input.grid, out / math.sqrt(prob),
                         label=f"oracle_output(gamma={params.gamma}, s={s}, "
                               f"y_m={params.y_m})")
    return ConditionalOutput(state=state, probability_density=prob)
