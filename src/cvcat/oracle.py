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
from .states import MAX_ENTRIES, MAX_GRID_POINTS, GateParams, GridSpec, WaveFunction

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
    band limit alone: the FFT projection holds no n_target x n_ancilla
    matrix, so n_target does not enter the rule.

    With L = _TAIL_EXPONENT, the half-width w = sqrt(2L)/s cuts the envelope
    exp(-(s x)^2 / 2) at e^-L. The column's band is B = |y_m| + 3 gamma w^2
    + s sqrt(2L), its largest instantaneous frequency plus its Gaussian
    bandwidth; the trapezoid sum repeats that band every 2 pi / dx, so the
    step dx = 2 pi / (B + max(x1_max, B)) keeps every alias off every target
    point. A grid of more than MAX_GRID_POINTS raises DomainError, naming
    gamma, s and the count, before anything allocates.
    """
    s = params.s
    tail = math.sqrt(2.0 * _TAIL_EXPONENT)
    w = tail / s
    band = abs(params.y_m) + 3.0 * params.gamma * w * w + s * tail
    dx = 2.0 * math.pi / (band + max(x1_max, band))
    steps = 2.0 * w / dx if dx > 0.0 else math.inf
    if not steps <= MAX_GRID_POINTS - 1:   # a nan or inf fails too
        raise DomainError(
            f"the ancilla grid at gamma={params.gamma!r}, s={s!r} needs "
            f"n_points={steps + 1.0:.3g}, over the {MAX_GRID_POINTS} cap")
    return GridSpec(-w, w, max(math.ceil(steps) + 1, 16))


def _projection_step(n1: int, dx1: float, rule_dx: float) -> tuple[int, float]:
    """The projection's FFT length N, the least 2^a 3^b 5^c >= n1 whose
    ancilla step 2 pi/(N dx1) is at most rule_dx, and that step."""
    need = max(n1, math.ceil(2.0 * math.pi / (dx1 * rule_dx)))
    best = 1 << (need - 1).bit_length()
    # each odd part p = 3^b 5^c below best, lifted to need by powers of two
    p5 = 1
    while p5 < best:
        p = p5
        while p < best:
            best = min(best, p << (-(-need // p) - 1).bit_length())
            p *= 3
        p5 *= 5
    return best, 2.0 * math.pi / (best * dx1)


def oracle_two_mode(input: WaveFunction, params: GateParams) -> ConditionalOutput:
    """End-to-end grid simulation: entangle, project on y_m, normalize, on
    an ancilla grid of the half-width that ancilla_grid_for sizes for the
    input's x range and at most its step.

    The projected amplitude is the trapezoid sum over x2_j of
    exp(i x1_k x2_j) times the ancilla column. Both grids are uniform, so
    with the ancilla step dx2 = 2 pi/(N dx1) (_projection_step) the kernel
    factorises as exp(i x1_min x2_j) exp(i k dx1 x2_0) exp(2 pi i k j / N):
    the first factor joins the column's phase, the column is folded modulo
    N, one inverse FFT of length N sums it for every k at once, and its
    first n1 entries take the second factor. With x2_0 = -h dx2 that factor
    is exp(-2 pi i k h / N), whose phase is reduced modulo 2 pi in integers:
    taken as k dx1 x2_0, up to 2e3 rad at 20 dB, its rounding reached an
    L2 of 4.9e-14. The FFT errs by rounding at the scale of the state's
    norm, the scale at which the output is judged. Every phase factor is
    taken from one tangent of the half phase (special_numerics._cis), which
    costs a fraction of numpy's complex exp.
    """
    n1, dx1 = input.n_points, input.dx
    rule = ancilla_grid_for(params, n1, max(abs(input.x_min), abs(input.x_max)))
    n_fft, dx2 = _projection_step(n1, dx1, rule.dx)
    if n_fft > MAX_ENTRIES:
        raise DomainError(f"the projection needs an FFT of {n_fft} points, over "
                          "the 2^26 entry cap: use a coarser target grid")
    half = math.ceil(rule.x_max / dx2)
    x2 = dx2 * np.arange(-half, half + 1)
    s = params.s
    with np.errstate(under="ignore"):
        sq = (math.sqrt(s) / math.pi ** 0.25) * np.exp(-0.5 * (s * x2) ** 2)
        # cubic resource phase, homodyne projection phase and the target's
        # x1_min x2 share one phase per column
        column = sq * _cis(x2 * (params.gamma * x2 * x2 + input.x_min - params.y_m))
    # trapezoid weights over x2 (endpoints carry half weight), zero-padded
    # to a whole number of periods N and folded onto one
    n2 = x2.size
    weights = np.zeros(-(-n2 // n_fft) * n_fft, dtype=complex)
    weights[:n2] = column
    weights[0] *= 0.5
    weights[n2 - 1] *= 0.5
    folded = weights.reshape(-1, n_fft).sum(axis=0)
    out = np.fft.ifft(folded, norm="forward")[:n1]
    out *= _cis((2.0 * math.pi / n_fft) * (np.arange(n1) * -half % n_fft))
    out *= input.amplitudes * (dx2 / math.sqrt(2.0 * math.pi))
    prob = float(np.trapezoid(np.abs(out) ** 2, dx=dx1))
    if prob < PROBABILITY_FLOOR:
        raise ZeroProbabilityOutcomeError(
            f"outcome y_m={params.y_m} has probability density {prob}")
    state = WaveFunction(input.grid, out / math.sqrt(prob),
                         label=f"oracle_output(gamma={params.gamma}, s={s}, "
                               f"y_m={params.y_m})")
    return ConditionalOutput(state=state, probability_density=prob)
