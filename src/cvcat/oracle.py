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
from .states import MAX_ENTRIES, MAX_GRID_POINTS, GateParams, GridSpec, WaveFunction

__all__ = [
    "ancilla_grid_for",
    "integrate_oscillatory_gaussian",
    "oracle_added_factor",
    "oracle_two_mode",
]

# The trapezoid sum is cut where the integrand has fallen by e^(-_TAIL_EXPONENT)
# below its peak; the same exponent sets the Gaussian bandwidth the step resolves.
_TAIL_EXPONENT = 40.0
# Rule nodes (2n + 1 per offset, of which the n + 1 with k >= 0 are evaluated)
# taken at once. Whole offsets are grouped up to this count, so the work
# arrays do not grow with the number of offsets; one offset alone may pass
# it, up to MAX_ENTRIES nodes.
_QUAD_BLOCK = 2 ** 16
# Ancilla points that oracle_two_mode builds and folds at once (64 KiB a float).
_FOLD_BLOCK = 2 ** 13


def _cis(phase):
    """exp(i phase) for a float array, from one tangent t = tan(phase/2):
    cos = (1 - t^2)/(1 + t^2) and sin = 2t/(1 + t^2), formed in place on
    contiguous arrays of its own and copied into one float buffer viewed as
    complex; phase is only read. Halving is exact, and no double lies nearer
    than about 2^-61 to an odd multiple of pi/2, so t^2 cannot overflow."""
    t = np.multiply(0.5, phase)
    np.tan(t, out=t)
    den = t * t
    cos = np.subtract(1.0, den)
    np.divide(cos, np.add(den, 1.0, out=den), out=cos)
    np.divide(np.add(t, t, out=t), den, out=t)
    out = np.empty(t.shape + (2,))
    out[..., 0], out[..., 1] = cos, t   # a strided out= above was slower
    return out.view(complex)[..., 0]


def _trapezoid_sums(n, h, a, beta, k0, gamma: float):
    """h times the sum over t = h k, |k| <= n, of
    exp(k0 - a t^2) cis(t(beta + gamma t^2)), one real sum per offset.

    The envelope is even in t and the phase odd, so the sines cancel in
    pairs and the sum is h (2 S - f(0)), S summing envelope * cos(phase)
    over 0 <= k <= n. All n + 1 nodes of every offset are laid out at once
    and each offset's run is reduced alone, each arithmetic step in place."""
    counts = n + 1
    first = np.cumsum(counts) - counts
    t = np.arange(counts.sum(), dtype=float)
    t -= np.repeat(first, counts)
    t *= np.repeat(h, counts)
    fv = np.multiply(gamma, t)
    fv *= t
    fv += np.repeat(beta, counts)
    fv *= t
    np.cos(fv, out=fv)
    w = np.repeat(a, counts)
    w *= t
    w *= t
    np.subtract(np.repeat(k0, counts), w, out=w)
    with np.errstate(under="ignore"):
        fv *= np.exp(w, out=w)
    return h * (2.0 * np.add.reduceat(fv, first) - fv[first])


def integrate_oscillatory_gaussian(delta, gamma: float, s: float):
    """Integral over x of exp(i x(delta + gamma x^2)) exp(-(s x)^2 / 2), for
    a float delta (a float out) or an array of them (a float array out).

    The integrand is entire and decays in the strip 0 <= Im x <= c, so the
    path moves to Im x = c, where x = t + ic gives

        exp(k0 - a t^2 + i t (beta + gamma t^2)),  a = 3 gamma c + s^2 / 2,

    and the trapezoid rule converges geometrically (Trefethen & Weideman,
    SIAM Review 56(3), 2014). One height serves every delta and gamma >= 0,
    c = max(2 delta+ / (s^2 + sqrt(s^4 + 12 gamma delta+)),
    1/max(-delta, 1, s, gamma^(1/3))) with delta+ = max(delta, 0). The first
    term is the saddle point, where beta = 0; the second holds -delta c and
    gamma c^3 to at most 1 and (s c)^2/2 to at most 1/2, so the peak e^k0
    stays below e^(5/2), anti-squeezed s > 1 and large gamma included, and
    floors the saddle, whose node count grows without bound as delta -> 0+.
    With L = _TAIL_EXPONENT = 40, the half-width T meets
    e^(-a T^2) <= e^(-L - delta c) and the step h = pi/(omega_max + sqrt(L a))
    resolves the largest local angular frequency on |t| <= T with the
    Gaussian bandwidth to spare.

    On the nodes t = h k, |k| <= n, the envelope is even and the phase
    t(beta + gamma t^2) odd, so the sines cancel in pairs: the sum takes
    the n + 1 nodes k >= 0, and its value is exactly real. Each delta takes
    its own c, a, beta, h and node count, and its sum is reduced alone, so
    a value does not depend on the array it is evaluated in. A gamma < 0,
    gamma = 0 with an s whose s^2 underflows to 0 (a = 0), or a delta whose
    rule needs more than MAX_ENTRIES nodes (2n + 1, counted over both signs
    of k), raises DomainError before any node is built.
    """
    d = np.asarray(delta, dtype=float)
    if not (np.isfinite(d).all() and math.isfinite(gamma) and math.isfinite(s)):
        raise DomainError("delta, gamma and s must be finite")
    if not s > 0:
        raise DomainError("squeeze factor s must be positive")
    if gamma < 0:
        raise DomainError("cubic coefficient gamma must be >= 0")
    flat = d.ravel()
    s2 = s * s
    if gamma == 0.0 and s2 == 0.0:   # then a = 0: no decay on the path
        raise DomainError(f"quadrature at gamma=0 needs s^2 > 0, but s={s!r} "
                          "underflows s^2 to 0")
    # overflow or a vanishing a leaves a node count that is not finite,
    # which the cap below refuses
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        pos = np.maximum(flat, 0.0)
        # fmax, not maximum: the saddle is 0/0 at delta <= 0 once s^2 is 0
        c = np.fmax(2.0 * pos / (s2 + np.sqrt(s2 * s2 + 12.0 * gamma * pos)),
                    1.0 / np.maximum(-flat, max(1.0, s, gamma ** (1.0 / 3.0))))
        a = 3.0 * gamma * c + 0.5 * s2
        beta = flat - 3.0 * gamma * c * c - s2 * c
        k0 = -flat * c + gamma * c ** 3 + 0.5 * s2 * c * c
        half = np.sqrt((_TAIL_EXPONENT + flat * c) / a)
        omega_max = np.maximum(np.abs(beta),
                               np.abs(beta + 3.0 * gamma * half * half))
        h = math.pi / (omega_max + np.sqrt(_TAIL_EXPONENT * a))
        n = np.ceil(half / h)
    fits = 2.0 * n + 1.0 <= MAX_ENTRIES
    if not fits.all():
        bad = int(np.argmin(fits))
        raise DomainError(f"quadrature at delta={flat[bad]:.6g}, gamma={gamma:.6g}, "
                          f"s={s:.6g} needs {2.0 * n[bad] + 1.0:.3g} nodes, "
                          "over the 2^26 entry cap")
    n = n.astype(np.int64)
    ends = np.cumsum(2 * n + 1)     # nodes up to and including each offset
    out = np.empty(flat.size)
    start = 0
    while start < flat.size:
        # the offsets from start on whose nodes fit in one block, at least one
        limit = (ends[start - 1] if start else 0) + _QUAD_BLOCK
        stop = max(start + 1, int(np.searchsorted(ends, limit, side="right")))
        block = slice(start, stop)
        out[block] = _trapezoid_sums(n[block], h[block], a[block],
                                     beta[block], k0[block], gamma)
        start = stop
    if d.ndim == 0:
        return float(out[0])
    return out.reshape(d.shape)


def oracle_added_factor(x, params: GateParams):
    """Added factor by direct quadrature of its defining integral, at a
    float x (a float out) or an array of them (a float array out)."""
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
    bandwidth. The target point x1 reads the column's spectrum at x1, and
    the trapezoid sum repeats the band [-B, B] every 2 pi / dx, so the
    nearest alias image begins at 2 pi / dx - B. It clears every target
    point, |x1| <= x1_max, once 2 pi / dx - B >= x1_max: the step is
    dx = 2 pi / (B + x1_max). A grid of more than MAX_GRID_POINTS raises
    DomainError, naming gamma, s and the count, before anything allocates.
    """
    s = params.s
    tail = math.sqrt(2.0 * _TAIL_EXPONENT)
    w = tail / s
    band = abs(params.y_m) + 3.0 * params.gamma * w * w + s * tail
    dx = 2.0 * math.pi / (band + x1_max)
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
    the first factor joins the column's phase, the column is built in
    blocks of _FOLD_BLOCK points and folded modulo N into one buffer, one
    inverse FFT of length N in that buffer sums it for every k at once,
    and its first n1 entries take the second factor. With x2_0 = -h dx2
    that factor is exp(-2 pi i k h / N), whose phase is reduced modulo
    2 pi in integers: taken as k dx1 x2_0, up to 2e3 rad at 20 dB, its
    rounding reached an L2 of 4.9e-14. The FFT errs by rounding at the
    scale of the state's norm, the scale at which the output is judged.
    Every phase factor is taken from one tangent of the half phase (_cis),
    which costs a fraction of numpy's complex exp.
    """
    n1, dx1 = input.n_points, input.dx
    rule = ancilla_grid_for(params, n1, max(abs(input.x_min), abs(input.x_max)))
    # the least FFT length is 2 pi/(dx1 rule.dx); 2^26 is itself 2^a 3^b 5^c,
    # so a length within the cap leaves _projection_step's N within it
    product = dx1 * rule.dx
    length = 2.0 * math.pi / product if product > 0.0 else math.inf
    if not length <= MAX_ENTRIES:   # an inf fails too
        raise DomainError(f"the projection needs an FFT of {length:.3g} points, "
                          "over the 2^26 entry cap: use a coarser target grid")
    n_fft, dx2 = _projection_step(n1, dx1, rule.dx)
    half = math.ceil(rule.x_max / dx2)
    n2 = 2 * half + 1
    s = params.s
    # trapezoid weights over x2 (endpoints carry half weight), folded block
    # by block: no array spans the ancilla
    folded = np.zeros(n_fft, dtype=complex)
    lo = 0
    while lo < n2:
        # a block also ends at the next multiple of N, so it folds unsplit
        hi = min(lo + _FOLD_BLOCK, n2, lo - lo % n_fft + n_fft)
        x2 = dx2 * np.arange(lo - half, hi - half)
        with np.errstate(under="ignore"):
            sq = (math.sqrt(s) / math.pi ** 0.25) * np.exp(-0.5 * (s * x2) ** 2)
            # the cubic, homodyne and x1_min x2 phases share one per point
            column = sq * _cis(x2 * (params.gamma * x2 * x2 + input.x_min
                                     - params.y_m))
        if lo == 0:
            column[0] *= 0.5
        if hi == n2:
            column[-1] *= 0.5
        folded[lo % n_fft:][:hi - lo] += column
        lo = hi
    out = np.fft.ifft(folded, norm="forward", out=folded)[:n1]
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
