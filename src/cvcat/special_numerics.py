"""Real-argument Airy function and the oracle's oscillatory-Gaussian quadrature.

Ai(z) is assembled from two regimes, each a fixed-length Horner evaluation
over coefficients built once at import:

* ``|z| >= 9``      -- Poincare asymptotic expansions, a polynomial in
                       -1/zeta on the positive side and in -1/zeta^2 on the
                       oscillatory side. Their 20-term sums (the first
                       omitted term is 1.4e-15 relative at |z| = 9 and falls
                       like |z|^(-30) beyond) are Chebyshev-economized on
                       zeta >= 18 to 10 terms, and to 7 (even) and 8 (odd)
                       terms, within 1.1e-16 of the 20-term values; the
                       oscillatory side takes cos and sin of its phase from
                       one tangent of the half phase,
* ``|z| < 9``       -- the bridge: Taylor expansions about 73 anchor nodes
                       0.25 apart, summed to 14 terms in the offset (at most
                       0.125) from the nearest anchor, with the coefficients
                       gathered from a contiguous (terms x anchors) table.

Every point takes its regime's one formula, so a value never depends on the
array it is evaluated in. The gate's added factor calls _positive_sum, the
positive side's sum, at and above z = 9.

The anchor values come from stepping the ODE ``Ai'' = z Ai`` inward from the
asymptotic region, seeded with (Ai, Ai') at z = +-9, 36 steps to z = 0 on
each side. That seed is the only place Ai' is computed, from all 20 Poincare
terms. Each 0.25 step sums 30 Taylor terms, so the anchors carry no
truncation error forward; evaluation needs only 14, because the offset from
an anchor is at most half a step. Against a 30-digit reference at step 1/64,
the worst error is 6.4e-16 relative on 0 < z < 9 and 1.4e-15 of the envelope
sqrt(Ai^2 + Bi^2) on -9 < z < 0. A Maclaurin series in its place near
z = 0 would cancel to 1e-5 of its terms by z = 4 and lose 1e-12 there.

The quadrature at the end of the module shares no code with the Airy
evaluation, so the oracle built on it stays an independent check. It takes
an array of offsets in one call. Its integrand is an even envelope times
the exponential of an odd phase, so it sums envelope * cos(phase) over the
nodes t >= 0 alone and its values are exactly real. _cis, exp(i phase)
from one tangent of the half phase and several times cheaper than numpy's
complex exp, serves the two-mode oracle's phases.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .states import MAX_ENTRIES

__all__ = [
    "airy_ai",
    "airy_ai_scaled",
    "integrate_oscillatory_gaussian",
]

ASYMP_EDGE = 9.0     # asymptotic for |z| >= 9, the bridge below
# the smallest asymptotic zeta, (2/3) ASYMP_EDGE^(3/2) = 18, rounded down to
# an integer so that the economization's Chebyshev coefficients are exact
_ZETA_EDGE = math.floor(2.0 * ASYMP_EDGE ** 1.5 / 3.0)
_NODE_STEP = 0.25    # anchor spacing on the bridge
_TAYLOR_TERMS = 30   # per anchor-to-anchor step
_BRIDGE_TERMS = 14   # per evaluation, |offset| <= _NODE_STEP / 2
_N_ASY = 20


def _horner(coeffs, x):
    """Sum over k of coeffs[k] * x**k for float coefficients. In place on
    arrays, which saves a temporary per operation."""
    acc = coeffs[-1] * x + coeffs[-2]
    for c in coeffs[-3::-1]:
        acc *= x
        acc += c
    return acc


def _asymptotic_u(n_terms: int) -> np.ndarray:
    """Coefficients u_k of the Poincare expansion of Ai."""
    u = np.empty(n_terms)
    u[0] = 1.0
    for k in range(1, n_terms):
        u[k] = u[k - 1] * (3 * k - 0.5) * (3 * k - 1.5) * (3 * k - 2.5) / (54.0 * k * (k - 0.5))
    return u


def _economize(coeffs, scale: int, n_terms: int) -> np.ndarray:
    """The first n_terms coefficients of sum_k coeffs[k] v^k after Chebyshev
    economization on -2/scale <= v <= 0.

    From the highest power down, each surplus power is cancelled by a
    multiple of the shifted Chebyshev polynomial T_k(1 + scale v), which
    changes the sum on the interval by at most that multiple. The
    coefficients of T_k(1 + scale v) are exact integers, so each correction
    is rounded far below the coefficient it corrects.
    """
    a = [float(c) for c in coeffs]
    cheb = [[1], [1, scale]]   # T_k(1 + scale v), lowest power first
    while len(cheb) < len(a):
        prev, last = cheb[-2], cheb[-1]
        nxt = [2 * c for c in last] + [0]
        for j, c in enumerate(last):
            nxt[j + 1] += 2 * scale * c
        for j, c in enumerate(prev):
            nxt[j] -= c
        cheb.append(nxt)
    for k in range(len(a) - 1, n_terms - 1, -1):
        lead = a[k] / cheb[k][k]
        for j in range(k):
            a[j] -= lead * cheb[k][j]
    return np.array(a[:n_terms])


_U = _asymptotic_u(_N_ASY)
# v_k enter the expansion of Ai', needed only for the bridge seed
_V = _U * (6.0 * np.arange(_N_ASY) + 1.0) / (1.0 - 6.0 * np.arange(_N_ASY))
_V[0] = 1.0
# zeta >= _ZETA_EDGE wherever |z| >= ASYMP_EDGE, so -1/zeta lies in
# [-1/_ZETA_EDGE, 0] and -1/zeta^2 in [-1/_ZETA_EDGE^2, 0]; economized there,
# the value sums move from the 20-term ones by at most 1.1e-16.
_U_POS = _economize(_U, 2 * _ZETA_EDGE, 10).tolist()
# The oscillatory side sums even and odd k apart, each sign (-1)^j carried
# by the variable -1/zeta^2: (even, odd), economized to 7 and 8 terms.
_U_NEG = (_economize(_U[0::2], 2 * _ZETA_EDGE ** 2, 7).tolist(),
          _economize(_U[1::2], 2 * _ZETA_EDGE ** 2, 8).tolist())


def _zeta(w):
    """(2/3) w^(3/2) for w >= 0."""
    return (2.0 / 3.0) * w * np.sqrt(w)


def _positive_sum(zeta):
    """Ai(z) exp(zeta) 2 sqrt(pi) z^(1/4) for zeta >= 18, exactly 1 at
    zeta = inf; there u_k / (u_(k-1) zeta) < 1 for all k < _N_ASY."""
    return _horner(_U_POS, -1.0 / zeta)


def _asymptotic_scaled_pos(z, zeta):
    """Ai(z) exp(zeta) for z >= ASYMP_EDGE."""
    return _positive_sum(zeta) / (2.0 * math.sqrt(math.pi) * np.sqrt(np.sqrt(z)))


def _asymptotic_neg(z):
    """Ai for z <= -ASYMP_EDGE via the oscillatory expansion
    cos(ph) even + sin(ph) odd / zeta, ph = zeta - pi/4.

    Both trigonometric factors come from one tangent t = tan(ph/2), as
    cos(ph) = (1 - t^2)/(1 + t^2) and sin(ph) = 2t/(1 + t^2); the numerator
    (1 - t^2) even + 2t odd/zeta is summed as even + t (odd/(zeta/2) - t even).
    Halving is exact. No double lies nearer than about 2^-61 to an odd
    multiple of pi/2, so |t| stays below about 1e19 and t^2 cannot overflow.
    """
    w = -z
    root = np.sqrt(w)   # kept for w^(1/4); zeta as _zeta forms it
    zeta = (2.0 / 3.0) * w * root
    half = 0.5 * zeta
    t = np.tan(half - 0.125 * math.pi)
    v = -1.0 / (zeta * zeta)
    even, odd = _horner(_U_NEG[0], v), _horner(_U_NEG[1], v)
    return (even + t * (odd / half - t * even)) \
        / ((1.0 + t * t) * (math.sqrt(math.pi) * np.sqrt(root)))


def _edge_pair(z: float):
    """(Ai, Ai') at z = +-ASYMP_EDGE from the asymptotic expansions."""
    w = np.array([abs(z)])
    zeta = _zeta(w)
    quart = np.sqrt(np.sqrt(w))
    if z > 0:
        ai = _asymptotic_scaled_pos(w, zeta) * np.exp(-zeta)
        aip = -quart * np.exp(-zeta) * _horner(_V, -1.0 / zeta) \
            / (2.0 * math.sqrt(math.pi))
    else:
        ph = zeta - 0.25 * math.pi
        v = -1.0 / (zeta * zeta)
        even, odd = _horner(_V[0::2], v), _horner(_V[1::2], v)
        ai = _asymptotic_neg(-w)
        aip = quart * (np.sin(ph) * even - np.cos(ph) * odd / zeta) / math.sqrt(math.pi)
    return float(ai[0]), float(aip[0])


def _taylor_row(z0: float, ai: float, aip: float) -> list:
    """Taylor coefficients of Ai about z0, from Ai(z0), Ai'(z0) and Ai'' = z Ai."""
    c = [ai, aip, z0 * ai / 2.0]
    for n in range(1, _TAYLOR_TERMS - 2):
        c.append((z0 * c[n] + c[n - 1]) / ((n + 1.0) * (n + 2.0)))
    return c


def _build_bridge_table():
    """Taylor coefficients about the anchors z0 = k _NODE_STEP, |z0| <= 9, as
    a (_BRIDGE_TERMS, anchors) table whose column k + _BRIDGE_K0 holds
    anchor k.

    Each side is stepped by the full _TAYLOR_TERMS series from its seed at
    |z| = 9 to z = 0. The positive side runs downward, where Ai is the
    growing solution, so the recessive Bi admixture decays; the oscillatory
    side has no exponential separation. The positive side is stepped last,
    so its value holds the shared anchor z0 = 0.
    """
    k0 = round(ASYMP_EDGE / _NODE_STEP)
    table = np.empty((_BRIDGE_TERMS, 2 * k0 + 1))
    for z0 in (-ASYMP_EDGE, ASYMP_EDGE):
        h = -math.copysign(_NODE_STEP, z0)
        ai, aip = _edge_pair(z0)
        for _ in range(k0 + 1):
            c = _taylor_row(z0, ai, aip)
            table[:, round(z0 / _NODE_STEP) + k0] = c[:_BRIDGE_TERMS]
            ai = _horner(c, h)
            aip = _horner([n * cn for n, cn in enumerate(c)][1:], h)
            z0 += h
    return k0, table


_BRIDGE_K0, _BRIDGE_T = _build_bridge_table()


def _bridge(z):
    """Ai on |z| < 9 by the Taylor column of the nearest anchor, summed by
    Horner with each term's coefficients gathered as it is reached: a
    (terms x points) gather is slower on sweep-sized blocks, where it no
    longer stays in cache."""
    k = np.floor(z / _NODE_STEP + 0.5)
    cols = k.astype(np.intp) + _BRIDGE_K0
    offset = z - k * _NODE_STEP
    acc = _BRIDGE_T[-1].take(cols)
    for row in _BRIDGE_T[-2::-1]:
        acc *= offset
        acc += row.take(cols)
    return acc


def _ai(z):
    """Ai(z) for a finite float array."""
    ai = np.empty_like(z)
    m_pos = z >= ASYMP_EDGE
    m_neg = z <= -ASYMP_EDGE
    m_bri = ~(m_pos | m_neg)
    if m_pos.any():
        zp = z[m_pos]
        zeta = _zeta(zp)
        with np.errstate(under="ignore"):
            ai[m_pos] = _asymptotic_scaled_pos(zp, zeta) * np.exp(-zeta)
    if m_neg.any():
        ai[m_neg] = _asymptotic_neg(z[m_neg])
    if m_bri.any():
        ai[m_bri] = _bridge(z[m_bri])
    return ai


def airy_ai(z):
    """Airy function Ai(z) for real z; scalar in, scalar out (arrays pass through).

    Underflows cleanly to 0 deep on the positive axis.
    """
    arr = np.asarray(z, dtype=float)
    if not np.isfinite(arr).all():
        raise DomainError("airy_ai requires finite input")
    ai = _ai(arr)
    if np.isscalar(z) or arr.ndim == 0:
        return float(ai)
    return ai


def airy_ai_scaled(z):
    """Ai(z)*exp((2/3) z^(3/2)) for z >= 0; stays order-unity-polynomial.

    The plain and scaled values satisfy the definitional identity exactly in
    the asymptotic region because one is computed from the other.
    """
    arr = np.asarray(z, dtype=float)
    if not np.isfinite(arr).all():
        raise DomainError("airy_ai_scaled requires finite input")
    if (arr < 0.0).any():
        raise DomainError("airy_ai_scaled is undefined on the oscillatory branch (z < 0)")
    out = np.empty_like(arr)
    m_asy = arr >= ASYMP_EDGE
    m_low = ~m_asy
    if m_asy.any():
        za = arr[m_asy]
        out[m_asy] = _asymptotic_scaled_pos(za, _zeta(za))
    if m_low.any():
        zl = arr[m_low]
        out[m_low] = _ai(zl) * np.exp(_zeta(zl))
    if np.isscalar(z) or arr.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

# The trapezoid sum is cut where the integrand has fallen by e^(-_TAIL_EXPONENT)
# below its peak; the same exponent sets the Gaussian bandwidth the step resolves.
_TAIL_EXPONENT = 40.0
# Rule nodes (2n + 1 per offset, of which the n + 1 with k >= 0 are evaluated)
# taken at once. Whole offsets are grouped up to this count, so the work
# arrays do not grow with the number of offsets; one offset alone may pass
# it, up to MAX_ENTRIES nodes.
_QUAD_BLOCK = 2 ** 16


def _cis(phase):
    """exp(i phase) for a float array, from one tangent t = tan(phase/2):
    cos = (1 - t^2)/(1 + t^2) and sin = 2t/(1 + t^2), written into one float
    buffer that is viewed as complex. Halving is exact, and no double lies
    nearer than about 2^-61 to an odd multiple of pi/2, so t^2 cannot
    overflow."""
    t = np.tan(0.5 * phase)
    sq = t * t
    den = 1.0 + sq
    out = np.empty(t.shape + (2,))
    out[..., 0] = (1.0 - sq) / den
    out[..., 1] = (t + t) / den
    return out.view(complex)[..., 0]


def _trapezoid_sums(n, h, a, beta, k0, gamma: float):
    """h times the sum over t = h k, |k| <= n, of
    exp(k0 - a t^2) cis(t(beta + gamma t^2)), one real sum per offset.

    The envelope is even in t and the phase odd, so the sines cancel in
    pairs and the sum is h (2 S - f(0)), S summing envelope * cos(phase)
    over 0 <= k <= n. All n + 1 nodes of every offset are laid out at once
    and each offset's run is reduced alone."""
    counts = n + 1
    first = np.cumsum(counts) - counts
    t = np.repeat(h, counts) * (np.arange(counts.sum())
                                - np.repeat(first, counts))
    with np.errstate(under="ignore"):
        fv = np.exp(np.repeat(k0, counts) - np.repeat(a, counts) * t * t)
    fv *= np.cos(t * (np.repeat(beta, counts) + gamma * t * t))
    return h * (2.0 * np.add.reduceat(fv, first) - fv[first])


def integrate_oscillatory_gaussian(delta, gamma: float, s: float):
    """Integral over x of exp(i x(delta + gamma x^2)) exp(-(s x)^2 / 2), for
    a float delta (a complex out) or an array of them (a complex array out).

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
    the n + 1 nodes k >= 0, and its value is exactly real, returned as
    complex. Each delta takes its own c, a, beta, h and node count, and its
    sum is reduced alone, so a value does not depend on the array it is
    evaluated in. A gamma < 0, or a delta whose rule needs more than
    MAX_ENTRIES nodes (2n + 1, counted over both signs of k), raises
    DomainError before any node is built.
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
    out = np.empty(flat.size, dtype=complex)
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
        return complex(out[0])
    return out.reshape(d.shape)
