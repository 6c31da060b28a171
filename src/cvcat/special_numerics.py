"""Real-argument Airy function.

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
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import DomainError

__all__ = [
    "airy_ai",
    "airy_ai_scaled",
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
    acc = coeffs[-1] * x
    acc += coeffs[-2]
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
    zeta = (2.0 / 3.0) * w
    zeta *= np.sqrt(w)
    return zeta


def _positive_sum(zeta):
    """Ai(z) exp(zeta) 2 sqrt(pi) z^(1/4) for zeta >= 18, exactly 1 at
    zeta = inf; there u_k / (u_(k-1) zeta) < 1 for all k < _N_ASY."""
    return _horner(_U_POS, -1.0 / zeta)


def _asymptotic_scaled_pos(z, zeta):
    """Ai(z) exp(zeta) for z >= ASYMP_EDGE."""
    return _positive_sum(zeta) / (2.0 * math.sqrt(math.pi) * np.sqrt(np.sqrt(z)))


def _asymptotic_pos(z):
    """Ai for z >= ASYMP_EDGE, underflowing cleanly to 0."""
    zeta = _zeta(z)
    with np.errstate(under="ignore"):
        return _asymptotic_scaled_pos(z, zeta) * np.exp(-zeta)


def _asymptotic_neg(z):
    """Ai for z <= -ASYMP_EDGE via the oscillatory expansion
    cos(ph) even + sin(ph) odd / zeta, ph = zeta - pi/4.

    Both trigonometric factors come from one tangent t = tan(ph/2), as
    cos(ph) = (1 - t^2)/(1 + t^2) and sin(ph) = 2t/(1 + t^2); the numerator
    (1 - t^2) even + 2t odd/zeta is summed as even + t (odd/(zeta/2) - t even).
    Halving is exact. No double lies nearer than about 2^-61 to an odd
    multiple of pi/2, so |t| stays below about 1e19 and t^2 cannot overflow.
    Every step after -z works in place on a temporary of its own.
    """
    zeta = -z
    root = np.sqrt(zeta)   # kept for w^(1/4); zeta as _zeta forms it
    zeta *= 2.0 / 3.0
    zeta *= root
    half = 0.5 * zeta
    t = half - 0.125 * math.pi
    np.tan(t, out=t)
    with np.errstate(over="ignore"):   # past |z| ~ 7.4e102, where v = -0
        zeta *= zeta
    v = np.divide(-1.0, zeta, out=zeta)
    even, odd = _horner(_U_NEG[0], v), _horner(_U_NEG[1], v)
    # (even + t (odd / half - t even)) / ((1 + t t) (sqrt(pi) sqrt(root)))
    odd /= half
    odd -= np.multiply(t, even, out=v)
    odd *= t
    odd += even   # the numerator
    np.sqrt(root, out=root)
    root *= math.sqrt(math.pi)
    t *= t
    t += 1.0
    t *= root
    odd /= t
    return odd


def _edge_pair(z: float):
    """(Ai, Ai') at z = +-ASYMP_EDGE from the asymptotic expansions."""
    w = np.array([abs(z)])
    zeta = _zeta(w)
    quart = np.sqrt(np.sqrt(w))
    if z > 0:
        ai = _asymptotic_pos(w)
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
    k = z / _NODE_STEP
    k += 0.5
    np.floor(k, out=k)
    cols = k.astype(np.intp)
    cols += _BRIDGE_K0
    k *= _NODE_STEP
    offset = np.subtract(z, k, out=k)
    acc = _BRIDGE_T[-1].take(cols)
    for row in _BRIDGE_T[-2::-1]:
        acc *= offset
        acc += row.take(cols)
    return acc


def _runs(z, edges) -> tuple:
    """The len(edges) + 1 runs of z for ascending edges: below edges[0],
    from each edge up to the next, and at or above the last. A 1-D
    non-decreasing z is split into slices by one left-side binary search
    (a lone NaN sorts into the last run), any other z into masks (a NaN
    into the first). This is the one place that chooses between the two."""
    if z.ndim == 1 and (z[1:] >= z[:-1]).all():
        cuts = [None, *z.searchsorted(edges).tolist(), None]
        return tuple(map(slice, cuts[:-1], cuts[1:]))
    above = [z >= e for e in edges]
    return (~above[0], *(a ^ b for a, b in zip(above, above[1:])), above[-1])


# z > -ASYMP_EDGE is z >= the next double up, so the runs are the three regimes
_SEAMS = np.array([np.nextafter(-ASYMP_EDGE, 0.0), ASYMP_EDGE])


def _oscillatory_floor() -> float:
    """The most negative z whose zeta, formed as _zeta forms it, is finite:
    stepped down one double at a time from just inside (3/2 DBL_MAX)^(2/3),
    about -4.2e205. Below it zeta overflows and tan(inf) would be NaN."""
    def finite(z):
        return math.isfinite((2.0 / 3.0) * -z * math.sqrt(-z))
    below = -((1.5 - 1e-13) ** (2.0 / 3.0)) * sys.float_info.max ** (2.0 / 3.0)
    while finite(below):
        z, below = below, math.nextafter(below, -math.inf)
    return z


_OSC_FLOOR = _oscillatory_floor()
# the domain's runs: NaN and below the floor, the three regimes, +inf
_DOMAIN = np.array([_OSC_FLOOR, *_SEAMS, math.inf])


def airy_ai(z):
    """Airy function Ai(z) for real z; scalar in, scalar out (arrays pass through).

    Underflows cleanly to 0 deep on the positive axis; refuses z below
    _OSC_FLOOR, about -4.2e205, where the oscillatory phase overflows.
    Each point takes its regime's one formula; no regime writes into its
    argument, a view of the caller's array.
    """
    arr = np.asarray(z, dtype=float)
    below, *runs, above = _runs(arr, _DOMAIN)
    if arr[below].size or arr[above].size:
        raise DomainError(f"airy_ai requires finite z >= {_OSC_FLOOR!r}, "
                          "where (2/3)|z|^(3/2) is finite; got z in "
                          f"[{float(arr.min())!r}, {float(arr.max())!r}]")
    ai = np.empty_like(arr)
    for part, regime in zip(runs, (_asymptotic_neg, _bridge, _asymptotic_pos)):
        zp = arr[part]
        if zp.size:
            ai[part] = regime(zp)
    return float(ai) if arr.ndim == 0 else ai


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
    _, low, asy = _runs(arr, _SEAMS)
    za, zl = arr[asy], arr[low]
    if za.size:
        out[asy] = _asymptotic_scaled_pos(za, _zeta(za))
    if zl.size:
        out[low] = _bridge(zl) * np.exp(_zeta(zl))
    return float(out) if arr.ndim == 0 else out
