"""Real-argument Airy function and the oracle's oscillatory-Gaussian quadrature.

Ai(z) is assembled from three regimes:

* ``|z| <= 4``      -- Maclaurin series (cancellation stays below ~1e-14),
* ``|z| >= 9``      -- Poincare asymptotic expansions (first omitted term
                       below 1e-15 relative),
* ``4 < |z| < 9``   -- Taylor propagation of the ODE ``Ai'' = z Ai`` from
                       precomputed anchor nodes, themselves obtained by
                       stepping inward from the asymptotic region.

The bridge exists because neither expansion reaches full double accuracy on
the seam: the Maclaurin cancellation grows like exp((2/3)|z|^(3/2)) while the
asymptotic optimal-truncation error only decays like exp(-(4/3)|z|^(3/2)).
Matching both at |z| in [4, 6] bottoms out near 1e-9 absolute, which is not
enough for the gate's closed-form/quadrature cross-checks near Airy zeros.

The quadrature at the end of the module shares no code with the Airy
evaluation, so the oracle built on it stays an independent check.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .errors import DomainError

__all__ = [
    "airy_ai",
    "airy_ai_scaled",
    "integrate_oscillatory_gaussian",
]

# Ai(0) = 3^(-2/3)/Gamma(2/3),  Ai'(0) = -3^(-1/3)/Gamma(1/3)
_AI0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
_AIP0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)

_SERIES_EDGE = 4.0   # Maclaurin for |z| <= 4
_ASYMP_EDGE = 9.0    # asymptotic for |z| >= 9
_NODE_STEP = 0.25    # anchor spacing on the bridge
_TAYLOR_TERMS = 30


def _asymptotic_u(n_terms: int) -> np.ndarray:
    """Coefficients u_k of the Poincare expansion of Ai."""
    u = np.empty(n_terms)
    u[0] = 1.0
    for k in range(1, n_terms):
        u[k] = u[k - 1] * (3 * k - 0.5) * (3 * k - 1.5) * (3 * k - 2.5) / (54.0 * k * (k - 0.5))
    return u


_N_ASY = 20
_U = _asymptotic_u(_N_ASY)
# v_k enter the expansion of Ai'
_V = _U * (6.0 * np.arange(_N_ASY) + 1.0) / (1.0 - 6.0 * np.arange(_N_ASY))
_V[0] = 1.0


def _maclaurin_pair(z):
    """(Ai, Ai') by Maclaurin series; z scalar or array with |z| <= ~4.5."""
    z = np.asarray(z, dtype=float)
    z3 = z ** 3
    f = np.ones_like(z)
    fp = np.zeros_like(z)          # d/dz of f
    g = z.copy()
    gp = np.ones_like(z)
    tf = np.ones_like(z)
    tg = z.copy()
    for k in range(1, 60):
        tf = tf * z3 / (3 * k * (3 * k - 1))
        tg = tg * z3 / ((3 * k + 1) * (3 * k))
        f += tf
        g += tg
        # derivative terms: d/dz z^(3k) = 3k z^(3k-1) etc.
        with np.errstate(divide="ignore", invalid="ignore"):
            fp += np.where(z != 0.0, 3 * k * tf / z, 0.0)
        gp += (3 * k + 1) * tg / np.where(z != 0.0, z, 1.0) * np.where(z != 0.0, 1.0, 0.0)
        if np.all(np.abs(tf) + np.abs(tg) < 1e-18 * (np.abs(f) + np.abs(g) + 1.0)):
            break
    # z == 0 derivative of g is exactly 1 (handled by init), of f exactly 0
    ai = _AI0 * f + _AIP0 * g
    aip = _AI0 * fp + _AIP0 * gp
    return ai, aip


def _asymptotic_scaled_pos(z):
    """Scaled (Ai, Ai')*exp(zeta) for z >= ~9."""
    z = np.asarray(z, dtype=float)
    zeta = (2.0 / 3.0) * z ** 1.5
    s_ai = np.zeros_like(z)
    s_aip = np.zeros_like(z)
    term = np.ones_like(z)
    prev = np.full_like(z, np.inf)
    for k in range(_N_ASY):
        tk = term * _U[k]
        if np.any(np.abs(tk) > prev):  # divergence onset; stop before it
            break
        s_ai += ((-1) ** k) * tk
        s_aip += ((-1) ** k) * term * _V[k]
        prev = np.abs(tk)
        term = term / zeta
    ai = s_ai / (2.0 * math.sqrt(math.pi) * z ** 0.25)
    aip = -(z ** 0.25) * s_aip / (2.0 * math.sqrt(math.pi))
    return ai, aip


def _asymptotic_neg(z):
    """(Ai, Ai') for z <= ~-9 via the oscillatory expansion."""
    w = -np.asarray(z, dtype=float)
    zeta = (2.0 / 3.0) * w ** 1.5
    ph = zeta - 0.25 * math.pi
    pe = np.zeros_like(w)   # sum over even k of (-1)^(k/2) u_k / zeta^k
    po = np.zeros_like(w)
    ve = np.zeros_like(w)
    vo = np.zeros_like(w)
    zpow = np.ones_like(w)
    for k in range(_N_ASY):
        sgn = (-1) ** (k // 2)
        if k % 2 == 0:
            pe += sgn * _U[k] * zpow
            ve += sgn * _V[k] * zpow
        else:
            po += sgn * _U[k] * zpow
            vo += sgn * _V[k] * zpow
        zpow = zpow / zeta
    ai = (np.cos(ph) * pe + np.sin(ph) * po) / (math.sqrt(math.pi) * w ** 0.25)
    aip = (w ** 0.25) * (np.sin(ph) * ve - np.cos(ph) * vo) / math.sqrt(math.pi)
    return ai, aip


def _build_bridge_tables() -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Anchor nodes (z, Ai, Ai') across 4 < |z| < 9 by ODE Taylor stepping.

    Positive side is integrated downward from z = 9 (Ai is the growing
    solution in that direction, so the recessive Bi admixture decays);
    the oscillatory side has no exponential separation.
    """
    def step(z0, ai, aip, h):
        c = np.empty(_TAYLOR_TERMS)
        c[0], c[1] = ai, aip
        c[2] = z0 * c[0] / 2.0
        for n in range(1, _TAYLOR_TERMS - 2):
            c[n + 2] = (z0 * c[n] + c[n - 1]) / ((n + 1.0) * (n + 2.0))
        # Horner for value and derivative
        v = 0.0
        for n in range(_TAYLOR_TERMS - 1, -1, -1):
            v = v * h + c[n]
        d = 0.0
        for n in range(_TAYLOR_TERMS - 1, 0, -1):
            d = d * h + n * c[n]
        return v, d

    zs_pos = np.arange(_ASYMP_EDGE, _SERIES_EDGE - 1e-9, -_NODE_STEP)
    ai, aip = _asymptotic_scaled_pos(_ASYMP_EDGE)
    zeta9 = (2.0 / 3.0) * _ASYMP_EDGE ** 1.5
    ai, aip = float(ai) * math.exp(-zeta9), float(aip) * math.exp(-zeta9)
    pos = [(9.0, ai, aip)]
    for z0 in zs_pos[:-1]:
        ai, aip = step(z0, ai, aip, -_NODE_STEP)
        pos.append((z0 - _NODE_STEP, ai, aip))

    zs_neg = np.arange(-_ASYMP_EDGE, -_SERIES_EDGE + 1e-9, _NODE_STEP)
    ai_n, aip_n = _asymptotic_neg(-_ASYMP_EDGE)
    ai_n, aip_n = float(ai_n), float(aip_n)
    neg = [(-9.0, ai_n, aip_n)]
    for z0 in zs_neg[:-1]:
        ai_n, aip_n = step(z0, ai_n, aip_n, _NODE_STEP)
        neg.append((z0 + _NODE_STEP, ai_n, aip_n))

    nodes = np.array([p[0] for p in neg] + [p[0] for p in reversed(pos)])
    ais = np.array([p[1] for p in neg] + [p[1] for p in reversed(pos)])
    aips = np.array([p[2] for p in neg] + [p[2] for p in reversed(pos)])
    order = np.argsort(nodes)
    return nodes[order], ais[order], aips[order]


_BRIDGE_Z, _BRIDGE_AI, _BRIDGE_AIP = _build_bridge_tables()


def _bridge_pair(z):
    """(Ai, Ai') on the seam region via local Taylor around the nearest anchor."""
    z = np.asarray(z, dtype=float)
    hi = np.clip(np.searchsorted(_BRIDGE_Z, z), 1, len(_BRIDGE_Z) - 1)
    lo = hi - 1
    idx = np.where(np.abs(z - _BRIDGE_Z[lo]) <= np.abs(_BRIDGE_Z[hi] - z), lo, hi)
    z0 = _BRIDGE_Z[idx]
    h = z - z0
    c_prev2 = _BRIDGE_AI[idx]
    c_prev1 = _BRIDGE_AIP[idx]
    val = c_prev2 + c_prev1 * h
    dval = c_prev1.copy()
    hpow = h * h
    # c_n recurrence on arrays; n runs over Taylor order
    cs = [c_prev2, c_prev1]
    for n in range(0, _TAYLOR_TERMS - 2):
        c_nm1 = cs[n - 1] if n >= 1 else 0.0
        c_next = (z0 * cs[n] + c_nm1) / ((n + 1.0) * (n + 2.0))
        cs.append(c_next)
        val = val + c_next * hpow
        dval = dval + (n + 2.0) * c_next * hpow / np.where(h != 0.0, h, 1.0) * (h != 0.0)
        hpow = hpow * h
    return val, dval


def _airy_pair(z):
    """Vectorized (Ai(z), Ai'(z)) for finite real z."""
    z = np.asarray(z, dtype=float)
    ai = np.empty_like(z)
    aip = np.empty_like(z)
    m_ser = np.abs(z) <= _SERIES_EDGE
    m_pos = z >= _ASYMP_EDGE
    m_neg = z <= -_ASYMP_EDGE
    m_bri = ~(m_ser | m_pos | m_neg)
    if np.any(m_ser):
        ai[m_ser], aip[m_ser] = _maclaurin_pair(z[m_ser])
    if np.any(m_pos):
        zp = z[m_pos]
        a, d = _asymptotic_scaled_pos(zp)
        zeta = (2.0 / 3.0) * zp ** 1.5
        with np.errstate(under="ignore"):
            e = np.exp(-zeta)
        ai[m_pos] = a * e
        aip[m_pos] = d * e
    if np.any(m_neg):
        ai[m_neg], aip[m_neg] = _asymptotic_neg(z[m_neg])
    if np.any(m_bri):
        ai[m_bri], aip[m_bri] = _bridge_pair(z[m_bri])
    return ai, aip


def airy_ai(z):
    """Airy function Ai(z) for real z; scalar in, scalar out (arrays pass through).

    Underflows cleanly to 0 deep on the positive axis.
    """
    arr = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("airy_ai requires finite input")
    ai, _ = _airy_pair(arr)
    if np.isscalar(z) or arr.ndim == 0:
        return float(ai)
    return ai


def airy_ai_scaled(z):
    """Ai(z)*exp((2/3) z^(3/2)) for z >= 0; stays order-unity-polynomial.

    The plain and scaled values satisfy the definitional identity exactly in
    the asymptotic region because one is computed from the other.
    """
    arr = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("airy_ai_scaled requires finite input")
    if np.any(arr < 0.0):
        raise DomainError("airy_ai_scaled is undefined on the oscillatory branch (z < 0)")
    out = np.empty_like(arr)
    m_asy = arr >= _ASYMP_EDGE
    m_low = ~m_asy
    if np.any(m_asy):
        a, _ = _asymptotic_scaled_pos(arr[m_asy])
        out[m_asy] = a
    if np.any(m_low):
        zl = arr[m_low]
        ai, _ = _airy_pair(zl)
        out[m_low] = ai * np.exp((2.0 / 3.0) * zl ** 1.5)
    if np.isscalar(z) or arr.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

# The trapezoid sum is cut where the integrand has fallen by e^(-_TAIL_EXPONENT)
# below its peak; the same exponent sets the Gaussian bandwidth the step resolves.
_TAIL_EXPONENT = 40.0


def integrate_oscillatory_gaussian(delta: float, gamma: float, s: float) -> complex:
    """Integral over x of exp(i x(delta + gamma x^2)) exp(-(s x)^2 / 2).

    The integrand is entire and decays in the strip 0 <= Im x <= c, so the
    path moves to Im x = c, where x = t + ic gives

        exp(k0 - a t^2 + i t (beta + gamma t^2)),  a = 3 gamma c + s^2 / 2,

    and the trapezoid rule converges geometrically (Trefethen & Weideman,
    SIAM Review 56(3), 2014). For delta > 0, c is the saddle point, where
    beta = 0; for delta <= 0, c = 1/max(|delta|, 1) keeps the integrand's
    peak e^k0 of order 1. With L = _TAIL_EXPONENT = 40, the half-width T meets
    e^(-a T^2) <= e^(-L - delta c) and the step h = pi/(omega_max + sqrt(L a))
    resolves the largest local angular frequency on |t| <= T with the
    Gaussian bandwidth to spare.
    """
    if not all(map(math.isfinite, (delta, gamma, s))):
        raise DomainError("delta, gamma and s must be finite")
    if not s > 0:
        raise DomainError("squeeze factor s must be positive")
    if gamma < 0:
        # integrand(delta, -gamma) = conj(integrand(delta, gamma))
        return np.conj(integrate_oscillatory_gaussian(delta, -gamma, s))
    s2 = s * s
    if gamma == 0:
        c = 0.0
    elif delta > 0:
        c = (math.sqrt(s2 * s2 + 12.0 * gamma * delta) - s2) / (6.0 * gamma)
    else:
        c = 1.0 / max(-delta, 1.0)
    a = 3.0 * gamma * c + 0.5 * s2
    beta = delta - 3.0 * gamma * c * c - s2 * c
    k0 = -delta * c + gamma * c ** 3 + 0.5 * s2 * c * c
    half = math.sqrt((_TAIL_EXPONENT + delta * c) / a)
    omega_max = max(abs(beta), abs(beta + 3.0 * gamma * half * half))
    h = math.pi / (omega_max + math.sqrt(_TAIL_EXPONENT * a))
    n = math.ceil(half / h)
    t = h * np.arange(-n, n + 1)
    with np.errstate(under="ignore"):
        fv = np.exp(k0 - a * t * t + 1j * t * (beta + gamma * t * t))
    return complex(h * np.sum(fv))
