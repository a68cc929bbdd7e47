"""In-repo special functions: exponentially scaled modified Bessel I0/I1 and Lambert W.

All routines accept scalars or numpy arrays and are vectorized. Accuracy is
better than 1e-10 relative on the domains used by the beam model (argument >= 0);
the test suite pins this against scipy reference implementations.
"""
from __future__ import annotations

import numpy as np

from .errors import NumericalFailure

_SERIES_CUTOFF = 20.0  # power series below, asymptotic expansion above


def _iv_series(x, nu):
    """Iv(x) for v = 0 or 1 by power series; valid (and fast) for 0 <= x <= ~25."""
    t = (x * x) / 4.0
    term = np.ones_like(x)
    acc = np.ones_like(x)
    for k in range(1, 60):
        term = term * t / (k * (k + nu))
        acc = acc + term
        if np.all(term <= 1e-18 * acc):
            break
    return 0.5 * x * acc if nu else acc


def _iv_asymptotic(x, mu):
    """e^-x Iv(x) ~ (2 pi x)^(-1/2) sum_k (-1)^k a_k(mu)/(8x)^k, mu = 4 v^2.

    Terms are summed until they stop decreasing (optimal truncation); for
    x >= 20 the truncation error is far below 1e-12 relative.
    """
    acc = np.ones_like(x)
    term = np.ones_like(x)
    ex = 8.0 * x
    for k in range(1, 30):
        factor = (mu - (2 * k - 1) ** 2) / (k * ex)
        new = -term * factor
        if np.all(np.abs(new) >= np.abs(term)) and k > 2:
            break
        term = new
        acc = acc + term
        if np.all(np.abs(term) <= 1e-18 * np.abs(acc)):
            break
    return acc / np.sqrt(2.0 * np.pi * x)


def _bessel_ive(x, nu, name):
    """e^-x Iv(x) for v = 0 or 1 and x >= 0: series below the cutoff, asymptotic above."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if np.any(x < 0) or np.any(~np.isfinite(x)):
        raise NumericalFailure(f"{name} requires finite x >= 0")
    out = np.empty_like(x)
    lo = x < _SERIES_CUTOFF
    if np.any(lo):
        out[lo] = _iv_series(x[lo], nu) * np.exp(-x[lo])
    if np.any(~lo):
        out[~lo] = _iv_asymptotic(x[~lo], 4.0 * nu * nu)
    return float(out[0]) if scalar else out


def bessel_i0e(x):
    """Exponentially scaled modified Bessel function e^-x I0(x) for x >= 0."""
    return _bessel_ive(x, 0, "bessel_i0e")


def bessel_i1e(x):
    """Exponentially scaled modified Bessel function e^-x I1(x) for x >= 0."""
    return _bessel_ive(x, 1, "bessel_i1e")


def lambert_w_exp(log_x):
    """W(e^log_x) on the principal branch, stable for any finite log_x.

    Works in u = log(W): solves u + e^u = log_x by Newton, so neither the
    argument nor W itself ever under- or overflows.
    """
    y = np.asarray(log_x, dtype=float)
    scalar = y.ndim == 0
    y = np.atleast_1d(y).astype(float)
    if np.any(~np.isfinite(y)):
        raise NumericalFailure("lambert_w_exp requires finite log-argument")
    # u0 = y is accurate for y << 0 (W ~ e^y); else start near y - log(y)
    u = np.where(y < 1.0, np.minimum(y, 0.2), np.log(np.maximum(y - np.log(np.maximum(y, 1.1)), 0.2)))
    for _ in range(60):
        eu = np.exp(u)
        step = (u + eu - y) / (1.0 + eu)
        u = u - step
        if np.all(np.abs(step) <= 1e-16 * (1.0 + np.abs(u))):
            break
    out = np.exp(u)
    return float(out[0]) if scalar else out
