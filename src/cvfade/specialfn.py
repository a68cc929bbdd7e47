"""In-repo special functions: exponentially scaled modified Bessel I0/I1,
e^-x (I0(x) - 1), and Lambert W.

All routines accept scalars or numpy arrays and are vectorized.  Measured
against 40-digit mpmath values, e^-x I0(x) and e^-x I1(x) are within 1.1e-15
relative on [1e-3, 40] (scipy's own i1e is off by 1.6e-15 there), e^-x (I0(x)
- 1) within 8e-16 on [1e-6, 40], and lambert_w_exp within 2.4e-16 on
log-arguments in [1, 13], the range the beam model feeds it.  The test suite
pins them against scipy within 2e-15 (1e-14 for the difference).
"""
from __future__ import annotations

import math

import numpy as np

from .errors import NumericalFailure

_SERIES_CUTOFF = 20.0  # power series below, asymptotic expansion above


# power-series coefficients of Iv(x) / (x/2)^v in t = x^2/4: 1 / (k! (k+v)!)
_SERIES_COEFFS = tuple(tuple(1.0 / (math.factorial(k) * math.factorial(k + nu)) for k in range(60))
                       for nu in (0, 1))


def _series_terms(t_max, nu):
    """Number of series terms whose last one falls below 1e-18 of the sum at
    t_max; the tail's share of the sum grows with t, so this count serves every
    t <= t_max."""
    term = acc = 1.0
    for k in range(1, 60):
        term *= t_max / (k * (k + nu))
        acc += term
        if term <= 1e-18 * acc:
            return k + 1
    return 60


def _iv_series(x, nu, first=0):
    """Iv(x) for v = 0 or 1 by power series in Horner form, from the term k =
    first on (first = 1 drops the leading 1 of I0); valid (and fast) for
    0 <= x <= ~25."""
    t = 0.25 * x * x
    coeffs = _SERIES_COEFFS[nu][first:_series_terms(float(t.max()), nu)]
    acc = np.full_like(x, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc *= t
        acc += c
    if first:
        acc *= t
    return 0.5 * x * acc if nu else acc


def _iv_asymptotic(x, mu):
    """e^-x Iv(x) ~ (2 pi x)^(-1/2) sum_k (-1)^k a_k(mu)/(8x)^k, mu = 4 v^2.

    Terms are summed until they stop decreasing (optimal truncation); for
    x >= 20 the truncation error is far below 1e-12 relative.
    """
    acc = np.ones_like(x)
    term = np.ones_like(x)
    ex = 8.0 * np.minimum(x, 1e300)  # the sum is 1 past 1e300 either way; 8 k x stays finite
    for k in range(1, 30):
        factor = (mu - (2 * k - 1) ** 2) / (k * ex)
        new = -term * factor
        if np.all(np.abs(new) >= np.abs(term)) and k > 2:
            break
        term = new
        acc = acc + term
        if np.all(np.abs(term) <= 1e-18 * np.abs(acc)):
            break
    return acc / (4.0 * np.sqrt(0.125 * np.pi * x))  # 16 (pi / 8) x: the bits of 2 pi x, finite to the float max


def _bessel_ive(x, nu, name, first=0):
    """e^-x Iv(x) for v = 0 or 1 and x >= 0, less e^-x when first = 1 (v = 0):
    series below the cutoff, asymptotic above."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if np.any(x < 0) or np.any(~np.isfinite(x)):
        raise NumericalFailure(f"{name} requires finite x >= 0")
    if x.size and x.max() < _SERIES_CUTOFF:  # all series: no mask copies
        out = _iv_series(x, nu, first) * np.exp(-x)
    else:
        out = np.empty_like(x)
        lo = x < _SERIES_CUTOFF
        if np.any(lo):
            out[lo] = _iv_series(x[lo], nu, first) * np.exp(-x[lo])
        if np.any(~lo):
            xh = x[~lo]
            out[~lo] = _iv_asymptotic(xh, 4.0 * nu * nu) - (np.exp(-xh) if first else 0.0)
    return float(out[0]) if scalar else out


def bessel_i0e(x):
    """Exponentially scaled modified Bessel function e^-x I0(x) for x >= 0."""
    return _bessel_ive(x, 0, "bessel_i0e")


def bessel_i0e_minus_exp(x):
    """e^-x (I0(x) - 1) = e^-x I0(x) - e^-x for x >= 0, to full relative
    accuracy where that difference cancels (it is x^2/4 for small x)."""
    return _bessel_ive(x, 0, "bessel_i0e_minus_exp", first=1)


def bessel_i1e(x):
    """Exponentially scaled modified Bessel function e^-x I1(x) for x >= 0."""
    return _bessel_ive(x, 1, "bessel_i1e")


def lambert_w_exp(log_x):
    """W(e^log_x) on the principal branch, stable for any finite log_x.

    Works in u = log(W): solves u + e^u = log_x by Newton, so neither the
    argument nor W itself ever under- or overflows.  Newton stops once every
    step is below 1e-15 (1 + |u|), which leaves an error near the step's
    square; rounding of the residual keeps steps at a few 1e-16 (1 + |u|), so
    a tighter test would never pass.  That takes 2 to 6 steps for any log_x.
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
        if np.all(np.abs(step) <= 1e-15 * (1.0 + np.abs(u))):
            break
    out = np.exp(u)
    return float(out[0]) if scalar else out
