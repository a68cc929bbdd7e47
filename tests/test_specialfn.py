import warnings

import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from cvfade import specialfn
from cvfade.errors import NumericalFailure
from cvfade.specialfn import bessel_i0e, bessel_i0e_minus_exp, bessel_i1e, lambert_w_exp

# dense around the series/asymptotic switchover at 20, plus extremes
BESSEL_GRID = np.concatenate([
    [0.0, 1e-12, 1e-8, 1e-4],
    np.linspace(0.01, 50.0, 400),
    np.logspace(2, 6, 60),
])


def test_i0e_matches_reference():
    ours = bessel_i0e(BESSEL_GRID)
    ref = sps.i0e(BESSEL_GRID)
    assert np.max(np.abs(ours - ref) / ref) < 2e-15


def test_i1e_matches_reference():
    grid = BESSEL_GRID[BESSEL_GRID > 0]
    ours = bessel_i1e(grid)
    ref = sps.i1e(grid)
    assert np.max(np.abs(ours - ref) / ref) < 2e-15


def test_i0e_minus_exp():
    # against scipy's difference where it does not cancel, and below 1e-4
    # against the series' two leading terms, whose truncation is < 1e-18 there
    big = np.concatenate([np.linspace(1.0, 50.0, 200), [1e3, 1e6]])
    ref = sps.i0e(big) - np.exp(-big)
    assert np.max(np.abs(bessel_i0e_minus_exp(big) - ref) / ref) < 1e-14
    small = np.logspace(-150, -4, 100)
    t = small * small / 4
    ref = np.exp(-small) * t * (1 + t / 4)
    assert np.max(np.abs(bessel_i0e_minus_exp(small) - ref) / ref) < 1e-15
    assert bessel_i0e_minus_exp(0.0) == 0.0


@pytest.mark.parametrize("ours, ref", [
    (bessel_i0e, sps.i0e), (bessel_i1e, sps.i1e), (bessel_i0e_minus_exp, lambda x: sps.i0e(x) - np.exp(-x)),
], ids=["i0e", "i1e", "i0e_minus_exp"])
def test_bessel_near_the_float_maximum(ours, ref):
    """8x and 2 pi x pass the float maximum from about 2.2e307 and 2.9e307."""
    x = np.array([30.0, 2.3e307, 1e308, np.finfo(float).max])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = ours(x)
    assert np.max(np.abs(values - ref(x)) / ref(x)) < 2e-15


def test_bessel_endpoints():
    assert bessel_i0e(0.0) == 1.0
    assert bessel_i1e(0.0) == 0.0


def test_lambert_w_matches_reference():
    grid = np.concatenate([[1e-12, 1e-3], np.logspace(-2, 8, 300)])
    ours = lambert_w_exp(np.log(grid))
    ref = np.real(sps.lambertw(grid))
    assert np.max(np.abs(ours - ref) / ref) < 1e-10


def test_lambert_w_on_beam_log_arguments():
    # the range of log(zeta) the beam model passes, where Newton stops after 5 steps
    y = np.linspace(1.0, 13.0, 2000)
    ref = np.real(sps.lambertw(np.exp(y)))
    assert np.max(np.abs(lambert_w_exp(y) - ref) / ref) < 2e-15


def test_lambert_w_exp_consistency():
    # tiny arguments, where W(e^y) ~ e^y
    y = np.linspace(-700.0, -30.0, 50)
    ref = np.real(sps.lambertw(np.exp(y)))
    assert np.allclose(lambert_w_exp(y), ref, rtol=1e-12, atol=0.0)


def test_lambert_w_exp_huge_arguments():
    # regime where e^y overflows: solve w + ln(w) = y directly
    y = np.array([1e3, 1e5, 1e7, 1e9])
    w = lambert_w_exp(y)
    assert np.allclose(w + np.log(w), y, rtol=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-300, max_value=100.0, allow_nan=False))
def test_lambert_w_defining_identity(x):
    # W(x e^x) = x, with the argument passed as its logarithm log(x) + x
    w = lambert_w_exp(np.log(x) + x)
    assert w == pytest.approx(x, rel=1e-9, abs=1e-12)


def test_domain_errors():
    with pytest.raises(NumericalFailure):
        bessel_i0e(-1.0)
    with pytest.raises(NumericalFailure):
        bessel_i1e(np.array([1.0, -2.0]))
    with pytest.raises(NumericalFailure):
        bessel_i0e_minus_exp(np.inf)
    with pytest.raises(NumericalFailure):
        lambert_w_exp(np.nan)


# The all-series Bessel branch and lambert_w_exp with a fresh array per step:
# references for the tests only.  lambert_w_exp is written in this form; the
# series branch works in place and keeps its reference's bits.
def reference_series_ive(x, nu, first=0):
    t = 0.25 * x * x
    coeffs = specialfn._SERIES_COEFFS[nu][first:specialfn._series_terms(float(t.max()), nu)]
    acc = np.full_like(x, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = acc * t + c
    if first:
        acc = acc * t
    return (0.5 * x * acc if nu else acc) * np.exp(-x)


def reference_lambert_w_exp(y):
    u = np.where(y < 1.0, np.minimum(y, 0.2), np.log(np.maximum(y - np.log(np.maximum(y, 1.1)), 0.2)))
    for _ in range(60):
        eu = np.exp(u)
        step = (u + eu - y) / (1.0 + eu)
        u = u - step
        if np.all(np.abs(step) <= 1e-15 * (1.0 + np.abs(u))):
            break
    return np.exp(u)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.0, specialfn._SERIES_CUTOFF, exclude_max=True), min_size=1, max_size=40))
def test_series_bessel_keeps_the_bits_of_its_expression_form(x):
    x = np.array(x)
    for ours, nu, first in ((bessel_i0e, 0, 0), (bessel_i1e, 1, 0), (bessel_i0e_minus_exp, 0, 1)):
        assert ours(x).tobytes() == reference_series_ive(x, nu, first).tobytes(), ours.__name__


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-800.0, 1e12), min_size=1, max_size=40))
def test_lambert_w_exp_keeps_the_bits_of_its_expression_form(y):
    y = np.array(y)
    assert lambert_w_exp(y).tobytes() == reference_lambert_w_exp(y).tobytes()
