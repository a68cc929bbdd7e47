import warnings

import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings
from hypothesis import strategies as st

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
