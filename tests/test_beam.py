import functools
import math
import re
import tracemalloc
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from cvfade import beam
from cvfade.beam import (
    BeamScenario,
    EllipticSample,
    fading_moments,
    rytov,
    sample_metadata,
    simulate,
    transmittance,
    turbulence_gaussian_params,
)
from cvfade.channel import fading_stats
from cvfade.errors import DomainError
from cvfade.scenario import beam_scenario, load_scenario, read_cn2_csv
from cvfade.specialfn import _SERIES_CUTOFF, bessel_i0e, bessel_i0e_minus_exp, bessel_i1e, lambert_w_exp

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@functools.lru_cache(maxsize=None)
def _legendre_nodes(n):
    return np.polynomial.legendre.leggauss(n)


def overlap_eta(w1, w2, x0, y0, phi, aperture, nr=128, nth=512):
    """Brute-force aperture integral of a normalized elliptic Gaussian intensity.

    Gauss-Legendre in radius, uniform (spectrally accurate) in angle.
    """
    u, wu = _legendre_nodes(nr)
    r = 0.5 * aperture * (u + 1.0)
    wr = 0.5 * aperture * wu
    th = (np.arange(nth) + 0.5) * 2.0 * np.pi / nth
    rr, tt = np.meshgrid(r, th)
    xg = rr * np.cos(tt) - x0
    yg = rr * np.sin(tt) - y0
    xb = xg * np.cos(phi) + yg * np.sin(phi)
    yb = -xg * np.sin(phi) + yg * np.cos(phi)
    intensity = (2.0 / (np.pi * w1 * w2)) * np.exp(-2.0 * xb**2 / w1**2 - 2.0 * yb**2 / w2**2)
    return float(((intensity * rr).sum(axis=0) * wr).sum() * (2.0 * np.pi / nth))


def circular_sample(w, w0):
    theta = math.log(w * w / (w0 * w0))
    return theta


class TestOracleSelfCheck:
    def test_centered_circular_closed_form(self):
        a, w = 0.02, 0.025
        exact = 1.0 - math.exp(-2.0 * a * a / (w * w))
        assert overlap_eta(w, w, 0.0, 0.0, 0.3, a) == pytest.approx(exact, rel=1e-10)


class TestRytov:
    def test_zero_turbulence(self):
        assert rytov(0.0, 4e6, 2000.0) == 0.0

    def test_reference_point(self):
        k = 2.0 * math.pi / 1550e-9
        assert rytov(1e-15, k, 2000.0) == pytest.approx(0.071, abs=1e-3)

    def test_distance_power_law(self):
        k = 2.0 * math.pi / 1550e-9
        ratio = rytov(1e-15, k, 4000.0) / rytov(1e-15, k, 2000.0)
        assert ratio == pytest.approx(2.0 ** (11.0 / 6.0), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            rytov(-1e-15, 4e6, 100.0)


class TestBeamScenario:
    def test_requires_exactly_one_turbulence_input(self):
        with pytest.raises(DomainError):
            BeamScenario(wavelength=1.55e-6, w0=0.04, aperture=0.02, distance=1000.0)
        with pytest.raises(DomainError):
            BeamScenario(
                wavelength=1.55e-6, w0=0.04, aperture=0.02, distance=1000.0,
                cn2=1e-15, sigma_r2=0.5,
            )

    def test_derived_quantities(self):
        s = BeamScenario(wavelength=1.55e-6, w0=0.04, aperture=0.02, distance=1000.0, cn2=1e-15)
        assert s.wavenumber == pytest.approx(2.0 * math.pi / 1.55e-6)
        assert s.fresnel_omega == pytest.approx(s.wavenumber * 0.0016 / 2000.0)
        assert s.rytov_variance == pytest.approx(rytov(1e-15, s.wavenumber, 1000.0))


class TestCoefficientTable:
    def test_coefficients_are_the_versioned_table(self):
        assert beam.COEFFICIENT_TABLE_VERSION == "elliptic-focused-2024.1"
        coefficients = (beam.RYTOV_NORMALIZATION, beam.CENTROID_WANDER, beam.THETA_GAIN,
                        beam.THETA_VARIANCE, beam.THETA_COVARIANCE)
        assert [c.hex() for c in coefficients] == [
            c.hex() for c in (0.4065040650406504, 0.33, 2.96, 1.2, 0.8)]
        # the spherical-wave prefactor 0.5 over the plane-wave 1.23 of rytov()
        assert beam.RYTOV_NORMALIZATION == 0.5 / 1.23


class TestTurbulenceMoments:
    def test_tracking_zeroes_centroid(self):
        mu, cov = turbulence_gaussian_params(0.5, 2.0, 0.04, tracking=True)
        assert mu[0] == mu[1] == 0.0
        assert cov[0, 0] == cov[1, 1] == 0.0
        assert cov[2, 2] > 0.0

    def test_zero_turbulence_is_deterministic(self):
        mu, cov = turbulence_gaussian_params(0.0, 2.0, 0.04)
        assert np.all(cov == 0.0)

    def test_vacuum_spread_is_focused_beam_diffraction(self):
        # table's vacuum limit: W(L) = W0 / Omega exactly
        for omega in (0.2, 0.5, 1.0, 3.0):
            mu, _ = turbulence_gaussian_params(0.0, omega, 0.04)
            w = 0.04 * math.exp(0.5 * mu[2])
            assert w == pytest.approx(0.04 / omega, rel=1e-12)

    def test_vacuum_spread_vs_collimated_broadening_within_validity(self):
        # The collimated free-space oracle W0 sqrt(1 + Omega^-2) is matched to
        # within 15% only in the far field Omega <= 0.61; the table's focused
        # normalization is fixed by the fading-statistics acceptance targets
        # (see notes/decisions ledger for the documented trade-off).
        for omega in (0.1, 0.2, 0.35, 0.5, 0.61):
            mu, _ = turbulence_gaussian_params(0.0, omega, 0.04)
            w_model = 0.04 * math.exp(0.5 * mu[2])
            w_oracle = 0.04 * math.sqrt(1.0 + omega ** (-2))
            assert abs(w_model - w_oracle) / w_oracle <= 0.15

    def test_centroid_variance_linear_in_rytov(self):
        _, c1 = turbulence_gaussian_params(0.3, 2.0, 0.04)
        _, c2 = turbulence_gaussian_params(0.6, 2.0, 0.04)
        assert c2[0, 0] == pytest.approx(2.0 * c1[0, 0], rel=1e-12)

    def test_theta_covariance_is_positive_definite(self):
        for s in (0.01, 0.1, 0.5, 1.0, 5.0):
            _, cov = turbulence_gaussian_params(s, 1.5, 0.04)
            assert cov[2, 2] > abs(cov[2, 3])


class TestTransmittance:
    SCEN = BeamScenario(wavelength=1.55e-6, w0=0.04, aperture=0.02, distance=1000.0, sigma_r2=0.1)

    def test_centered_narrow_beam_full_transmission(self):
        a = self.SCEN.aperture
        theta = circular_sample(a / 5.0, self.SCEN.w0)
        s = EllipticSample(x0=0.0, y0=0.0, theta1=theta, theta2=theta, phi=0.0)
        assert transmittance(s, self.SCEN) >= 1.0 - 1e-9

    def test_far_off_axis_beam_misses(self):
        a = self.SCEN.aperture
        theta = circular_sample(a, self.SCEN.w0)
        s = EllipticSample(x0=10.0 * a, y0=0.0, theta1=theta, theta2=theta, phi=0.0)
        assert transmittance(s, self.SCEN) < 1e-6

    def test_rim_offset_against_overlap_integral(self):
        a = self.SCEN.aperture
        theta = circular_sample(a, self.SCEN.w0)
        s = EllipticSample(x0=a, y0=0.0, theta1=theta, theta2=theta, phi=0.0)
        got = transmittance(s, self.SCEN)
        want = overlap_eta(a, a, a, 0.0, 0.0, a)
        assert abs(got - want) / want < 0.05

    def test_circular_configurations_against_oracle(self, rng):
        # reduced version of the acceptance gate (300 draws, same bounds)
        a = self.SCEN.aperture
        errs = []
        for _ in range(300):
            w = rng.uniform(0.5, 2.0) * a
            r0 = rng.uniform(0.0, 2.0) * a
            ang = rng.uniform(0.0, 2.0 * np.pi)
            theta = circular_sample(w, self.SCEN.w0)
            s = EllipticSample(
                x0=r0 * math.cos(ang), y0=r0 * math.sin(ang),
                theta1=theta, theta2=theta, phi=rng.uniform(0, np.pi / 2),
            )
            got = transmittance(s, self.SCEN)
            want = overlap_eta(w, w, s.x0, s.y0, 0.0, a)
            errs.append(abs(got - want) / max(want, 1e-300))
        assert np.median(errs) <= 0.05

    def test_elliptic_beam_reasonable_vs_oracle(self, rng):
        # elliptic spots: the approximation is looser but must stay sane
        a = self.SCEN.aperture
        errs = []
        for _ in range(100):
            w1 = rng.uniform(0.6, 1.8) * a
            w2 = w1 * rng.uniform(0.7, 1.4)
            r0 = rng.uniform(0.0, 1.2) * a
            ang = rng.uniform(0.0, 2.0 * np.pi)
            phi = rng.uniform(0, np.pi / 2)
            s = EllipticSample(
                x0=r0 * math.cos(ang), y0=r0 * math.sin(ang),
                theta1=circular_sample(w1, self.SCEN.w0),
                theta2=circular_sample(w2, self.SCEN.w0),
                phi=phi,
            )
            got = transmittance(s, self.SCEN)
            want = overlap_eta(w1, w2, s.x0, s.y0, phi, a)
            errs.append(abs(got - want) / max(want, 1e-300))
        assert np.median(errs) <= 0.10

    def test_phi_range_validated(self):
        with pytest.raises(DomainError):
            EllipticSample(x0=0.0, y0=0.0, theta1=0.0, theta2=0.0, phi=2.0)


# --- the transmittance against its formulas evaluated exactly -----------------

def _decimal_i0_i1(z):
    """I0(z) and I1(z) by their power series, in the current decimal context."""
    t = z * z / 4
    i0 = i1 = term0 = term1 = Decimal(1)
    k = 0
    while term0 > i0.scaleb(-60):
        k += 1
        term0 = term0 * t / (k * k)
        term1 = term1 * t / (k * (k + 1))
        i0 += term0
        i1 += term1
    return i0, i1 * z / 2


def _decimal_scale_shape(z):
    """L(z) = R^-lambda and lambda(z) straight from their definitions, z > 0."""
    i0, i1 = _decimal_i0_i1(z)
    d = 1 - (-z).exp() * i0
    lnterm = (2 * (1 - (-z / 2).exp()) / d).ln()
    return lnterm, 2 * z * (-z).exp() * i1 / d / lnterm


def exact_transmittance(x0, y0, theta1, theta2, phi, scen):
    """(eta, eta0) of one beam realization, written as Vasylyev, Semenov & Vogel
    write them (W1, W2, W_eff, R, lambda, (W1+W2)^2/|W1^2-W2^2|) and evaluated in
    50-digit decimals, so that none of their cancellations costs precision;
    W(zeta) from scipy.special.lambertw."""
    with localcontext() as ctx:
        ctx.prec = 50
        a, w0 = Decimal(scen.aperture), Decimal(scen.w0)
        W1, W2 = w0 * (Decimal(theta1) / 2).exp(), w0 * (Decimal(theta2) / 2).exp()
        r0 = Decimal(math.hypot(x0, y0))
        chi = phi - math.atan2(y0, x0)
        zeta = 4 * a * a / (W1 * W2) * (a * a / W1**2 * (1 + 2 * Decimal(math.cos(chi) ** 2))
                                        + a * a / W2**2 * (1 + 2 * Decimal(math.sin(chi) ** 2))).exp()
        w_eff = 2 * a / Decimal(float(np.real(sps.lambertw(float(zeta))))).sqrt()
        lnterm, lam = _decimal_scale_shape(4 * a * a / w_eff**2)
        R = lnterm ** (-1 / lam)
        i0, _ = _decimal_i0_i1(a * a * abs(1 / W1**2 - 1 / W2**2))
        eta0 = 1 - i0 * (-a * a * (1 / W1**2 + 1 / W2**2)).exp()
        if W1 != W2:  # else the last term's factor 1 - e^0 is 0
            lnterm0, lam0 = _decimal_scale_shape(a * a * (1 / W1 - 1 / W2) ** 2)
            q = (W1 + W2) ** 2 / abs(W1**2 - W2**2) / lnterm0 ** (-1 / lam0)
            eta0 -= 2 * (1 - (-a * a / 2 * (1 / W1 - 1 / W2) ** 2).exp()) * (-(q**lam0)).exp()
        return float(eta0 * (-((r0 / (a * R)) ** lam)).exp()), float(eta0)


def _model_draws(scen, n, rng):
    """n draws of (x0, y0, Theta1, Theta2, phi) from the scenario's turbulence."""
    mu, cov = turbulence_gaussian_params(scen.rytov_variance, scen.fresnel_omega, scen.w0, scen.tracking)
    zn = rng.standard_normal((n, 4))
    th = mu[2] + zn[:, 2:] @ np.linalg.cholesky(cov[2:, 2:]).T
    sd = math.sqrt(cov[0, 0])
    return sd * zn[:, 0], sd * zn[:, 1], th[:, 0], th[:, 1], rng.uniform(0.0, math.pi / 2.0, n)


def _effective_z(x0, y0, theta1, theta2, phi, scen):
    """4 a^2 / W_eff^2, the argument of the scale/shape functions in the exponent."""
    a2 = scen.aperture**2
    w1sq, w2sq = scen.w0**2 * np.exp(theta1), scen.w0**2 * np.exp(theta2)
    chi = phi - np.arctan2(y0, x0)
    zeta = 4 * a2 / np.sqrt(w1sq * w2sq) * np.exp(a2 / w1sq * (1 + 2 * np.cos(chi) ** 2)
                                                  + a2 / w2sq * (1 + 2 * np.sin(chi) ** 2))
    return np.real(sps.lambertw(zeta))


def _model_case(**kw):
    def build(rng, n):
        scen = link(distance=1750.0, **kw)
        return scen, _model_draws(scen, n, rng)
    return build


def _tracked(rng, n):
    scen, params = _model_case(sigma_r2=0.56, tracking=True)(rng, n)
    assert np.all(np.hypot(params[0], params[1]) == 0.0)  # r0 = 0
    return scen, params


def _near_circular(rng, n):
    """W2 = W1 exactly, and within 1e-8 to 3 % of it."""
    scen = link(distance=1750.0, sigma_r2=0.56)
    x0, y0, t1, _, phi = _model_draws(scen, n, rng)
    t2 = t1 + rng.choice([0.0, 1e-8, 1e-5, 1e-3, 0.03], n) * rng.standard_normal(n)
    z0 = scen.aperture**2 * (np.exp(-t1 / 2) - np.exp(-t2 / 2)) ** 2 / scen.w0**2  # eta0's z
    assert np.any(z0 == 0) and np.any((z0 > 0) & (z0 < beam._SMALL_Z))
    assert np.any((z0 >= beam._SMALL_Z) & (z0 < 1e-3))
    return scen, (x0, y0, t1, t2, phi)


def _wide(rng, n):
    """Beams 60 to 100 aperture radii wide, off axis by up to 3 beam radii."""
    scen = link(distance=1750.0, sigma_r2=0.56)
    e1 = rng.uniform(1e-4, 2.4e-4, n)  # a^2 / W1^2
    e2 = e1 * rng.uniform(0.99, 1.01, n)
    t1, t2 = np.log(scen.aperture**2 / (e1 * scen.w0**2)), np.log(scen.aperture**2 / (e2 * scen.w0**2))
    r0, ang = rng.uniform(0.0, 3.0, n) * scen.aperture / np.sqrt(e1), rng.uniform(0.0, 2 * np.pi, n)
    params = (r0 * np.cos(ang), r0 * np.sin(ang), t1, t2, rng.uniform(0.0, math.pi / 2.0, n))
    assert np.all(_effective_z(*params, scen) < 1e-3)
    return scen, params


def _tiny_aperture(rng, n):
    """A 2 mm aperture at 3 km: 4 a^2 / W_eff^2 in [5e-3, 1e-2], where 1 - e^-z I0(z)
    cancels, and r0 up to ~20 a, which magnifies any error in L."""
    scen = link(aperture=0.002, distance=3000.0, sigma_r2=0.56)
    return scen, _model_draws(scen, n, rng)


TRANSMITTANCE_CASES = {
    "sr0.1": _model_case(sigma_r2=0.1),
    "sr3": _model_case(sigma_r2=3.0),
    "tracking": _tracked,
    "near-circular": _near_circular,
    "wide": _wide,
    "tiny-aperture": _tiny_aperture,
}


@pytest.mark.parametrize("case", TRANSMITTANCE_CASES)
def test_transmittance_matches_exact_formulas(case):
    """_transmittance_batch folds the formulas (e_i = a^2/W_i^2, cos 2chi,
    (x/R)^lambda = x^lambda L, G from a/W_i) and evaluates them in floats.  It
    must agree within 1e-12 relative, plus two ulps of 1 in eta0 = 1 - t1 - t3,
    which cancels for wide beams (eta0 ~ 2e-4 here) as it is evaluated."""
    scen, params = TRANSMITTANCE_CASES[case](np.random.default_rng(20240811), 200)
    ours = beam._transmittance_batch(*params, scen)
    eta, eta0 = np.array([exact_transmittance(*p, scen) for p in zip(*params)]).T
    assert np.all(np.abs(ours - eta) <= 1e-12 * eta + 2 * np.finfo(float).eps * eta / eta0)


def test_scale_shape_matches_exact_formulas():
    """L and lambda keep full precision on both sides of the series switch and
    where 1 - e^-z I0(z) cancels."""
    z = np.concatenate([np.logspace(-8, 1.3, 120), [beam._SMALL_Z * (1 - 1e-9), beam._SMALL_Z, 1e-3]])
    lnterm, lam = beam._scale_shape(z)
    with localcontext() as ctx:
        ctx.prec = 50
        want = np.array([[float(v) for v in _decimal_scale_shape(Decimal(x))] for x in z])
    assert np.max(np.abs(lnterm - want[:, 0]) / want[:, 0]) < 2e-15
    assert np.max(np.abs(lam - want[:, 1]) / want[:, 1]) < 2e-15


class TestSimulate:
    SCEN = BeamScenario(wavelength=1.55e-6, w0=0.04, aperture=0.02, distance=1750.0, sigma_r2=0.56)

    def test_deterministic_for_fixed_seed(self):
        a = simulate(self.SCEN, n=20_000, seed=42)
        b = simulate(self.SCEN, n=20_000, seed=42)
        assert np.array_equal(a.samples, b.samples)

    def test_different_seeds_differ(self):
        a = simulate(self.SCEN, n=1_000, seed=1)
        b = simulate(self.SCEN, n=1_000, seed=2)
        assert not np.array_equal(a.samples, b.samples)

    def test_quiet_tracked_beam_is_deterministic(self):
        scen = BeamScenario(
            wavelength=1.55e-6, w0=0.04, aperture=0.02, distance=1000.0,
            sigma_r2=0.0, tracking=True,
        )
        res = simulate(scen, n=500, seed=7)
        assert np.ptp(res.samples) == 0.0

    def test_samples_in_range_and_jensen(self):
        res = simulate(self.SCEN, n=50_000, seed=3)
        assert np.all((res.samples >= 0.0) & (res.samples <= 1.0))
        st = fading_stats(res.samples)
        assert st.mean_sqrt_eta**2 <= st.mean_eta <= st.mean_sqrt_eta
        assert 0.0 <= st.var_sqrt <= 0.25

    def test_metadata_contract(self):
        meta = sample_metadata(self.SCEN, 100, 9)
        assert meta["generator"] == "philox"
        assert meta["seed"] == 9
        assert meta["n"] == 100
        assert meta["scenario"]["distance"] == 1750.0
        assert meta["coefficient_table_version"]

    def test_mean_transmittance_non_increasing_in_turbulence(self):
        means, ses = [], []
        for sr2 in (0.05, 0.2, 0.5, 1.0):
            scen = BeamScenario(
                wavelength=1.55e-6, w0=0.04, aperture=0.02, distance=1500.0, sigma_r2=sr2
            )
            res = simulate(scen, n=30_000, seed=100)
            means.append(res.samples.mean())
            ses.append(res.samples.std() / math.sqrt(res.samples.size))
        for i in range(len(means) - 1):
            assert means[i + 1] <= means[i] + 3.0 * (ses[i] + ses[i + 1])

    def test_invalid_args(self):
        with pytest.raises(DomainError):
            simulate(self.SCEN, n=0, seed=1)
        with pytest.raises(DomainError):
            simulate(self.SCEN, n=10, seed=-1)


# --- the fixed quadrature rule of the rate commands ---------------------------

def link(**kw):
    return BeamScenario(**{"wavelength": 1.55e-6, "w0": 0.04, "aperture": 0.02, **kw})


def daily_links():
    """The `daily` geometry (2.2 km, 3 cm aperture) at the lowest and highest
    Cn^2 of the shipped series."""
    cn2 = read_cn2_csv(SCENARIOS / "prague-like.csv").cn2
    return [link(aperture=0.03, distance=2200.0, cn2=c) for c in (min(cn2), max(cn2))]


QUADRATURE_LINKS = [link(distance=d, sigma_r2=0.56) for d in (250.0, 1750.0, 3250.0)] + [
    link(distance=2200.0, sigma_r2=1.5),
    link(distance=1750.0, sigma_r2=0.56, tracking=True),
] + daily_links()
LINK_IDS = ["250m", "1750m", "3250m", "2200m-sr1.5", "tracking", "daily-low-cn2", "daily-high-cn2"]


@pytest.mark.parametrize("scen", QUADRATURE_LINKS, ids=LINK_IDS)
def test_quadrature_agrees_with_monte_carlo(scen):
    """Within 4 standard errors of 123 x 8192 samples, the errors by batch
    means over the Philox chunks."""
    chunks = simulate(scen, n=123 * beam._CHUNK, seed=90501).samples.reshape(123, beam._CHUNK)
    moments = fading_moments(scen)
    for f, want in ((lambda eta: eta, moments.mean_eta), (np.sqrt, moments.mean_sqrt_eta)):
        batch = f(chunks).mean(axis=1)
        se = batch.std(ddof=1) / math.sqrt(batch.size)
        assert abs(batch.mean() - want) <= 4.0 * se


@pytest.mark.parametrize("scen", QUADRATURE_LINKS + [link(distance=2200.0, sigma_r2=3.0)],
                         ids=LINK_IDS + ["2200m-sr3"])
def test_quadrature_converged(scen, monkeypatch):
    """Doubling the nodes on every axis moves neither moment by 1e-7."""
    moments = fading_moments(scen)
    monkeypatch.setattr(beam, "_rule_grid", functools.partial(uncached_rule_grid, *DOUBLED_RULE_NODES))
    doubled = fading_moments(scen)
    assert abs(doubled.mean_eta - moments.mean_eta) < 1e-7
    assert abs(doubled.mean_sqrt_eta - moments.mean_sqrt_eta) < 1e-7


@pytest.mark.parametrize("scen", [link(distance=1000.0, sigma_r2=0.0), link(distance=1000.0, cn2=0.0),
                                  link(distance=1000.0, sigma_r2=0.0, tracking=True)])
def test_quadrature_without_turbulence_is_the_deterministic_transmittance(scen):
    mu, _ = turbulence_gaussian_params(0.0, scen.fresnel_omega, scen.w0)
    eta = transmittance(EllipticSample(0.0, 0.0, mu[2], mu[2], 0.0), scen)
    moments = fading_moments(scen)
    assert moments.mean_eta == pytest.approx(eta, rel=1e-14)
    assert moments.mean_sqrt_eta == pytest.approx(math.sqrt(eta), rel=1e-14)


def test_quadrature_fading_variance_peaks():
    """Acceptance criterion 7's peak windows and levels hold on the quadrature
    Var(sqrt(eta)) too."""
    distances = np.arange(250.0, 3501.0, 250.0)
    for sr2, lo, hi, level in ((0.56, 1250.0, 2250.0, 2.7e-3), (0.25, 1500.0, 2500.0, 1.2e-3),
                               (0.09, 1750.0, 2750.0, 4.0e-4)):
        variances = [fading_moments(link(distance=float(d), sigma_r2=sr2)).var_sqrt for d in distances]
        i = int(np.argmax(variances))
        assert 0 < i < len(distances) - 1
        assert lo <= distances[i] <= hi
        assert level / 2.0 <= variances[i] <= 2.0 * level


# The node counts of the shipped rule in s, chi and each Theta coordinate, and
# of the rule that doubles them.
RULE_NODES = (24, 8, 8)
DOUBLED_RULE_NODES = tuple(2 * n for n in RULE_NODES)


def test_rule_literals_are_numpy_polynomials_rules():
    """The rule's 1-d nodes and weights, stored as literals, are the bits of
    numpy.polynomial's rules at the shipped counts."""
    want = (np.polynomial.legendre.leggauss(RULE_NODES[0]), np.polynomial.legendre.leggauss(RULE_NODES[1]),
            np.polynomial.hermite_e.hermegauss(RULE_NODES[2]))
    for half, (x, w) in zip((beam._S_RULE, beam._CHI_RULE, beam._THETA_RULE), want, strict=True):
        got_x, got_w = beam._symmetric(half)
        assert (got_x.tobytes(), got_w.tobytes()) == (x.tobytes(), w.tobytes())


def rule_factors(n_s, n_chi, n_theta):
    """The rule's 1-d nodes s, chi and z and their weights, the s weights with
    the Rayleigh density, built afresh on each call."""
    x, w_s = np.polynomial.legendre.leggauss(n_s)
    s = 3.0 * (1.0 + x)
    x, w_chi = np.polynomial.legendre.leggauss(n_chi)
    chi = 0.25 * math.pi * (1.0 + x)
    z, w_z = np.polynomial.hermite_e.hermegauss(n_theta)
    return (s, chi, z), (w_s * s * np.exp(-s * s), w_chi, w_z)


def uncached_rule_grid(n_s, n_chi, n_theta):
    """The rule's factored grid built afresh on each call: the reference for
    the cached one."""
    (s, chi, z), (w_s, w_chi, w_z) = rule_factors(n_s, n_chi, n_theta)
    z1, z2 = (a.ravel() for a in np.meshgrid(z, z, indexing="ij"))
    weights = np.multiply.outer(np.multiply.outer(np.multiply.outer(w_s, w_chi), w_z), w_z).ravel()
    return s, chi, np.stack([z1, z2], axis=1), weights


def full_grid_transmittance(scen, nodes):
    """The oracle for the factored rule: _transmittance_batch at every node of
    the full tensor grid, and the weights as a product over a meshgrid's axis 0."""
    (s, chi, z), factor_weights = rule_factors(*nodes)
    weights = np.prod(np.meshgrid(*factor_weights, factor_weights[2], indexing="ij"), axis=0).ravel()
    s, chi, z1, z2 = (a.ravel() for a in np.meshgrid(s, chi, z, z, indexing="ij"))
    var_bw, mean_theta, chol = beam._wander_and_theta(scen)
    th = mean_theta + np.stack([z1, z2], axis=1) @ chol.T
    r0 = math.sqrt(2.0 * var_bw) * s
    return beam._transmittance_batch(r0, np.zeros_like(r0), th[:, 0], th[:, 1], chi, scen), weights


def test_cached_rule_grid_is_the_rebuilt_one_and_read_only():
    grid = beam._rule_grid()
    assert beam._rule_grid() is grid
    for got, want in zip(grid, uncached_rule_grid(*RULE_NODES), strict=True):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0] = 0.0
    # the weights' products are taken in the order of np.prod over a meshgrid's axis 0
    _, factor_weights = rule_factors(*RULE_NODES)
    meshgrid = np.meshgrid(*factor_weights, factor_weights[2], indexing="ij")
    assert grid[3].tobytes() == np.prod(meshgrid, axis=0).ravel().tobytes()


@pytest.mark.parametrize("scen", [QUADRATURE_LINKS[1], daily_links()[1]], ids=["1750m", "daily-high-cn2"])
def test_cached_rule_gives_the_moments_of_a_rebuilt_one(scen, monkeypatch):
    cached = fading_moments(scen)
    monkeypatch.setattr(beam, "_rule_grid", functools.partial(uncached_rule_grid, *RULE_NODES))
    rebuilt = fading_moments(scen)
    assert (cached.mean_eta.hex(), cached.mean_sqrt_eta.hex()) == (rebuilt.mean_eta.hex(), rebuilt.mean_sqrt_eta.hex())


@pytest.mark.parametrize("scen, doubled", [(scen, False) for scen in QUADRATURE_LINKS] + [
    (link(distance=1000.0, sigma_r2=0.0), False),  # no turbulence: the Cholesky factor is 0
    (link(distance=1750.0, sigma_r2=0.56, aperture=4e-5), False),  # a = 1e-3 w0
    (link(distance=1750.0, sigma_r2=0.56, aperture=0.4), False),  # a = 10 w0
    (QUADRATURE_LINKS[1], True),
    (link(distance=1750.0, sigma_r2=0.56, w0=1e-3, aperture=1e197), False),  # a / w0 squares to inf
    (link(distance=1750.0, sigma_r2=0.56, aperture=1e-200), False),  # a / w0 squares to 0
], ids=LINK_IDS + ["no-turbulence", "a=1e-3w0", "a=10w0", "doubled-nodes",
                   "a2w0-overflows", "a2w0-underflows"])
def test_factored_rule_is_the_full_grid_oracle(scen, doubled, monkeypatch):
    """The rule, which runs the spot stage once per (chi, Theta) node, gives
    _transmittance_batch's bits at every node of the full grid, and the
    moments of those bits; or the oracle's error."""
    nodes = DOUBLED_RULE_NODES if doubled else RULE_NODES
    if doubled:
        monkeypatch.setattr(beam, "_rule_grid", functools.partial(uncached_rule_grid, *nodes))
    try:
        want, weights = full_grid_transmittance(scen, nodes)
    except DomainError as exc:
        with pytest.raises(DomainError, match=f"^{re.escape(str(exc))}$"):
            beam._transmittance_rule(scen)
        with pytest.raises(DomainError, match=f"^{re.escape(str(exc))}$"):
            fading_moments(scen)
        return
    eta, rule_weights = beam._transmittance_rule(scen)
    assert eta.tobytes() == want.tobytes() and rule_weights.tobytes() == weights.tobytes()
    moments = fading_moments(scen)
    assert moments.mean_eta == float(np.average(want, weights=weights))
    assert moments.mean_sqrt_eta == float(np.average(np.sqrt(want), weights=weights))


# --- the stages' working set, their inputs and their bits ---------------------

def test_sample_chunks_working_set():
    """Past the first chunk, drawing and evaluating fig3's beam 8192 samples at
    a time, with the previous chunk alive as a consumer keeps it, peaks below
    1.6 MB of heap: about 1.2 MB, and 2.18 MB when the stages held every
    intermediate to their end."""
    chunks = beam.sample_chunks(beam_scenario(load_scenario(SCENARIOS / "fig3.scenario")), 300_000, 1)
    next(chunks)
    tracemalloc.start()
    try:
        for _ in chunks:
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6e6, peak


def test_fading_moments_working_set():
    """After one warm call, the rule on fig3's link (_spot on 512 nodes,
    _aperture on 12 288) peaks below 0.35 MB of heap: about 0.3 MB."""
    scen = beam_scenario(load_scenario(SCENARIOS / "fig3.scenario"))
    fading_moments(scen)
    tracemalloc.start()
    try:
        fading_moments(scen)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.35e6, peak


# The stages as one expression per quantity: references for the tests only.
# _aperture, _spot, _eta0 and _transmittance_batch are written in this form;
# _scale_shape works in place and keeps its reference's bits, as any later
# in-place edit of a stage must.
def reference_scale_shape(z):
    small = z < beam._SMALL_Z
    if np.any(small):
        lnterm = np.empty_like(z)
        lam = np.full_like(z, 2.0)
        zs = z[small]
        lnterm[small] = 0.5 * zs - zs**2 / 8.0 + zs**3 / 96.0
        if not np.all(small):
            lnterm[~small], lam[~small] = reference_scale_shape(z[~small])
        return lnterm, lam
    m = bessel_i0e_minus_exp(z)
    d = -np.expm1(-z) - m
    lnterm = np.log1p((np.expm1(-0.5 * z) ** 2 + m) / d)
    return lnterm, 2.0 * z * bessel_i1e(z) / (d * lnterm)


def reference_eta0(e1, e2):
    u = np.abs(e1 - e2)
    t1 = bessel_i0e(u) * np.exp(u - (e1 + e2))
    s1, s2 = np.sqrt(e1), np.sqrt(e2)
    z = (s1 - s2) ** 2
    lnterm, lam = reference_scale_shape(z)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        qlam = ((s1 + s2) / np.abs(s1 - s2)) ** lam * lnterm
    small = z < beam._SMALL_Z
    if np.any(small):
        qlam[small] = ((s1[small] + s2[small]) / math.sqrt(2.0) * (1.0 - z[small] / 8.0)) ** 2
    t3 = -2.0 * np.expm1(-0.5 * z) * np.exp(-qlam)
    return 1.0 - t1 - t3


def reference_spot_inputs(theta1, theta2, cos2chi, scen):
    """e1 and e2, the arguments of _eta0, and log zeta, that of lambert_w_exp."""
    a2w0 = (scen.aperture / scen.w0) ** 2
    with np.errstate(over="ignore"):
        e1 = np.minimum(a2w0 * np.exp(-theta1), beam._E_MAX)
        e2 = np.minimum(a2w0 * np.exp(-theta2), beam._E_MAX)
    log_zeta = (math.log(4.0 * min(a2w0, beam._E_MAX)) - 0.5 * (theta1 + theta2)
                + e1 * (2.0 + cos2chi) + e2 * (2.0 - cos2chi))
    return e1, e2, log_zeta


def reference_spot(theta1, theta2, cos2chi, scen):
    e1, e2, log_zeta = reference_spot_inputs(theta1, theta2, cos2chi, scen)
    return (reference_eta0(e1, e2), *reference_scale_shape(lambert_w_exp(log_zeta)))


def reference_aperture(eta0, lnterm, shape, r0, a):
    with np.errstate(over="ignore"):
        return np.clip(eta0 * np.exp(-((r0 / a) ** shape) * lnterm), 0.0, 1.0)


def reference_transmittance_batch(x0, y0, theta1, theta2, phi, scen):
    spot = reference_spot(theta1, theta2, np.cos(2.0 * (phi - np.arctan2(y0, x0))), scen)
    return reference_aperture(*spot, np.hypot(x0, y0), scen.aperture)


def _calm(rng, n):
    """sigma_R^2 = 0: W1 = W2, so every z of _eta0 is 0, below _SMALL_Z."""
    scen = link(distance=1000.0, sigma_r2=0.0)
    mu, _ = turbulence_gaussian_params(0.0, scen.fresnel_omega, scen.w0)
    theta = np.full(n, mu[2])
    return scen, (np.zeros(n), np.zeros(n), theta, theta.copy(), rng.uniform(0.0, math.pi / 2.0, n))


def _wide_aperture(rng, n):
    """a = 10 w0: Bessel arguments beyond _SERIES_CUTOFF, the asymptotic branch."""
    scen = link(distance=1750.0, sigma_r2=0.56, aperture=0.4)
    return scen, _model_draws(scen, n, rng)


def _clamped(rng, n):
    """(a / w0)^2 = 1e262: every e = a^2 / W^2 clamped at _E_MAX."""
    scen = link(distance=1750.0, sigma_r2=0.56, w0=1e-3, aperture=1e128)
    return scen, _model_draws(scen, n, rng)


STAGE_CASES = {"calm": _calm, "mixed": _near_circular, "asymptotic": _wide_aperture, "clamped": _clamped}


def stage_inputs(scen, x0, y0, theta1, theta2, phi):
    """Each stage's arguments on one set of draws, by the reference stages."""
    cos2chi = np.cos(2.0 * (phi - np.arctan2(y0, x0)))
    e1, e2, log_zeta = reference_spot_inputs(theta1, theta2, cos2chi, scen)
    z_spot, z_eta0 = lambert_w_exp(log_zeta), (np.sqrt(e1) - np.sqrt(e2)) ** 2
    spot = reference_spot(theta1, theta2, cos2chi, scen)
    return [(beam._transmittance_batch, (x0, y0, theta1, theta2, phi, scen)),
            (beam._spot, (theta1, theta2, cos2chi, scen)),
            (beam._eta0, (e1, e2)),
            (beam._scale_shape, (z_spot,)),
            (beam._scale_shape, (z_eta0,)),
            (beam._aperture, (*spot, np.hypot(x0, y0), scen.aperture)),
            (lambert_w_exp, (log_zeta,)),
            *((f, (x,)) for f in (bessel_i0e, bessel_i1e, bessel_i0e_minus_exp)
              for x in (np.abs(e1 - e2), z_spot, z_eta0))]


REFERENCES = {beam._transmittance_batch: reference_transmittance_batch, beam._spot: reference_spot,
              beam._eta0: reference_eta0, beam._scale_shape: reference_scale_shape,
              beam._aperture: reference_aperture}


def assert_reference_bits(calls):
    """Each beam stage among (stage, arguments) calls gives its reference's bits."""
    def as_bytes(result):
        return [a.tobytes() for a in (result if isinstance(result, tuple) else (result,))]
    for f, args in calls:
        if f in REFERENCES:
            assert as_bytes(f(*args)) == as_bytes(REFERENCES[f](*args)), f.__name__


@pytest.mark.parametrize("case", STAGE_CASES)
def test_stage_cases_reach_their_branches(case):
    scen, (x0, y0, theta1, theta2, phi) = STAGE_CASES[case](np.random.default_rng(29), 200)
    e1, e2, log_zeta = reference_spot_inputs(theta1, theta2, np.cos(2.0 * (phi - np.arctan2(y0, x0))), scen)
    z_eta0 = (np.sqrt(e1) - np.sqrt(e2)) ** 2
    if case == "calm":
        assert np.all(z_eta0 < beam._SMALL_Z)
    elif case == "mixed":
        assert np.any(z_eta0 < beam._SMALL_Z) and np.any(z_eta0 >= beam._SMALL_Z)
    elif case == "asymptotic":
        assert np.any(np.abs(e1 - e2) >= _SERIES_CUTOFF) and np.any(lambert_w_exp(log_zeta) >= _SERIES_CUTOFF)
    else:
        assert np.all(e1 == beam._E_MAX) and np.all(e2 == beam._E_MAX)


@pytest.mark.parametrize("case", STAGE_CASES)
def test_stages_leave_their_inputs_unchanged(case):
    scen, params = STAGE_CASES[case](np.random.default_rng(29), 200)
    for f, args in stage_inputs(scen, *params):
        arrays = [a for a in args if isinstance(a, np.ndarray)]
        assert arrays and all(a.flags.writeable for a in arrays)
        before = [a.tobytes() for a in arrays]
        f(*args)
        assert [a.tobytes() for a in arrays] == before, f.__name__


@pytest.mark.parametrize("case", STAGE_CASES)
def test_stages_keep_the_bits_of_their_expression_forms(case):
    scen, params = STAGE_CASES[case](np.random.default_rng(29), 200)
    assert_reference_bits(stage_inputs(scen, *params))


STAGE_LINKS = [link(distance=1750.0, sigma_r2=0.56), link(distance=3000.0, sigma_r2=0.56, aperture=0.002),
               link(distance=1750.0, sigma_r2=0.56, aperture=0.4),
               link(distance=1750.0, sigma_r2=0.56, w0=1e-3, aperture=1e128)]


@settings(max_examples=100, deadline=None)
@given(theta1=st.lists(st.floats(-25.0, 12.0), min_size=1, max_size=30), data=st.data())
def test_stages_keep_their_bits_on_sampled_inputs(theta1, data):
    """Theta2 at a sampled offset from Theta1, 0 and tiny ones included, so
    that _eta0's z falls on both sides of _SMALL_Z."""
    n = len(theta1)
    column = functools.partial(st.lists, min_size=n, max_size=n)
    offset = data.draw(column(st.sampled_from([0.0, 1e-9, 1e-6, 1e-3]) | st.floats(-5.0, 5.0)))
    x0, y0 = (np.array(data.draw(column(st.floats(-0.1, 0.1)))) for _ in range(2))
    phi = np.array(data.draw(column(st.floats(0.0, math.pi / 2.0))))
    theta1 = np.array(theta1)
    assert_reference_bits(stage_inputs(data.draw(st.sampled_from(STAGE_LINKS)), x0, y0, theta1, theta1 + offset, phi))
