"""Transmittance of a turbulent free-space optical link.

The instantaneous beam at the receiver is an elliptic Gaussian spot described
by five parameters: centroid offsets (x0, y0), log-scaled squared semiaxes
(Theta1, Theta2) with W_i^2 = W0^2 exp(Theta_i), and the ellipse orientation
phi, uniform on [0, pi/2].  The single-shot aperture transmittance is

    eta = eta0 * exp( -[ (r0/a) / R(2/W_eff(phi - phi0)) ] ^ lambda(2/W_eff(phi - phi0)) )

with scale/shape functions R, lambda built from scaled Bessel I0/I1, an
effective spot radius W_eff obtained through the Lambert W function, and eta0
the centered-beam transmittance.  The turbulence statistics of (x0, y0,
Theta1, Theta2) rest on the five versioned coefficients below.

`sample_chunks` draws Monte Carlo samples of eta a chunk at a time, and
`simulate` collects them into one array.  Each stage writes into none of its
arguments and drops each array once used, and _eta0 computes its first term
last; so a chunk of 8192 samples is drawn and evaluated in about 1.2 MB of
heap.  Only _scale_shape and specialfn's series Bessel functions work in place,
where expressions would raise that peak by 0.07 to 0.26 MB; every other
quantity is one expression.
`fading_moments` computes <eta> and <sqrt(eta)>, all that a key rate needs,
by one fixed tensor Gauss rule: _spot on its 512 (chi, Theta) nodes,
_aperture on all 12 288.
"""
from __future__ import annotations

import functools
import math
from dataclasses import asdict, astuple, dataclass

import numpy as np

from .channel import FadingStats
from .errors import DomainError, NumericalFailure
from .specialfn import bessel_i0e, bessel_i0e_minus_exp, bessel_i1e, lambert_w_exp

GENERATOR_NAME = "philox"

_CHUNK = 8192          # samples per generator chunk
_CHUNK_STRIDE = 2**40  # Philox counter stride between chunks (>> draws used)
# fading_moments' 1-d rules, each the positive half (nodes, weights) of a rule
# symmetric to the bit: Gauss-Legendre with 24 nodes in s and 8 in chi, and
# probabilists' Gauss-Hermite with 8 in each Theta coordinate (_spot's nodes
# are all but s).  They are the float64 values of numpy.polynomial's
# leggauss(24), leggauss(8) and hermegauss(8), to which tests/test_beam.py pins
# them; a finer rule is regenerated from those functions.  Doubling every count
# moves no moment by more than 1e-9 on the links of tests/test_beam.py, and on
# those only: against a (192, 32, 32) rule, 30 of 288 other plausible links are
# off by more, up to 2.4e-7 in <eta>, the Theta rule the limit.
_S_RULE = ((0.06405689286260563, 0.1911188674736163, 0.3150426796961634, 0.4337935076260451,
            0.5454214713888396, 0.6480936519369755, 0.7401241915785544, 0.820001985973903,
            0.8864155270044011, 0.9382745520027328, 0.9747285559713095, 0.9951872199970213),
           (0.12793819534675202, 0.12583745634682825, 0.1216704729278033, 0.11550566805372552,
            0.10744427011596556, 0.09761865210411393, 0.0861901615319532, 0.07334648141108016,
            0.05929858491543636, 0.04427743881741941, 0.02853138862893356, 0.01234122979998869))
_CHI_RULE = ((0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362),
             (0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706))
_THETA_RULE = ((0.5390798113513751, 1.636519042435108, 2.8024858612875416, 4.1445471861258945),
               (0.9350030718823198, 0.2938768674600929, 0.02415191518706137, 0.00028228278602621435))
# below this z = a^2 xi^2, series stand in for L and lambda, and the W1 -> W2
# limit for eta0's last term; their truncation errors are then below 1e-17
# relative in L and lambda and 1e-17 absolute in eta0
_SMALL_Z = 1e-5
# _spot clamps a^2 / W^2 here: a centred spot passes whole (eta0 = 1 to the
# last bit) from a^2 / W^2 ~ 40 on, lambda ~ 1e125 makes the aperture stage a
# step at r0 = a as any larger value does, and no sum or Bessel term overflows
_E_MAX = 1e250

# Gaussian moments of the elliptic-beam parameter vector (x0, y0, Theta1,
# Theta2) for a beam focused at the receiver plane propagating through
# isotropic Kolmogorov turbulence.  Vacuum limit of the spread is the focused-beam
# diffraction W(L) = W0 / Omega, Omega = k W0^2 / (2 L).
# Moments are polynomial in S = RYTOV_NORMALIZATION * sigma_R^2 * Omega^(5/6);
# RYTOV_NORMALIZATION converts the plane-wave Rytov variance used throughout
# this package (1.23 Cn^2 k^(7/6) L^(11/6)) to the spherical-wave
# normalization (prefactor 0.5) in which the coefficients are calibrated.
# Per-axis centroid-wander variance is CENTROID_WANDER * W0^2 * S_w with
# S_w = RYTOV_NORMALIZATION * sigma_R^2 * Omega^(-7/6); tracking zeroes it.
#   mean(Theta)   = ln[ Omega^-2 (1+gS)^2 / sqrt((1+gS)^2 + vS) ]
#   var(Theta)    = ln[ 1 + vS / (1+gS)^2 ]
#   cov(Th1,Th2)  = ln[ 1 - cS / (1+gS)^2 ]
# with g = THETA_GAIN, v = THETA_VARIANCE, c = THETA_COVARIANCE.  `sample_metadata`
# records COEFFICIENT_TABLE_VERSION in a sample file's sidecar.
COEFFICIENT_TABLE_VERSION = "elliptic-focused-2024.1"
RYTOV_NORMALIZATION = 0.4065040650406504
CENTROID_WANDER = 0.33
THETA_GAIN = 2.96
THETA_VARIANCE = 1.2
THETA_COVARIANCE = 0.8


def rytov(cn2: float, k: float, distance: float) -> float:
    """Rytov variance 1.23 Cn^2 k^(7/6) L^(11/6) (plane-wave normalization)."""
    if cn2 < 0 or k <= 0 or distance <= 0:
        raise DomainError("rytov requires cn2 >= 0 and positive k, distance")
    return 1.23 * cn2 * k ** (7.0 / 6.0) * distance ** (11.0 / 6.0)


@dataclass(frozen=True)
class BeamScenario:
    """Geometry and turbulence strength of one free-space link.

    Lengths in meters.  Exactly one of cn2 / sigma_r2 must be given; cn2 is
    converted through the Rytov power law.  tracking=True models receiver-side
    beam tracking (centroid wander suppressed).
    """

    wavelength: float
    w0: float
    aperture: float
    distance: float
    cn2: float | None = None
    sigma_r2: float | None = None
    tracking: bool = False

    def __post_init__(self):
        for name in ("wavelength", "w0", "aperture", "distance"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be > 0")
        if (self.cn2 is None) == (self.sigma_r2 is None):
            raise DomainError("give exactly one of cn2 / sigma_r2")
        if self.cn2 is not None and self.cn2 < 0:
            raise DomainError("cn2 must be >= 0")
        if self.sigma_r2 is not None and self.sigma_r2 < 0:
            raise DomainError("sigma_r2 must be >= 0")

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi / self.wavelength

    @property
    def fresnel_omega(self) -> float:
        """Omega = k W0^2 / (2 L)."""
        return self.wavenumber * self.w0**2 / (2.0 * self.distance)

    @property
    def rytov_variance(self) -> float:
        if self.sigma_r2 is not None:
            return self.sigma_r2
        return rytov(self.cn2, self.wavenumber, self.distance)


@dataclass(frozen=True)
class EllipticSample:
    """One realization of the beam-shape parameter vector."""

    x0: float
    y0: float
    theta1: float
    theta2: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.phi <= math.pi / 2:
            raise DomainError(f"phi must lie in [0, pi/2], got {self.phi}")


def turbulence_gaussian_params(sigma_r2: float, omega: float, w0: float, tracking: bool = False):
    """Mean vector and covariance of v = (x0, y0, Theta1, Theta2), the centroid
    zero-mean and isotropic, by the formulas above.  Raises DomainError where a
    moment leaves the float range."""
    if sigma_r2 < 0 or omega < 0 or w0 <= 0:  # omega = 0 (an underflow) is reported below
        raise DomainError("turbulence_gaussian_params requires sigma_r2 >= 0, omega >= 0, w0 > 0")
    norm = RYTOV_NORMALIZATION
    try:
        s = norm * sigma_r2 * omega ** (5.0 / 6.0)
        base = (1.0 + THETA_GAIN * s) ** 2
        mean_theta = math.log(base / (omega**2 * math.sqrt(base + THETA_VARIANCE * s)))
        var_theta = math.log1p(THETA_VARIANCE * s / base)
        cov_theta = math.log1p(-THETA_COVARIANCE * s / base)
        var_bw = 0.0 if tracking else CENTROID_WANDER * w0**2 * norm * sigma_r2 * omega ** (-7.0 / 6.0)
        moments = (mean_theta, var_theta, cov_theta, var_bw)
    except (OverflowError, ZeroDivisionError, ValueError):  # ValueError: the log of an underflowed 0
        moments = (math.nan,)
    if not all(map(math.isfinite, moments)):
        raise DomainError(f"Rytov variance {sigma_r2:g} and Fresnel parameter {omega:g} "
                          "put the beam's turbulence moments beyond the float range")

    mu = np.array([0.0, 0.0, mean_theta, mean_theta])
    cov = np.zeros((4, 4))
    cov[0, 0] = cov[1, 1] = var_bw
    cov[2, 2] = cov[3, 3] = var_theta
    cov[2, 3] = cov[3, 2] = cov_theta
    return mu, cov


def _wander_and_theta(scenario: BeamScenario):
    """Centroid-wander variance, mean Theta and the Cholesky factor of the
    (Theta1, Theta2) covariance, zero when there is no turbulence."""
    try:
        sigma_r2, omega = scenario.rytov_variance, scenario.fresnel_omega
    except OverflowError:
        raise DomainError("the beam geometry puts the Rytov variance or the Fresnel "
                          "parameter beyond the float range") from None
    mu, cov = turbulence_gaussian_params(sigma_r2, omega, scenario.w0, tracking=scenario.tracking)
    chol = np.linalg.cholesky(cov[2:, 2:]) if cov[2, 2] > 0 else np.zeros((2, 2))
    return cov[0, 0], mu[2], chol


def _scale_shape(z):
    """Log term L(z) and shape lambda(z) with z = a^2 xi^2 (dimensionless).

    L(z)      = ln(2 (1 - e^(-z/2)) / D(z)),  D(z) = 1 - e^-z I0(z)
    lambda(z) = 2 z e^-z I1(z) / (D(z) L(z))
    The scale is R(z) = L^(-1/lambda), so (x/R)^lambda = x^lambda L.  With
    M = e^-z (I0(z) - 1), D = (1 - e^-z) - M and the excess
    2 (1 - e^(-z/2)) - D = (1 - e^(-z/2))^2 + M are free of cancellation, so L
    = log1p(excess / D) keeps full precision as z -> 0, where L ~ z/2.  Below
    _SMALL_Z series take over (lambda -> 2), since at z = 0 the ratios are 0/0.
    """
    small = z < _SMALL_Z
    if np.any(small):
        # the large z first, so that its temporaries and the full arrays are not live at once
        large = None if np.all(small) else _scale_shape(z[~small])
        lnterm, lam = np.empty_like(z), np.full_like(z, 2.0)
        zs = z[small]
        lnterm[small] = 0.5 * zs - zs**2 / 8.0 + zs**3 / 96.0
        if large is not None:
            lnterm[~small], lam[~small] = large
        return lnterm, lam
    # in place: as one expression each, D, L and lambda raise a chunk's heap peak from 1.20 to 1.46 MB
    m = bessel_i0e_minus_exp(z)
    d = np.negative(z)
    np.negative(np.expm1(d, out=d), out=d)
    d -= m  # D = (1 - e^-z) - M
    lnterm = np.multiply(-0.5, z)
    np.square(np.expm1(lnterm, out=lnterm), out=lnterm)
    lnterm += m
    del m
    lnterm /= d
    np.log1p(lnterm, out=lnterm)
    lam = bessel_i1e(z)
    lam *= 2.0 * z
    d *= lnterm
    lam /= d  # 2 z e^-z I1(z) / (D L)
    return lnterm, lam


def _eta0(e1, e2):
    """Centered-beam transmittance of an elliptic Gaussian spot through a disk,
    from e_i = a^2 / W_i^2."""
    s1, s2 = np.sqrt(e1), np.sqrt(e2)  # a / W_i
    z, sp, g = (s1 - s2) ** 2, s1 + s2, np.abs(s1 - s2)
    del s1, s2
    lnterm, lam = _scale_shape(z)
    # q^lambda = (G/R)^lambda = G^lambda L with G = (W1+W2)/|W1-W2| = (s1+s2)/|s1-s2|
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # G = inf at W1 = W2: replaced below
        qlam = (sp / g) ** lam * lnterm
    del g, lnterm, lam
    small = z < _SMALL_Z
    if np.any(small):
        # G and R both diverge as W2 -> W1: closed-form limit of G/R, squared (lambda = 2)
        qlam[small] = (sp[small] / math.sqrt(2.0) * (1.0 - z[small] / 8.0)) ** 2
    del sp
    t3 = -2.0 * np.expm1(-0.5 * z) * np.exp(-qlam)
    del z, qlam
    # the first term last, so that its arrays are not live across _scale_shape
    u = np.abs(e1 - e2)
    t1 = bessel_i0e(u) * np.exp(u - (e1 + e2))  # I0(u) e^-v without overflow (v = e1 + e2 >= u)
    return 1.0 - t1 - t3


def _spot(theta1, theta2, cos2chi, scenario: BeamScenario):
    """The spot stage: eta0, L and lambda, the part of eta free of r0."""
    a = scenario.aperture
    try:
        a2w0 = (a / scenario.w0) ** 2
        log_4a2w0 = math.log(4.0 * min(a2w0, _E_MAX))
    except (OverflowError, ValueError):  # the square overflows, or underflows to 0
        raise DomainError(f"aperture / w0 = {a / scenario.w0:g} squares beyond the float range") from None
    with np.errstate(over="ignore"):  # inf for a huge aperture: clamped
        e1 = np.minimum(a2w0 * np.exp(-theta1), _E_MAX)  # a^2 / W1^2
        e2 = np.minimum(a2w0 * np.exp(-theta2), _E_MAX)
    # W_eff^2(chi) = 4 a^2 / W(zeta); zeta handled in log form so the huge
    # exponentials of narrow beams never overflow; 1 + 2 cos^2 = 2 + cos 2chi
    log_zeta = (log_4a2w0 - 0.5 * (theta1 + theta2)
                + e1 * (2.0 + cos2chi) + e2 * (2.0 - cos2chi))
    eta0 = _eta0(e1, e2)
    del e1, e2
    z = lambert_w_exp(log_zeta)  # = 4 a^2 / W_eff^2
    del log_zeta
    return (eta0, *_scale_shape(z))


def _aperture(eta0, lnterm, shape, r0, a):
    """The aperture stage: eta from _spot's output and r0, which broadcasts
    against them."""
    with np.errstate(over="ignore"):  # (r0 / a)^shape = inf far outside a tiny aperture: eta = 0
        eta = eta0 * np.exp(-((r0 / a) ** shape) * lnterm)
    if not np.all(np.isfinite(eta)):
        raise NumericalFailure("transmittance evaluation produced non-finite values")
    return np.clip(eta, 0.0, 1.0)


def _transmittance_batch(x0, y0, theta1, theta2, phi, scenario: BeamScenario):
    """Single-shot transmittance of per-sample arrays, which it leaves unchanged."""
    spot = _spot(theta1, theta2, np.cos(2.0 * (phi - np.arctan2(y0, x0))), scenario)
    return _aperture(*spot, np.hypot(x0, y0), scenario.aperture)


def transmittance(sample: EllipticSample, scenario: BeamScenario) -> float:
    """Single-shot aperture transmittance of one beam realization."""
    return float(_transmittance_batch(*np.array(astuple(sample))[:, None], scenario)[0])


@dataclass(frozen=True)
class SimulationResult:
    samples: np.ndarray


def _chunk_generator(seed: int, chunk_index: int) -> np.random.Generator:
    bg = np.random.Philox(key=seed)
    bg.advance(chunk_index * _CHUNK_STRIDE)
    return np.random.Generator(bg)


def sample_metadata(scenario: BeamScenario, n: int, seed: int) -> dict:
    """What defines the samples of (scenario, n, seed): the sidecar of a sample file."""
    return {"generator": GENERATOR_NAME, "seed": int(seed), "n": int(n), "chunk_size": _CHUNK,
            "scenario": asdict(scenario), "coefficient_table_version": COEFFICIENT_TABLE_VERSION}


def sample_chunks(scenario: BeamScenario, n: int, seed: int):
    """An iterator over n transmittance samples, one chunk array of up to
    _CHUNK samples at a time, each from its own counter-advanced Philox
    stream; this layout defines the sample values.  n, seed and the
    turbulence moments are checked here, before the first chunk is drawn."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if not 0 <= int(seed) < 2**64:
        raise DomainError("seed must fit in 64 bits")
    var_bw, mean_theta, chol = _wander_and_theta(scenario)

    def chunks():
        for ci, lo in enumerate(range(0, n, _CHUNK)):
            yield _sample_chunk(int(seed), ci, min(_CHUNK, n - lo), var_bw, mean_theta, chol, scenario)

    return chunks()


def _sample_chunk(seed, ci, m, var_bw, mean_theta, chol, scenario):
    """The m samples of chunk ci.  Its arrays are this call's locals, so none
    outlives the chunk."""
    rng = _chunk_generator(seed, ci)
    zn = rng.standard_normal((m, 4))
    x0 = math.sqrt(var_bw) * zn[:, 0]
    y0 = math.sqrt(var_bw) * zn[:, 1]
    th = zn[:, 2:4] @ chol.T
    th += mean_theta
    del zn
    phi = rng.uniform(0.0, math.pi / 2.0, m)
    return _transmittance_batch(x0, y0, th[:, 0], th[:, 1], phi, scenario)


def simulate(scenario: BeamScenario, n: int, seed: int) -> SimulationResult:
    """Draw n transmittance samples; a pure function of (scenario, n, seed).
    The samples are sample_chunks' chunks, end to end; sample_metadata(scenario,
    n, seed) says what defines them."""
    samples = np.empty(n)
    lo = 0
    for chunk in sample_chunks(scenario, n, seed):
        samples[lo:lo + chunk.size] = chunk
        lo += chunk.size
    return SimulationResult(samples=samples)


def _symmetric(half):
    """A symmetric rule's ascending nodes and their weights from its positive half."""
    x, w = np.array(half)
    return np.concatenate((-x[::-1], x)), np.concatenate((w[::-1], w))


@functools.cache
def _rule_grid():
    """The scenario-independent factors of fading_moments' rule, built once per
    process from the 1-d rules above: s, chi, the standard-normal Theta pairs z and the weights up to
    a common factor (s slowest, z fastest), all read-only.

    r0 = sqrt(2 var_bw) s, s Rayleigh: Gauss-Legendre in s with the density
    2 s e^-s^2 in the weights (Laguerre in s^2 converges only algebraically:
    r0^lambda is not analytic there at 0).  chi, uniform: Gauss-Legendre.
    Theta: probabilists' Gauss-Hermite in each coordinate.
    """
    x, w_s = _symmetric(_S_RULE)
    s = 3.0 * (1.0 + x)  # on [0, 6]: the Rayleigh mass beyond is e^-36
    x, w_chi = _symmetric(_CHI_RULE)
    chi = 0.25 * math.pi * (1.0 + x)
    z, w_z = _symmetric(_THETA_RULE)
    outer = np.multiply.outer  # np.prod(np.meshgrid(...))'s order
    weights = outer(outer(outer(w_s * s * np.exp(-s * s), w_chi), w_z), w_z).ravel()
    grid = (s, chi, np.stack([np.repeat(z, z.size), np.tile(z, z.size)], axis=1), weights)
    for a in grid:
        a.flags.writeable = False
    return grid


def _transmittance_rule(scenario: BeamScenario):
    """Transmittance at the nodes of the fixed tensor Gauss rule, and their
    weights up to a common factor.

    eta depends on (x0, y0) only through r0 and chi = phi - atan2(y0, x0), so
    nodes at y0 = 0, phi = chi are exact.  Theta goes through the Cholesky
    factor of its covariance.
    """
    var_bw, mean_theta, chol = _wander_and_theta(scenario)
    s, chi, z, weights = _rule_grid()
    th = np.tile(mean_theta + z @ chol.T, (chi.size, 1))
    spot = _spot(th[:, 0], th[:, 1], np.repeat(np.cos(2.0 * chi), len(z)), scenario)
    r0 = math.sqrt(2.0 * var_bw) * s[:, None]  # against the spot's values: s slowest
    return _aperture(*spot, r0, scenario.aperture).ravel(), weights


def fading_moments(scenario: BeamScenario) -> FadingStats:
    """<eta> and <sqrt(eta)> by the fixed tensor Gauss rule, with no seed and no sample count."""
    eta, weights = _transmittance_rule(scenario)
    return FadingStats(float(np.average(eta, weights=weights)),
                       float(np.average(np.sqrt(eta), weights=weights)))
