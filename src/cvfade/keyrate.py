"""Mutual information, Holevo bounds and secure key rates under collective attacks.

The adversary is assumed to purify everything outside the trusted modes, so
both Holevo bounds reduce to entropy differences of the trusted state before
and after the reference party's measurement.  Rates are in bits per channel
use; negative rates are reported, never clipped.

`key_rates` computes a whole batch of points as stacked covariance arrays
(Weedbrook et al., Rev. Mod. Phys. 84, 621 (2012)); `key_rate` is a batch of
one.  `mutual_information`, `holevo_rr` and `holevo_dr` compute I_AB and chi
one CovarianceMatrix at a time; `key_rate_equivalent_fixed` runs them through
the equivalent fixed channel as an independent check of the state and its
entropies.  Both routes turn I_AB and chi into rates through one function,
so sifting, the finite-size correction and the flags are written once.

Errors: `key_rates` raises at the first failed check and re-runs a failing
batch point by point, so the error never depends on how points were batched.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gaussian
from .channel import CompositeChannel, apply_composite_stack, apply_equivalent_fixed
from .errors import CvfadeError, DegenerateInput, DomainError, InternalError, NumericalFailure, check_batch
from .gaussian import CovarianceMatrix, X, condition_on_heterodyne_record, condition_on_homodyne
from .sources import DIRECT, REVERSE, ProtocolParams, build_source, build_source_stack

_CHI_FLOOR = -1e-9  # a Holevo value below this and below rounding's reach is a logic error (_check_holevo)
_LN2 = math.log(2.0)
_EPS = np.finfo(float).eps

# the sender's heterodyne: balanced beamsplitter mixing mode 0 with a vacuum mode 1
_R = 1.0 / math.sqrt(2.0)
_SPLITTER = np.array(
    [
        [_R, 0.0, _R, 0.0],
        [0.0, _R, 0.0, _R],
        [-_R, 0.0, _R, 0.0],
        [0.0, -_R, 0.0, _R],
    ]
)
_SPLITTER.flags.writeable = False


@dataclass(frozen=True)
class FiniteSizeParams:
    """Finite-block correction parameters.

    n: total block size; eps_bar: smoothing security parameter;
    key_fraction: fraction of the block kept for key extraction.
    """

    n: float
    eps_bar: float = 1e-10
    key_fraction: float = 1.0

    def __post_init__(self):
        if self.n < 1e3:
            raise DomainError(f"block size must be >= 1e3, got {self.n}")
        if not 0.0 < self.eps_bar < 1.0:
            raise DomainError("eps_bar must lie in (0, 1)")
        if not 0.0 < self.key_fraction <= 1.0:
            raise DomainError("key_fraction must lie in (0, 1]")


def finite_size_penalty(n: float, eps_bar: float = 1e-10) -> float:
    """Block-size penalty Delta(n) = 7 sqrt(log2(2/eps_bar) / n)."""
    if n <= 0:
        raise DomainError("n must be positive")
    return 7.0 * math.sqrt(math.log2(2.0 / eps_bar) / n)


@dataclass(frozen=True)
class KeyRateResult:
    """Key-rate decomposition plus diagnostics for one protocol/channel point."""

    i_ab: float
    chi: float
    rate_asymptotic: float
    rate_finite: float | None = None
    diagnostics: dict | None = None

    def __post_init__(self):
        if self.diagnostics and "beta" in self.diagnostics:
            expected = self.diagnostics["beta"] * self.i_ab - self.chi
            if expected != self.rate_asymptotic:
                raise InternalError("rate_asymptotic must equal beta * i_ab - chi exactly")


@dataclass(frozen=True)
class KeyRates:
    """Key-rate decomposition of a batch of points, one array element per point.

    rate_finite is None without finite-size parameters.  The block size and
    the other inputs are the caller's; they are not echoed here.
    """

    i_ab: np.ndarray
    chi: np.ndarray
    rate_asymptotic: np.ndarray
    rate_finite: np.ndarray | None
    dr_low_transmittance: np.ndarray
    beta: float

    def flags(self, k: int) -> list[str]:
        """Point k's flags."""
        return ["dr_low_transmittance"] if self.dr_low_transmittance[k] else []

    def result(self, k: int) -> KeyRateResult:
        """Point k as a KeyRateResult."""
        return KeyRateResult(
            i_ab=float(self.i_ab[k]),
            chi=float(self.chi[k]),
            rate_asymptotic=float(self.rate_asymptotic[k]),
            rate_finite=None if self.rate_finite is None else float(self.rate_finite[k]),
            diagnostics={"beta": self.beta, "flags": self.flags(k)},
        )


def _entropies(nus: np.ndarray) -> np.ndarray:
    """Von Neumann entropy in bits per point: the sum of gaussian.entropy_g over a spectrum."""
    h = 0.5 * (nus - 1.0)
    g = (1.0 + h) * np.log1p(h) / _LN2 - h * np.log(h) / _LN2
    return np.where(h > 0.0, g, 0.0).sum(axis=-1)


def _check_holevo(holevo: np.ndarray, total: np.ndarray, conditioned: np.ndarray):
    """Raise InternalError at the first point whose Holevo value lies below
    -max(1e-9, B).  B bounds the entropy that rounding gives the two
    near-pure states: an error of eps |gamma| moves each nu^2 by about
    eps |gamma|^2, so B sums g(1 + eps (tr gamma)^2) over the modes of both.
    B is computed only at points already below -1e-9."""
    low = holevo < _CHI_FLOOR
    if low.any():
        rounding = 0.0
        for stack in (total[low], conditioned[low]):
            trace = np.trace(stack, axis1=1, axis2=2)
            rounding = rounding + stack.shape[-1] // 2 * _entropies(1.0 + _EPS * trace[:, None] ** 2)
        floor = np.full(holevo.shape, _CHI_FLOOR)
        floor[low] = np.minimum(_CHI_FLOOR, -rounding)
        check_batch(holevo < floor, lambda k: InternalError(f"Holevo bound came out {float(holevo[k])} < {float(floor[k]):.3g}"))


def _condition_on_x(stack: np.ndarray, mode: int) -> np.ndarray:
    """Remaining modes after an X homodyne on `mode`, per point (Schur complement)."""
    i = 2 * mode
    keep = [k for k in range(stack.shape[-1]) if k not in (i, i + 1)]
    rest = stack[:, keep][:, :, keep]
    sigma = stack[:, keep, i]
    inv = 1.0 / stack[:, i, i]  # pseudoinverse of the projected block
    check_batch(~np.isfinite(inv), NumericalFailure("degenerate pseudoinverse in homodyne conditioning"))
    out = rest - (sigma * inv[:, None])[:, :, None] * sigma[:, None, :]
    return 0.5 * (out + out.transpose(0, 2, 1))


def _split_sender_mode_stack(stack: np.ndarray) -> np.ndarray:
    """_split_sender_mode per point: a vacuum mode 1 mixed with mode 0."""
    n, d, _ = stack.shape
    ext = np.zeros((n, d + 2, d + 2))
    ext[:, 2, 2] = ext[:, 3, 3] = 1.0
    outer = np.r_[0, 1, 4 : d + 2]
    ext[:, outer[:, None], outer] = stack
    s = np.eye(d + 2)
    s[0:4, 0:4] = _SPLITTER
    ext = s @ ext @ s.T
    return 0.5 * (ext + ext.transpose(0, 2, 1))


def _receiver_variance_given_sender(state: np.ndarray, coherent: bool) -> np.ndarray:
    """V_B|A per point: the receiver's X variance given the sender's X
    homodyne (b=0) or the X half of its heterodyne record (b=1)."""
    v_b = state[:, -2, -2]
    sigma = state[:, -2, 0]
    if coherent:
        return v_b - (sigma * sigma) / (state[:, 0, 0] + 1.0)
    inv = 1.0 / state[:, 0, 0]
    check_batch(~np.isfinite(inv), NumericalFailure("degenerate pseudoinverse in homodyne conditioning"))
    return v_b - (sigma * inv) * sigma


def _information_terms(protocol: ProtocolParams, chans, v_s: np.ndarray, v_m: np.ndarray):
    """(I_AB, chi) per point before sifting, raising at the first failed check.

    Checks run in the order of the single-state route; the error raised is
    that of the first check any point fails.
    """
    check_batch(~((0.0 < v_s) & (v_s <= 1.0)), lambda k: DomainError(f"v_s must be in (0, 1], got {float(v_s[k])}"))
    check_batch(v_m < 0.0, lambda k: DomainError(f"v_m must be >= 0, got {float(v_m[k])}"))
    if protocol.is_coherent:
        check_batch(v_s != 1.0, DomainError("both-quadrature modulation (b=1) requires v_s = 1"))
    # a non-finite source entry stays non-finite through the channel, and
    # symplectic_spectra checks the state's entries before anything else
    state = apply_composite_stack(build_source_stack(protocol, v_s, v_m), chans)
    s_total = _entropies(gaussian.symplectic_spectra(state))

    # I_AB = 1/2 log2(V_B / V_B|A) on the receiver's X
    v_b = state[:, -2, -2]
    v_b_given_a = _receiver_variance_given_sender(state, protocol.is_coherent)
    check_batch(~np.isfinite(v_b_given_a), DomainError("covariance matrix entries must be finite"))
    check_batch(v_b_given_a <= 0.0, lambda k: DegenerateInput(f"conditional variance {float(v_b_given_a[k])} <= 0"))
    mi = np.where(v_m == 0.0, 0.0, 0.5 * np.log2(v_b / v_b_given_a))

    # chi = S(trusted state) - S(remainder | reference party's X data)
    if protocol.reconciliation == REVERSE:
        conditioned = _condition_on_x(state, state.shape[-1] // 2 - 1)
    elif protocol.is_coherent:
        conditioned = _condition_on_x(_split_sender_mode_stack(state), 0)
    else:
        conditioned = _condition_on_x(state, 0)
    holevo = s_total - _entropies(gaussian.symplectic_spectra(conditioned))
    _check_holevo(holevo, state, conditioned)
    return mi, holevo


def _assemble(protocol: ProtocolParams, chans, finites, mi: np.ndarray, holevo: np.ndarray) -> KeyRates:
    """Key rates from each point's I_AB and Holevo bound before sifting.

    The rate policy shared by key_rates and key_rate_equivalent_fixed:
    sifting, chi clipped at 0, beta, the finite-size penalty and key
    fraction, and the direct-reconciliation flag.  `chans` and `finites`
    hold one entry per point or one for every point.
    """
    i_ab = protocol.sifting * mi
    chi = protocol.sifting * np.maximum(holevo, 0.0)
    rate_finite = None
    if finites[0] is not None:
        delta = np.array([finite_size_penalty(f.n, f.eps_bar) for f in finites])
        key_fraction = np.array([f.key_fraction for f in finites])
        rate_finite = key_fraction * (protocol.beta * i_ab - chi - delta)
    dr_low = np.zeros(mi.size, dtype=bool)
    if protocol.reconciliation == DIRECT:
        # direct reconciliation is generally insecure below mean transmittance 1/2
        dr_low |= np.array([ch.mean_transmittance <= 0.5 for ch in chans])
    return KeyRates(
        i_ab=i_ab,
        chi=chi,
        rate_asymptotic=protocol.beta * i_ab - chi,
        rate_finite=rate_finite,
        dr_low_transmittance=dr_low,
        beta=protocol.beta,
    )


def key_rates(
    protocol: ProtocolParams,
    chan,
    finite=None,
    v_s=None,
    v_m=None,
) -> KeyRates:
    """Secure key rates of one protocol variant at a batch of points.

    `chan` is one CompositeChannel or a sequence of them, one per point;
    `finite` is None, one FiniteSizeParams or one per point; `v_s` and `v_m`
    give each point's source variances and default to the protocol's own.
    Inputs of length one apply to every point.

    The source states, the channel and both Holevo conditionings run as
    stacked arrays.  A point's result depends on its own inputs only: element
    k equals, bit for bit, the batch of one at the same inputs.

    Every check of the single-state route runs, and the batch raises at the
    first one that fails.  A failing batch of several points is then re-run
    point by point: the lowest failing point raises its own first error, the
    one key_rate raises at that point alone.
    """
    chans = (chan,) if isinstance(chan, CompositeChannel) else tuple(chan)
    finites = (finite,) if finite is None or isinstance(finite, FiniteSizeParams) else tuple(finite)
    v_s = np.atleast_1d(np.asarray(protocol.v_s if v_s is None else v_s, dtype=float))
    v_m = np.atleast_1d(np.asarray(protocol.v_m if v_m is None else v_m, dtype=float))
    try:
        (n,) = np.broadcast_shapes(v_s.shape, v_m.shape, (len(chans),), (len(finites),))
    except ValueError as exc:
        raise DomainError("batch inputs must have one value or one per point") from exc
    v_s = np.broadcast_to(v_s, (n,))
    v_m = np.broadcast_to(v_m, (n,))

    with np.errstate(all="ignore"):
        try:
            mi, holevo = _information_terms(protocol, chans, v_s, v_m)
        except CvfadeError:
            if n == 1:
                raise
            for k in range(n):
                _information_terms(protocol, (chans[k % len(chans)],), v_s[k : k + 1], v_m[k : k + 1])
            raise

    return _assemble(protocol, chans, finites, mi, holevo)


def key_rate(
    protocol: ProtocolParams,
    chan: CompositeChannel,
    finite: FiniteSizeParams | None = None,
) -> KeyRateResult:
    """Secure key rate of one protocol over one composite channel.

    key_rates at a single point.  rate_asymptotic = beta I_AB - chi; with
    finite-size parameters, rate_finite = key_fraction * (beta I_AB - chi -
    Delta(n)).
    """
    return key_rates(protocol, chan, finite).result(0)


def _split_sender_mode(gamma: CovarianceMatrix) -> CovarianceMatrix:
    """Model the sender's heterodyne: balanced beamsplitter with vacuum on mode 0.

    Returns the extended state with outputs in modes 0 and 1 (everything else
    shifted up by one).
    """
    ext = gaussian.tensor(gamma, gaussian.vacuum(1))
    order = [0, gamma.n_modes] + list(range(1, gamma.n_modes))
    ext = gaussian.partial_trace(ext, order)
    s = np.eye(2 * ext.n_modes)
    s[0:4, 0:4] = _SPLITTER
    return gaussian.apply_symplectic(ext, s)


def mutual_information(state_after_channel: CovarianceMatrix, protocol: ProtocolParams) -> float:
    """Shannon mutual information of the X-quadrature data, bits per use.

    I_AB = 1/2 log2(V_B / V_B|A).  The receiver homodynes X; the sender's
    conditioning is an X homodyne for b=0 and the X half of a heterodyne
    record for b=1.
    """
    gamma = state_after_channel
    v_b = gamma.variance(gamma.n_modes - 1, X)
    if protocol.is_coherent:
        cond = condition_on_heterodyne_record(gamma, 0, X)
    else:
        cond = condition_on_homodyne(gamma, 0, X)
    v_b_given_a = cond.variance(cond.n_modes - 1, X)
    if v_b_given_a <= 0.0:
        raise DegenerateInput(f"conditional variance {v_b_given_a} <= 0")
    if protocol.v_m == 0.0:
        return 0.0
    return 0.5 * math.log2(v_b / v_b_given_a)


def _chi_from(total: CovarianceMatrix, conditioned: CovarianceMatrix) -> float:
    chi = gaussian.von_neumann_entropy(total) - gaussian.von_neumann_entropy(conditioned)
    _check_holevo(np.array([chi]), total.matrix[None], conditioned.matrix[None])
    return max(chi, 0.0)


def holevo_rr(state_after_channel: CovarianceMatrix) -> float:
    """Holevo bound on the adversary's information about the receiver's X data.

    chi_BE = S(trusted state) - S(trusted remainder | receiver X homodyne).
    """
    b_mode = state_after_channel.n_modes - 1
    cond = condition_on_homodyne(state_after_channel, b_mode, X)
    return _chi_from(state_after_channel, cond)


def holevo_dr(state_after_channel: CovarianceMatrix, protocol: ProtocolParams) -> float:
    """Holevo bound on the adversary's information about the sender's data.

    chi_AE = S(trusted state) - S(remainder | sender's measurement).  For b=0
    the sender homodynes X on mode 0.  For b=1 the key quadrature of the
    heterodyne record is an X homodyne on one output of a balanced splitter,
    which keeps the conditioned global state pure; conditioning on the raw
    mode with a (V+1) heterodyne Schur complement instead would discard the
    sender's retained p-output correlations and overcount the adversary.
    """
    if protocol.is_coherent:
        ext = _split_sender_mode(state_after_channel)
        cond = condition_on_homodyne(ext, 0, X)
    else:
        cond = condition_on_homodyne(state_after_channel, 0, X)
    return _chi_from(state_after_channel, cond)


def key_rate_equivalent_fixed(
    protocol: ProtocolParams,
    chan: CompositeChannel,
    finite: FiniteSizeParams | None = None,
) -> KeyRateResult:
    """key_rate with I_AB and chi computed one CovarianceMatrix at a time.

    An independent route to the state and its entropies, for checks:
    build_source -> apply_equivalent_fixed -> mutual_information and
    holevo_rr / holevo_dr.  The rate policy applied to them is key_rates'
    own.  Agrees with key_rate to numerical precision.
    """
    state = apply_equivalent_fixed(build_source(protocol), chan)
    mi = mutual_information(state, protocol)
    holevo = holevo_rr(state) if protocol.reconciliation == REVERSE else holevo_dr(state, protocol)
    return _assemble(protocol, (chan,), (finite,), np.array([mi]), np.array([holevo])).result(0)
