"""Mutual information, Holevo bounds and secure key rates under collective attacks.

The adversary is assumed to purify everything outside the trusted modes, so
both Holevo bounds reduce to entropy differences of the trusted state before
and after the reference party's measurement.  Rates are in bits per channel
use; negative rates are reported, never clipped.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gaussian
from .channel import CompositeChannel, apply_composite, apply_equivalent_fixed
from .errors import DegenerateInput, DomainError, InternalError
from .gaussian import CovarianceMatrix, X, condition_on_heterodyne_record, condition_on_homodyne
from .sources import DIRECT, REVERSE, ProtocolParams, SourceState, build_source

_CHI_FLOOR = -1e-9  # below this a negative Holevo value is a logic error


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
    n_block: float | None = None
    diagnostics: dict | None = None

    def __post_init__(self):
        if self.diagnostics and "beta" in self.diagnostics:
            expected = self.diagnostics["beta"] * self.i_ab - self.chi
            if expected != self.rate_asymptotic:
                raise InternalError("rate_asymptotic must equal beta * i_ab - chi exactly")


def _split_sender_mode(gamma: CovarianceMatrix) -> CovarianceMatrix:
    """Model the sender's heterodyne: balanced beamsplitter with vacuum on mode 0.

    Returns the extended state with outputs in modes 0 and 1 (everything else
    shifted up by one).
    """
    ext = gaussian.tensor(gamma, gaussian.vacuum(1))
    order = [0, gamma.n_modes] + list(range(1, gamma.n_modes))
    ext = gaussian.partial_trace(ext, order)
    s = np.eye(2 * ext.n_modes)
    r = 1.0 / math.sqrt(2.0)
    s[0:4, 0:4] = np.array(
        [
            [r, 0.0, r, 0.0],
            [0.0, r, 0.0, r],
            [-r, 0.0, r, 0.0],
            [0.0, -r, 0.0, r],
        ]
    )
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
    if chi < _CHI_FLOOR:
        raise InternalError(f"Holevo bound came out {chi} < {_CHI_FLOOR}")
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


def key_rate(
    protocol: ProtocolParams,
    chan: CompositeChannel,
    finite: FiniteSizeParams | None = None,
    source: SourceState | None = None,
    state_after_channel: CovarianceMatrix | None = None,
) -> KeyRateResult:
    """Secure key rate of one protocol over one composite channel.

    Composes source -> channel -> information quantities.  rate_asymptotic =
    beta I_AB - chi; with finite-size parameters, rate_finite =
    key_fraction * (beta I_AB - chi - Delta(n)).  Pass `source` and/or
    `state_after_channel` to reuse precomputed pieces (the optimizer does).
    """
    if source is None:
        source = build_source(protocol)
    if state_after_channel is None:
        state_after_channel = apply_composite(source, chan)

    flags = []
    if protocol.reconciliation == DIRECT and chan.mean_transmittance <= 0.5:
        # direct reconciliation is generally insecure below mean transmittance 1/2
        flags.append("dr_low_transmittance")

    i_ab = protocol.sifting * mutual_information(state_after_channel, protocol)
    if protocol.reconciliation == REVERSE:
        chi = protocol.sifting * holevo_rr(state_after_channel)
    else:
        chi = protocol.sifting * holevo_dr(state_after_channel, protocol)
    rate_asym = protocol.beta * i_ab - chi

    rate_finite = None
    n_block = None
    if finite is not None:
        delta = finite_size_penalty(finite.n, finite.eps_bar)
        rate_finite = finite.key_fraction * (protocol.beta * i_ab - chi - delta)
        n_block = finite.n

    return KeyRateResult(
        i_ab=i_ab,
        chi=chi,
        rate_asymptotic=rate_asym,
        rate_finite=rate_finite,
        n_block=n_block,
        diagnostics={"beta": protocol.beta, "flags": flags},
    )


def key_rate_equivalent_fixed(
    protocol: ProtocolParams,
    chan: CompositeChannel,
    finite: FiniteSizeParams | None = None,
) -> KeyRateResult:
    """key_rate evaluated through the equivalent fixed-channel representation.

    Exists for the dual-route fading-equivalence checks; must agree with
    key_rate to numerical precision.
    """
    source = build_source(protocol)
    state = apply_equivalent_fixed(source, chan)
    return key_rate(protocol, chan, finite, source=source, state_after_channel=state)
