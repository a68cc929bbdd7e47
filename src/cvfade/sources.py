"""Entanglement-based equivalents of the prepare-and-measure signal sources.

A source is its covariance matrix: build_source returns one CovarianceMatrix,
build_source_stack the same construction for a batch of points.  Mode layout
convention (fixed): mode 0 is the sender's kept mode, an optional prep-noise
ancilla sits in the middle, and the signal mode travelling to the receiver is
always last (mode n_modes - 1).  The sender's measurement follows from the
protocol family: heterodyne for b=1, X homodyne for b=0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gaussian
from .errors import DomainError
from .gaussian import CovarianceMatrix

DIRECT = "dr"
REVERSE = "rr"

TRUSTED = "trusted"
UNTRUSTED = "untrusted"


def variance_from_db(db: float) -> float:
    """A quantity in dB on a linear scale: 10^(dB/10).

    Used for every dB key: variances in SNU (negative dB is squeezing, V < 1)
    and transmittances alike.  The conversion is bit-exact
    ``10.0 ** (db / 10.0)``; a value beyond the float range (about 3083 dB)
    raises DomainError.
    """
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise DomainError(f"{db} dB is a variance beyond the float range") from None


@dataclass(frozen=True)
class ProtocolParams:
    """Signal-source and post-processing parameters.

    v_s: squeezed-quadrature variance in SNU, in (0, 1]
    v_m: modulation variance in SNU, >= 0
    b: 1 = modulation in both quadratures (coherent protocol), 0 = X only
    v_an: anti-squeezing noise added to the unsqueezed quadrature, SNU
    reconciliation: "dr" | "rr"
    beta: reconciliation efficiency in [0, 1]
    prep_noise_trust: "trusted" | "untrusted" attribution of v_an
    sifting: fraction of uses kept after sifting, in (0, 1].  Defaults to 1
    (rates are per protocol use with no sifting penalty); when set, the
    reported information quantities are per-use averages including it.
    """

    v_s: float = 1.0
    v_m: float = 0.0
    b: int = 1
    v_an: float = 0.0
    reconciliation: str = REVERSE
    beta: float = 1.0
    prep_noise_trust: str = TRUSTED
    sifting: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.v_s <= 1.0:
            raise DomainError(f"v_s must be in (0, 1], got {self.v_s}")
        if self.v_m < 0.0:
            raise DomainError(f"v_m must be >= 0, got {self.v_m}")
        if self.b not in (0, 1):
            raise DomainError(f"b must be 0 or 1, got {self.b}")
        if self.v_an < 0.0:
            raise DomainError(f"v_an must be >= 0, got {self.v_an}")
        if self.b == 1 and self.v_s != 1.0:
            raise DomainError("both-quadrature modulation (b=1) requires v_s = 1")
        if self.b == 1 and self.v_an > 0.0:
            raise DomainError("anti-squeezing noise is only defined for b = 0")
        if self.reconciliation not in (DIRECT, REVERSE):
            raise DomainError(f"reconciliation must be 'dr' or 'rr', got {self.reconciliation!r}")
        if not 0.0 <= self.beta <= 1.0:
            raise DomainError(f"beta must be in [0, 1], got {self.beta}")
        if self.prep_noise_trust not in (TRUSTED, UNTRUSTED):
            raise DomainError("prep_noise_trust must be 'trusted' or 'untrusted'")
        if not 0.0 < self.sifting <= 1.0:
            raise DomainError(f"sifting must lie in (0, 1], got {self.sifting}")

    @property
    def is_coherent(self) -> bool:
        return self.b == 1


def build_source(params: ProtocolParams) -> CovarianceMatrix:
    """Pure-state (or deliberately impure, for untrusted prep noise) EB source.

    Coherent protocol (b=1): two-mode squeezed vacuum with mu = V_m + 1; the
    sender's both-quadrature data is heterodyne-equivalent.

    One-quadrature protocol (b=0): two-mode squeezed vacuum with
    mu = sqrt(1 + V_m/V_s), then a squeezer s = sqrt(V_s (V_s + V_m)) on the
    signal mode.  This is the minimal two-mode purification reproducing both
    the reduced signal state diag(V_s+V_m, 1/V_s) and conditional squeezing
    V_s given the sender's X homodyne.

    Trusted anti-squeezing noise adjoins a vacuum ancilla and couples it to
    the signal with a QND gain sqrt(V_AN), adding exactly V_AN to the signal
    P variance while keeping the global state pure.  Untrusted noise is added
    directly to the signal P diagonal (state impure, attributed to the
    adversary).
    """
    if params.is_coherent:
        return gaussian.tmsv(params.v_m + 1.0)

    mu = math.sqrt(1.0 + params.v_m / params.v_s)
    gamma = gaussian.tmsv(mu)
    s = math.sqrt(params.v_s * (params.v_s + params.v_m))
    gamma = gaussian.apply_squeezer(gamma, 1, s)

    if params.v_an > 0.0:
        if params.prep_noise_trust == TRUSTED:
            # modes (A, ancilla, B): append vacuum then swap to keep B last
            three = gaussian.tensor(gamma, gaussian.vacuum(1))
            three = gaussian.partial_trace(three, [0, 2, 1])
            three = gaussian.apply_qnd(
                three, control_mode=1, target_mode=2, gain=math.sqrt(params.v_an)
            )
            gamma = three
        else:
            m = np.array(gamma.matrix)
            m[3, 3] += params.v_an
            gamma = CovarianceMatrix(m)

    return gamma


def build_source_stack(params: ProtocolParams, v_s: np.ndarray, v_m: np.ndarray) -> np.ndarray:
    """Covariance matrices of build_source at each point (v_s[k], v_m[k]), stacked.

    The other settings come from `params`; its own v_s and v_m are ignored.
    Returns an (N, 2m, 2m) array in build_source's mode layout, written out in
    closed form from the same construction.  The points are not validated.
    """
    n = v_s.size
    if params.is_coherent:
        mu = v_m + 1.0
        c = np.sqrt(mu * mu - 1.0)
        x_b, p_b, c_x, c_p = mu, mu, c, -c
    else:
        mu = np.sqrt(1.0 + v_m / v_s)
        c = np.sqrt(mu * mu - 1.0)
        # squeezer sqrt(V_s (V_s + V_m)) on the signal: x scales by r, p by 1/r
        r = np.sqrt(np.sqrt(v_s * (v_s + v_m)))
        q = 1.0 / r
        x_b, p_b, c_x, c_p = (r * mu) * r, (q * mu) * q, c * r, -(c * q)
    gamma = np.zeros((n, 4, 4))
    gamma[:, 0, 0] = gamma[:, 1, 1] = mu
    gamma[:, 2, 2] = x_b
    gamma[:, 3, 3] = p_b
    gamma[:, 0, 2] = gamma[:, 2, 0] = c_x
    gamma[:, 1, 3] = gamma[:, 3, 1] = c_p
    if params.v_an == 0.0:
        return gamma
    if params.prep_noise_trust == UNTRUSTED:
        gamma[:, 3, 3] += params.v_an
        return gamma
    # modes (A, ancilla, B), then the QND coupling of the ancilla and the signal
    three = np.zeros((n, 6, 6))
    three[:, 2, 2] = three[:, 3, 3] = 1.0
    outer = np.array([0, 1, 4, 5])
    three[:, outer[:, None], outer] = gamma
    qnd = np.eye(6)
    qnd[5, 2] = qnd[3, 4] = math.sqrt(params.v_an)
    three = qnd @ three @ qnd.T
    return 0.5 * (three + three.transpose(0, 2, 1))
