"""Composite untrusted channel: fixed-loss segments around a fading segment.

Only the first two moments of sqrt(eta) enter the security computation; the
state after the channel is the zero-mean Gaussian mixture over subchannels,
whose covariance is the subchannel average.  outputs reads sample files.
"""
from __future__ import annotations

import contextlib
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .gaussian import CovarianceMatrix, require_physical
from .outputs import sample_blocks


@dataclass(frozen=True)
class FadingStats:
    """First two moments of the fluctuating transmittance.

    mean_eta = <eta>, mean_sqrt_eta = <sqrt(eta)>; the fading strength is
    var_sqrt = <eta> - <sqrt(eta)>^2.
    """

    mean_eta: float
    mean_sqrt_eta: float

    def __post_init__(self):
        me, ms = self.mean_eta, self.mean_sqrt_eta
        if not (0.0 <= me <= 1.0) or not (0.0 <= ms <= 1.0):
            raise DomainError("fading moments must lie in [0, 1]")
        # Jensen both ways for eta in [0, 1]: <sqrt(eta)>^2 <= <eta> <= <sqrt(eta)>
        tol = 1e-12
        if me > ms + tol or ms * ms > me + tol:
            raise DomainError(f"moments violate Jensen bounds: <eta>={me}, <sqrt(eta)>={ms}")

    @property
    def var_sqrt(self) -> float:
        return max(0.0, self.mean_eta - self.mean_sqrt_eta**2)


# FadingStats of a sample set and its count, `size` as an array's
SampleMoments = namedtuple("SampleMoments", ["stats", "size"])

_LEAF = 8192  # samples per leaf of the moments' sums: 64 KB, below malloc's mmap threshold


def _moments(blocks) -> SampleMoments:
    """The moments of the samples in an iterable of 1-D float arrays, and their
    count.  Sample k is in leaf k // _LEAF, summed by numpy.  While the top two
    partial sums cover equally many leaves (the last leaf, even partial, counts
    as one), they merge as older + newer; the stack then folds from the newest.
    The order is fixed by position, with pairwise summation's O(eps log n) error
    (Higham, SIAM J. Sci. Comput. 14, 783 (1993)).  Per block: a min and a max."""
    buf, fill, n, stack = np.empty(_LEAF), 0, 0, []  # stack: (leaves, sum of eta, sum of sqrt(eta)), oldest first
    def push(leaf):
        top = (1, float(leaf.sum()), float(np.sqrt(leaf).sum()))
        while stack and stack[-1][0] == top[0]:
            older = stack.pop()
            top = (older[0] + top[0], older[1] + top[1], older[2] + top[2])
        stack.append(top)

    for x in blocks:
        if x.size and not (x.min() >= 0.0 and x.max() <= 1.0):  # False for NaN
            i = int(((x >= 0.0) & (x <= 1.0)).argmin())
            raise DomainError(f"transmittance samples must lie in [0, 1]: sample {n + i} (from 0) is {float(x[i])!r}")
        n += x.size
        while x.size:
            take = min(_LEAF - fill, x.size)
            buf[fill:fill + take], x = x[:take], x[take:]
            fill = (fill + take) % _LEAF
            if not fill:
                push(buf)
    if fill:
        push(buf[:fill])
    if not n:
        raise DomainError("sample set is empty")
    _, total, roots = stack.pop()
    for _, older, older_roots in reversed(stack):
        total, roots = older + total, older_roots + roots
    return SampleMoments(FadingStats(total / n, roots / n), n)


def fading_stats(samples) -> FadingStats:
    """Moments of a transmittance sample set, fed to _moments _LEAF samples at
    a time: no copy of the samples, and the bits of a file that holds them."""
    arr = np.asarray(samples, dtype=float).reshape(-1)
    return _moments(arr[i:i + _LEAF] for i in range(0, arr.size, _LEAF)).stats


def read_eta_csv(path) -> SampleMoments:
    """SampleMoments of the samples in a CSV with single column `eta`, summed
    block by block from outputs.sample_blocks: no array of them is held.  A
    sample outside [0, 1] before a line that does not parse is the fault named."""
    with contextlib.closing(sample_blocks(path)) as blocks:
        return _moments(blocks)


@dataclass(frozen=True)
class CompositeChannel:
    """Fixed segments (eta1, eps1) and (eta2, eps2) around a fading segment.

    Excess noises are given in SNU as measured at the receiver input and
    compose to eps_plus = eps2 + eps_atm * eta2 + eps1 * eta2 * <eta>.
    """

    fading: FadingStats
    eta1: float = 1.0
    eta2: float = 1.0
    eps1: float = 0.0
    eps2: float = 0.0
    eps_atm: float = 0.0

    def __post_init__(self):
        for name in ("eta1", "eta2"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise DomainError(f"{name} must be in (0, 1], got {v}")
        for name in ("eps1", "eps2", "eps_atm"):
            if getattr(self, name) < 0.0:
                raise DomainError(f"{name} must be >= 0")

    @property
    def eta_comb(self) -> float:
        return self.eta1 * self.eta2

    @property
    def eps_plus(self) -> float:
        return self.eps2 + self.eps_atm * self.eta2 + self.eps1 * self.eta2 * self.fading.mean_eta

    @property
    def mean_transmittance(self) -> float:
        """Overall mean transmittance eta_comb * <eta>."""
        return self.eta_comb * self.fading.mean_eta


def apply_composite_stack(gammas: np.ndarray, channels) -> np.ndarray:
    """Composite channel applied to a stack of states, one channel per element.

    `gammas` is (N, 2m, 2m) with the signal mode last; `channels` holds N
    channels, or one for every element.  Signal block <- eta_comb <eta>
    (gamma_B - 1) + (1 + eps_plus) 1; every trusted-to-signal cross block
    scales by sqrt(eta_comb) <sqrt(eta)>; trusted blocks are untouched.
    Physicality is not checked here.
    """
    diag = np.array([ch.eta_comb * ch.fading.mean_eta for ch in channels])
    cross = np.array([math.sqrt(ch.eta_comb) * ch.fading.mean_sqrt_eta for ch in channels])
    noise = np.array([1.0 + ch.eps_plus for ch in channels])
    eye = np.eye(2)
    d = gammas.shape[-1]
    b = slice(d - 2, d)
    out = gammas.copy()
    out[:, b, b] = diag[:, None, None] * (gammas[:, b, b] - eye) + noise[:, None, None] * eye
    out[:, : d - 2, b] *= cross[:, None, None]
    out[:, b, : d - 2] *= cross[:, None, None]
    return out


def apply_composite(source: CovarianceMatrix, channel: CompositeChannel) -> CovarianceMatrix:
    """State shared by the trusted parties after the composite channel.

    The single-state form of apply_composite_stack.  Raises NonPhysicalState
    if the inputs are mutually inconsistent.
    """
    out = apply_composite_stack(source.matrix[None], [channel])[0]
    return require_physical(CovarianceMatrix(out))


def apply_equivalent_fixed(source: CovarianceMatrix, channel: CompositeChannel) -> CovarianceMatrix:
    """Equivalent fixed-channel representation of the fading mixture.

    Fixed transmittance <sqrt(eta)>^2 eta_comb plus per-quadrature excess
    noise eta_comb * Var(sqrt(eta)) * (V_q - 1) on the signal diagonal; exactly
    entry-wise identical to apply_composite.  Written out independently of
    apply_composite_stack, so the two serve as checks on each other.

    The transmittance is taken as eta_comb * (<eta> - Var(sqrt(eta))): for a
    fixed channel <sqrt(eta)>^2 can round one ulp above <eta> (eta = 0.5
    does), and near-pure states amplify that ulp in the entropies.
    """
    st = channel.fading
    t_eq = channel.eta_comb * (st.mean_eta - st.var_sqrt)
    g = np.array(source.matrix)
    n2 = g.shape[0]
    b = slice(n2 - 2, n2)
    block = g[b, b] - np.eye(2)
    out = g.copy()
    out[b, b] = t_eq * block + (1.0 + channel.eps_plus) * np.eye(2) + channel.eta_comb * st.var_sqrt * block
    out[: n2 - 2, b] *= math.sqrt(t_eq)
    out[b, : n2 - 2] *= math.sqrt(t_eq)
    return require_physical(CovarianceMatrix(out))
