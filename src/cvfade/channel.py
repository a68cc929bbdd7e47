"""Composite untrusted channel: fixed-loss segments around a fading segment.

Only the first two moments of sqrt(eta) enter the security computation; the
state after the channel is the zero-mean Gaussian mixture over subchannels,
whose covariance is the subchannel average.
"""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import DomainError
from .gaussian import CovarianceMatrix, require_physical
from .outputs import read_fractions


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
            raise DomainError(
                f"moments violate Jensen bounds: <eta>={me}, <sqrt(eta)>={ms}"
            )

    @property
    def var_sqrt(self) -> float:
        return max(0.0, self.mean_eta - self.mean_sqrt_eta**2)

    @classmethod
    def fixed(cls, eta: float) -> "FadingStats":
        """Degenerate (non-fluctuating) channel of transmittance eta."""
        return cls(eta, math.sqrt(eta))


def fading_stats(samples) -> FadingStats:
    """Moments of a transmittance sample set (pairwise summation, reproducible)."""
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise DomainError("sample set is empty")
    inside = arr >= 0.0  # False for NaN
    inside &= arr <= 1.0
    if not inside.all():
        i = int(inside.argmin())
        raise DomainError(f"transmittance samples must lie in [0, 1]: sample {i} (from 0) is {float(arr.flat[i])!r}")
    return FadingStats(float(arr.mean()), float(np.sqrt(arr).mean()))


_LOADTXT = {"dtype": float, "delimiter": ",", "comments": "#", "quotechar": '"', "ndmin": 2}
_BLOCK = 4096  # lines per numpy call when locating a rejected line


def _load_body(lines) -> np.ndarray:
    """numpy's C reader over the lines after the header: one row per data line."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(lines, **_LOADTXT)


def _blocks(fh):
    """The lines of open text file fh as (lines, body) blocks of at most
    _BLOCK lines: the comment lines and the header (body False), then the
    lines after the header (body True)."""
    block = []
    for line in fh:
        block.append(line)
        if not line.startswith("#"):
            break
        if len(block) == _BLOCK:
            yield block, False
            block = []
    yield block, False
    while block := list(islice(fh, _BLOCK)):
        yield block, True


def _rejected_line(path) -> str | None:
    """Where and why read_eta_csv rejects a sample file: "line N ...", 1-based.

    The error path of read_eta_csv, whose numpy row numbers skip the header
    and blank lines.  Every line must decode, and each line after the header
    must hold at most one number.  The file is streamed a block at a time,
    and the first failing block is checked line by line.  None if no single
    line fails.
    """
    with open(path, newline="", errors="surrogateescape") as fh:
        encoding = fh.encoding

        def rejection(lines, body):
            """Why `lines` are rejected, or None; up to the header they need only decode."""
            try:
                "".join(lines).encode(encoding)
            except UnicodeEncodeError:
                return f"does not decode as {encoding}"
            if not body:
                return None
            try:
                cells = _load_body(lines).shape[1]
            except ValueError:
                return "is not a number"
            return None if cells == 1 else f"has {cells} cells, expected one"

        before = 0  # lines before the block
        for lines, body in _blocks(fh):
            if rejection(lines, body):
                for k, line in enumerate(lines, before + 1):
                    reason = rejection([line], body)
                    if reason:
                        return f"line {k} {reason}"
                return None
            before += len(lines)
    return None


def _fraction_file(fh) -> bool:
    """Read the comment lines and the header of binary file fh, at its start:
    whether they are ASCII, end in LF or CRLF (text mode splits a line at any
    CR) and the header is exactly `eta`, so that the lines after them are
    the whole body."""
    line = fh.readline()
    while line.startswith(b"#"):
        if not line.isascii() or b"\r" in line[:-2]:
            return False
        line = fh.readline()
    return line in (b"eta\n", b"eta\r\n")


def read_eta_csv(path) -> np.ndarray:
    """Read a transmittance sample set from a CSV with single column `eta`.

    Lines starting with '#' are ignored (metadata comments); after the
    header a '#' anywhere starts a comment, and blank lines are skipped.  A
    file whose body lines are all `0.` and 1-20 digits (at most 18 of them
    significant), as `simulate` writes samples in [1e-4, 1), is read by
    outputs.read_fractions; its comment lines must be ASCII, its header
    exactly `eta`, and its lines end in LF or CRLF.  Every other file is read
    by numpy's C reader, which gives the same doubles; a row with more than
    one cell, a cell that is not a number or bytes that do not decode raise
    DomainError naming the file's first such line.
    """
    with open(path, "rb") as fh:
        values = read_fractions(fh) if _fraction_file(fh) else None
    if values is not None and values.size:
        return values
    return _read_table(path)


def _read_table(path) -> np.ndarray:
    """read_eta_csv by numpy's C reader, for any file."""
    with open(path, newline="") as fh:
        try:
            line = fh.readline()
            while line.startswith("#"):
                line = fh.readline()
            header = next(csv.reader([line]), [])
            if [h.strip() for h in header] != ["eta"]:
                raise DomainError(f"expected single-column CSV with header 'eta' in {path}")
            values = _load_body(fh)
            if values.shape[1] != 1:
                raise ValueError(f"found {values.shape[1]} cells per row, expected one")
        except DomainError:
            raise
        except (ValueError, csv.Error) as exc:  # ValueError includes UnicodeDecodeError
            raise DomainError(f"cannot parse samples in {path}: {_rejected_line(path) or exc}") from exc
    if values.size == 0:
        raise DomainError(f"no samples found in {path}")
    return values.reshape(-1)


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
