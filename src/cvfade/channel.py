"""Composite untrusted channel: fixed-loss segments around a fading segment.

Only the first two moments of sqrt(eta) enter the security computation; the
state after the channel is the zero-mean Gaussian mixture over subchannels,
whose covariance is the subchannel average.
"""
from __future__ import annotations

import csv
import io
import math
import re
import warnings
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import DomainError
from .gaussian import CovarianceMatrix, require_physical
from .outputs import count_lines, read_buffer, read_fractions


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


_LEAF = 8192  # samples per np.sqrt temporary: 64 KB, below malloc's 128 KB mmap threshold


def _sqrt_sum(arr: np.ndarray) -> float:
    """np.sqrt(arr).sum() of a 1-D array, bit for bit, holding at most _LEAF
    square roots at a time.  numpy sums a contiguous run pairwise: a run of
    more than 128 (its PW_BLOCKSIZE) splits at n//2 - (n//2) % 8 and the two
    halves' sums are added.  Splitting the same way down to runs of at most
    _LEAF >= 128 and letting numpy sum each run repeats that recursion."""
    n = arr.size
    if n <= _LEAF:
        return np.sqrt(arr).sum()
    half = n // 2 - (n // 2) % 8
    return _sqrt_sum(arr[:half]) + _sqrt_sum(arr[half:])


def fading_stats(samples) -> FadingStats:
    """Moments of a transmittance sample set (pairwise summation, reproducible).

    Allocates nothing of the samples' size, only _LEAF square roots (64 KB)
    at a time: the range check is a min and a max, and _sqrt_sum adds the
    square roots in numpy's own pairwise order, so <sqrt(eta)> has the bits
    of np.sqrt(samples).mean() and <eta> is samples.mean() as before.
    """
    arr = np.asarray(samples, dtype=float).reshape(-1)
    if arr.size == 0:
        raise DomainError("sample set is empty")
    if not (arr.min() >= 0.0 and arr.max() <= 1.0):  # False for NaN
        inside = arr >= 0.0
        inside &= arr <= 1.0
        i = int(inside.argmin())
        raise DomainError(f"transmittance samples must lie in [0, 1]: sample {i} (from 0) is {float(arr[i])!r}")
    return FadingStats(float(arr.mean()), float(_sqrt_sum(arr) / arr.size))


_LOADTXT = {"dtype": float, "delimiter": ",", "comments": "#", "quotechar": '"', "ndmin": 2}
_BLOCK = 4096  # lines per numpy call


def _load_body(lines) -> np.ndarray:
    """numpy's C reader over the lines after the header: one row per data line."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(lines, **_LOADTXT)


def _body_rows(lines, encoding) -> np.ndarray:
    """numpy's rows of text lines after the header, one cell each; else
    ValueError(reason for one line, text for many) if the lines do not decode
    as `encoding`, a cell is not a number or a row has other than one cell."""
    try:
        "".join(lines).encode(encoding)  # the lines were decoded with errors="surrogateescape"
        rows = _load_body(lines)
    except UnicodeEncodeError:
        raise ValueError(f"does not decode as {encoding}", f"a line does not decode as {encoding}") from None
    except ValueError as exc:
        raise ValueError("is not a number", str(exc)) from exc
    if rows.shape[1] != 1:
        raise ValueError(f"has {rows.shape[1]} cells, expected one", f"found {rows.shape[1]} cells per row, expected one")
    return rows


_CELL_REST = re.compile(r"[^,#\r\n]*")  # an unquoted cell to its end
_LINE_REST = re.compile(r"[^\r\n]*")  # a comment to its line's end


def _ends_in_quote(text: str, quoted: bool = False) -> bool:
    """Whether numpy's reader (delimiter ',', comments '#', quotechar '"') is
    inside a quoted cell at the end of text, whole lines after the header, if
    it was inside one at their start when `quoted`.  A quote opens a cell as
    its first character only; inside, "" is a quote and a lone one closes the
    quoted part; outside quotes, '#' starts a comment to the line's end."""
    if not quoted and '"' not in text:
        return False
    i, n = 0, len(text)
    while i < n:
        if quoted:
            i = text.find('"', i) + 1
            if not i:
                return True
            if text.startswith('"', i):
                i += 1
                continue
            quoted = False
        elif text[i] == '"':
            quoted = True
            i += 1
            continue
        i = _CELL_REST.match(text, i).end()
        if text.startswith("#", i):
            i = _LINE_REST.match(text, i).end()
        i += 1  # past the delimiter or the line end
    return quoted


def _first_rejected(lines, before: int, encoding) -> str | None:
    """"line N <reason>" for the first of lines after the header that
    _body_rows rejects alone, the first being line before + 1; None if none is."""
    for n, line in enumerate(lines, before + 1):
        try:
            _body_rows([line], encoding)
        except ValueError as exc:
            return f"line {n} {exc.args[0]}"
    return None


def _fraction_file(fh) -> int:
    """Read the comment lines and the header of binary file fh, at its start:
    how many they are if they are ASCII, end in LF or CRLF (text mode splits
    a line at any CR) and the header is exactly `eta`; else 0."""
    line, n = fh.readline(), 1
    while line.startswith(b"#"):
        if not line.isascii() or b"\r" in line[:-2]:
            return 0
        line, n = fh.readline(), n + 1
    return n if line in (b"eta\n", b"eta\r\n") else 0


def _read_head(fh, path) -> int:
    """Read the comment lines and the header of text file fh, at its start:
    how many lines they are.  DomainError at the first that does not decode,
    else if the header is not `eta`."""
    line, n = "", 0
    for n, line in enumerate(fh, 1):
        try:
            line.encode(fh.encoding)
        except UnicodeEncodeError:
            raise DomainError(f"cannot parse samples in {path}: line {n} does not decode as {fh.encoding}") from None
        if not line.startswith("#"):
            break
    try:
        header = next(csv.reader([line]), [])
    except csv.Error as exc:
        raise DomainError(f"cannot parse samples in {path}: {exc}") from exc
    if [h.strip() for h in header] != ["eta"]:
        raise DomainError(f"expected single-column CSV with header 'eta' in {path}")
    return n


def _read_body(fh, out, done: int, before: int, path) -> np.ndarray:
    """out[:done] and the samples of text file fh from its position, line
    before + 1, read by numpy _BLOCK lines at a time into the rest of out.
    A block whose text leaves a quoted cell open takes the lines up to the one
    that closes it.  A failing block's first line that fails alone is named,
    else numpy's text."""
    while lines := list(islice(fh, _BLOCK)):
        quoted = _ends_in_quote("".join(lines))
        while quoted and (line := next(fh, None)) is not None:
            lines.append(line)
            quoted = _ends_in_quote(line, quoted)
        try:
            rows = _body_rows(lines, fh.encoding)[:, 0]
        except ValueError as exc:
            raise DomainError(f"cannot parse samples in {path}: "
                              f"{_first_rejected(lines, before, fh.encoding) or exc.args[1]}") from exc
        if rows.size > out.size - done:  # more lines than were counted: the file grew, or ends lines in CR
            out = np.concatenate([out[:done], np.empty(max(rows.size, done))])
        out[done:done + rows.size] = rows
        done += rows.size
        before += len(lines)
    if done == 0:
        raise DomainError(f"no samples found in {path}")
    return out[:done]


def read_eta_csv(path) -> np.ndarray:
    """Read a transmittance sample set from a CSV with single column `eta`.

    Lines starting with '#' are ignored (metadata comments); after the
    header a '#' anywhere starts a comment, and blank lines are skipped.
    Each line is read once, into one array sized by a count of the lines:
    by outputs.read_fractions while they are in `simulate`'s form (after
    ASCII comment lines and a header of exactly `eta`), then by numpy's C
    reader, which gives the same doubles.  DomainError names the first
    fault in file order: a line that does not decode, a header other than
    `eta`, a row of more than one cell or a cell that is not a number.
    """
    with io.TextIOWrapper(open(path, "rb"), newline="", errors="surrogateescape") as fh:
        raw, buf = fh.buffer, read_buffer()  # the kernel reads raw before any text is read
        if not (head := _fraction_file(raw)):
            raw.seek(0)
        out = np.empty(count_lines(raw, buf))
        done = read_fractions(raw, out, buf) if head else 0
        return _read_body(fh, out, done, head + done if head else _read_head(fh, path), path)


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
