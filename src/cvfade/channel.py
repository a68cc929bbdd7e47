"""Composite untrusted channel: fixed-loss segments around a fading segment.

Only the first two moments of sqrt(eta) enter the security computation; the
state after the channel is the zero-mean Gaussian mixture over subchannels,
whose covariance is the subchannel average.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import warnings
from collections import namedtuple
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .errors import DomainError, InternalError
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


_LOADTXT = {"dtype": float, "delimiter": ",", "comments": "#", "quotechar": '"', "ndmin": 2}
_BLOCK = 4096  # lines per numpy call, which reads on past them to the end of its _BLOCK-th row


def _load_body(lines, max_rows: int) -> np.ndarray:
    """numpy's C reader over the lines after the header: at most max_rows rows,
    one per data line.  It decides where each record ends: from an iterator it
    takes the lines through its last row, or through the row it rejects, and
    leaves the rest unread."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        warnings.filterwarnings("ignore", r"Input line \d+ contained no data")  # rows are what max_rows counts
        return np.loadtxt(lines, max_rows=max_rows, **_LOADTXT)


def _recorded(lines, taken: list):
    """Yield the lines of an iterator, appending each to taken as it goes."""
    for line in lines:
        taken.append(line)
        yield line


def _body_rows(lines: list, more, encoding, max_rows: int) -> np.ndarray:
    """numpy's first max_rows rows of text lines after the header, one cell
    each: the list `lines`, then those numpy takes from iterator `more`, which
    join `lines`.  Else ValueError(the reason, as said of one record) if the
    lines do not decode as `encoding`, a cell is not a number or a row has
    other than one cell."""
    try:
        try:
            rows = _load_body(chain(lines, _recorded(more, lines)), max_rows)
        finally:  # a line that does not decode is the reason, before a cell it spoils
            "".join(lines).encode(encoding)  # the lines were decoded with errors="surrogateescape"
    except UnicodeEncodeError:
        raise ValueError(f"does not decode as {encoding}") from None
    except ValueError as exc:
        raise ValueError("is not a number") from exc
    if rows.shape[1] != 1:
        raise ValueError(f"has {rows.shape[1]} cells, expected one")
    return rows


def _no_row(line) -> bool:
    """Whether numpy's reader reads line alone as no row: a blank line or a comment."""
    try:
        return not _load_body([line], 1).size
    except ValueError:
        return False


def _first_rejected(lines, encoding):
    """(index, reason) of the first record of lines that _body_rows rejects
    alone.  A line that numpy's reader reads alone as no row is a record of
    its own; any other record is the lines numpy takes for its next row.
    Lines that _body_rows rejects hold one: they are their records end to end."""
    rest, start = iter(lines), 0
    while start < len(lines):
        record = []
        try:
            _body_rows(record, islice(rest, 1) if _no_row(lines[start]) else rest, encoding, 1)
        except ValueError as exc:
            return start, exc.args[0]
        start += len(record)
    raise InternalError(f"numpy's reader rejects {len(lines)} lines but none of their records alone")


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


def _read_body(fh, before: int, done: int, path):
    """Yield the samples of text file fh from its position, line before + 1,
    after `done` samples, as numpy reads them: _BLOCK lines a call, and on to
    the end of its _BLOCK-th row.  A failing call's first record that fails
    alone is named, after the samples before it."""
    while lines := list(islice(fh, _BLOCK)):
        try:
            rows = _body_rows(lines, fh, fh.encoding, _BLOCK)[:, 0]
        except ValueError as exc:
            i, reason = _first_rejected(lines, fh.encoding)
            yield _load_body(lines[:i], i)[:, 0]  # a sample outside [0, 1] among them is the first fault
            raise DomainError(f"cannot parse samples in {path}: line {before + 1 + i} {reason}") from exc
        yield rows
        done, before = done + rows.size, before + len(lines)
    if not done:
        raise DomainError(f"no samples found in {path}")


def _sample_blocks(path):
    """Yield the samples of the file at path, an array per block, each line read
    once: outputs.read_fractions's in `simulate`'s form (ASCII comments, a header
    of exactly `eta`), then numpy's.  DomainError names the first fault: a line
    not decoding, a header not `eta`, a row of 2+ cells, a non-number, no sample."""
    with io.TextIOWrapper(open(path, "rb"), newline="", errors="surrogateescape") as fh:
        raw, done = fh.buffer, 0  # the kernel reads raw before any text is read
        if head := _fraction_file(raw):
            for x in read_fractions(raw):
                done += x.size
                yield x
        else:
            raw.seek(0)
        yield from _read_body(fh, head + done if head else _read_head(fh, path), done, path)


def read_eta_csv(path) -> SampleMoments:
    """SampleMoments of the samples in a CSV with single column `eta`, summed
    block by block from _sample_blocks: no array of them is held.  Lines
    starting with '#' are comments; after the header a '#' anywhere starts
    one, and blank lines are skipped.  A sample outside [0, 1] before a line
    that does not parse is the fault named."""
    with contextlib.closing(_sample_blocks(path)) as blocks:
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
