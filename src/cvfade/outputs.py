"""Deterministic CSV/JSON writers shared by the CLI commands.

Every CSV starts with a `# metadata:` comment line (config hash, seed, and
for sample files the generator) followed by an RFC-4180-style header row.
No timestamps anywhere: reruns with identical inputs must be byte-identical.
Every float is written as `'%.17g'`, which round-trips a float64 exactly.

A 1-D float array (a sample file's `eta` column) is rendered by a numpy
kernel that writes the same bytes as `'%.17g'` for every double in [1e-4, 1),
one chunk of _CHUNK values at a time.  It scales x by 10^(16-k), with
k = floor(log10 x), and gets the exact product as hi + lo with Dekker's
two-product (T. J. Dekker, Numer. Math. 18, 224-242, 1971; 10^p is exact for
p <= 22).  Since hi >= 10^16 > 2^53 is an even integer, int(hi) + rint(lo) is
the round-half-even 17-digit integer that `'%.17g'` prints.  A k off by one
next to a power of ten is re-done with k +- 1.  No double in [1e-4, 1) rounds
up to a power of ten at 17 digits, so nothing carries into k.  The digits go
through a 4-digit lookup table into fixed-width rows of 24 bytes, in which the
characters `%g` leaves out (unused leading zeros, trailing zeros) are NUL
bytes that one bytes.translate deletes.  Every other value (0, 1, negatives,
subnormals, +-inf, NaN and the other decades) is formatted by `'%.17g'` itself
and spliced back in order.
"""
from __future__ import annotations

import csv
import functools
import io
import json

import numpy as np

# Values per kernel call on the float-array path of render_csv: large enough to
# amortize numpy's per-call cost, small enough that the kernel's temporaries
# stay near 1 MB.
_CHUNK = 8192

# The kernel's domain: '%.17g' writes these as 0.<0-3 zeros><1-17 digits>.
_KERNEL_LO, _KERNEL_HI = 1e-4, 1.0
_POW10 = np.array([10.0 ** p for p in range(23)])  # exact for p <= 22


def _split(a):
    """Dekker's split of a float64 into a 26-bit high part and the rest."""
    c = a * 134217729.0  # 2^27 + 1
    high = c - (c - a)
    return high, a - high


def _times_pow10(x, p):
    """x * 10^p as hi + lo exactly: hi the rounded product, lo its error."""
    scale = _POW10[p]
    hi = x * scale
    xh, xl = _split(x)
    sh, sl = _split(scale)
    return hi, ((xh * sh - hi) + xh * sl + xl * sh) + xl * sl


def _words(raw: bytes):
    return np.frombuffer(raw, dtype=np.uint32)


@functools.cache
def _tables():
    """The kernel's lookup tables, built on first use so that importing the
    module costs nothing: the 4-digit groups and the word before them."""
    digits = np.indices((10, 10, 10, 10), dtype=np.uint8).reshape(4, 10000).T  # of 0-9999
    kept = np.logical_or.accumulate(digits[:, ::-1] != 0, axis=1)[:, ::-1]  # not a trailing zero
    chars = digits + ord("0")
    # 4-digit groups as uint32 words: entries 0-9999 keep every digit, entries
    # 10000-19999 (a group after which only zero groups follow) NUL its trailing zeros.
    groups = _words(chars.tobytes() + (chars * kept).tobytes())
    # NUL-padded leading zeros and the first digit, at index
    # 10 * (number of leading zeros) + first digit
    leads = _words(b"".join(bytes(3 - nz) + b"0" * nz + bytes([ord("0") + d])
                            for nz in range(4) for d in range(10)))
    return groups, leads


_LINE_START = _words(b"\r\n0.")[0]
# The row of a value the kernel leaves out: CRLF and "!", which marks where its cell goes.
_SPLICE_ROW = _words(b"\r\n!" + bytes(21))


def _kernel_rows(x):
    """CRLF + '%.17g' % v for each v of a float64 array in [1e-4, 1), as
    24-byte rows (six uint32 words) whose NUL bytes are to be dropped."""
    groups, leads = _tables()
    k = np.floor(np.log10(x)).astype(np.intp)
    hi, lo = _times_pow10(x, 16 - k)
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    off = np.flatnonzero(low | high)
    if off.size:  # log10 rounded across a power of ten: x * 10^(16-k) has 16 or 18 digits
        k[off] += high[off].astype(np.intp) - low[off]
        hi[off], lo[off] = _times_pow10(x[off], 16 - k[off])
    # no carry to 10^17: below 1, 0.1, 0.01 and 0.001 the largest double's
    # x * 10^(16-k) is 8.3 or more under 10^17
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    head = digits // 10**8  # first digit and groups 1, 2
    tail = digits - head * 10**8  # groups 3, 4
    lead = head // 10**4
    g2 = head - lead * 10**4
    first = lead // 10**4
    g1 = lead - first * 10**4
    g3 = tail // 10**4
    g4 = tail - g3 * 10**4
    zero4 = g4 == 0
    zero34 = zero4 & (g3 == 0)
    zero234 = zero34 & (g2 == 0)
    rows = np.empty((x.size, 6), dtype=np.uint32)
    rows[:, 0] = _LINE_START
    rows[:, 1] = leads[10 * (-1 - k) + first]
    rows[:, 2] = groups[g1 + 10000 * zero234]
    rows[:, 3] = groups[g2 + 10000 * zero34]
    rows[:, 4] = groups[g3 + 10000 * zero4]
    rows[:, 5] = groups[g4 + 10000]
    return rows


def _render_values(values) -> str:
    """CRLF + '%.17g' % v for each v of a 1-D float array."""
    with np.errstate(invalid="ignore"):  # a float32 signalling NaN is still 'nan'
        x = np.array(values, dtype=np.float64)
    left_out = np.flatnonzero(~((x >= _KERNEL_LO) & (x < _KERNEL_HI)))
    cells = ["%.17g" % v for v in x[left_out].tolist()]
    x[left_out] = 0.5  # any value the kernel covers: these rows become marks below
    rows = _kernel_rows(x)
    rows[left_out] = _SPLICE_ROW
    pieces = rows.tobytes().translate(None, b"\0").decode("ascii").split("!")
    return "".join(p + c for p, c in zip(pieces, cells)) + pieces[-1]


def format_number(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


def metadata_line(meta: dict) -> str:
    return "# metadata: " + json.dumps(meta, sort_keys=True, separators=(",", ":"))


def render_csv(meta: dict, header: list[str], rows) -> str:
    """Metadata line, header and rows as CSV text with CRLF line ends.

    `rows` is an iterable of mixed-type rows (strings pass through csv
    quoting, numbers go through format_number), or a 1-D float array, which
    is rendered as one column in chunks with the same `.17g` bytes.
    """
    buf = io.StringIO()
    buf.write(metadata_line(meta) + "\r\n")
    if isinstance(rows, np.ndarray) and rows.ndim == 1 and rows.dtype.kind == "f":
        # each value's line starts with the CRLF that ends the line before it
        csv.writer(buf, lineterminator="").writerow(header)
        for start in range(0, rows.size, _CHUNK):
            buf.write(_render_values(rows[start:start + _CHUNK]))
        buf.write("\r\n")
        return buf.getvalue()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([v if isinstance(v, str) else format_number(v) for v in row])
    return buf.getvalue()


def write_text(path, text: str):
    with open(path, "w", newline="") as fh:
        fh.write(text)


def write_json(path, obj: dict):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
