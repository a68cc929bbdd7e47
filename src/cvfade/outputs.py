"""Deterministic CSV/JSON writers for the CLI, and the sample-file reader.

Every CSV starts with a `# metadata:` comment line (config hash, seed, and
for sample files the generator) followed by an RFC-4180-style header row.
No timestamps anywhere: reruns with identical inputs must be byte-identical.
Every float is written as `'%.17g'`, which round-trips a float64 exactly.

write_csv takes a table as row blocks, each a list of columns, one per
header field, and writes each chunk of about _CHUNK cells of a block to the
open file before it renders the next: no whole-table str is built, the
kernel's temporaries stay near 0.35 MB whatever the table's size, and a
sample file's blocks can come from a generator.  Rate tables pass one block.
A column is a float array or a sequence of str, int, float or None cells,
written as csv.writer's default dialect writes them (str cells quoted when
they hold a comma, a quote, CR or LF), floats as '%.17g', None as ''.

Float columns are rendered by a numpy kernel that writes the same bytes as
`'%.17g'` for every double that format prints in fixed notation, the signed
values with 1e-4 <= |x| < 1e17, one chunk of about _CHUNK cells at a time.
It scales |x| by 10^(16-k), with k = floor(log10 |x|), and gets the exact
product as hi + lo with Dekker's two-product (T. J. Dekker, Numer. Math. 18,
224-242, 1971; 10^p is exact for p <= 22, and here p <= 20).  Since
hi >= 10^16 > 2^53 is an even integer, int(hi) + rint(lo) is the
round-half-even 17-digit integer D that `'%.17g'` prints.  A k off by one next
to a power of ten is re-done with k +- 1.  Nothing carries into the next
decade: the largest double below 10^j lies at least 2^-53 10^j under it for
j >= 0, and 8.3 10^(j-17) or more under 0.1, 0.01 and 0.001, more than half a
unit in the 17th digit.  For k >= 0 the integer part I = D // 10^(16-k) and
the fraction's digits F * 10^(k+1) are written apart.  Digits go through a
4-digit lookup table into fixed-width rows of uint32 words, in which the
characters `%g` leaves out (leading zeros of I, trailing zeros of the
fraction, a point with no fraction after it) are NUL bytes that one
bytes.translate deletes.  Every other value (0, +-inf, NaN, subnormals and the
values `%g` writes with an exponent) is formatted by `'%.17g'` itself into its
cell's slot, which is wide enough for any of them.

A run of adjacent cell columns takes one marker word per row in the same
rows; the text of the runs, joined in Python, replaces the markers in order.

sample_blocks reads a sample file (write_samples) or any CSV of one column
`eta` back, an array per block: lines starting with '#' are comments, after
the header a '#' anywhere starts one, and blank lines are skipped.  Lines
of the kernel's text, `0.` and 1-20 digits, at most 18 of them significant,
ending in LF or CRLF, go to read_fractions, a block of _READ_BLOCK bytes at a
time, up to the first line of the first block that leaves that form, where
numpy's reader goes on.  The 8-byte little-endian words that end at a line's
last digit, their bytes before the digits set to '0', are checked and folded
into the integer D of its digits with the SWAR steps of D. Lemire,
"Number parsing at a gigabyte per second", Softw. Pract. Exper. 51 (2021).  Its
value x = D / 10^k, k digits, then follows W. D. Clinger, "How to read
floating point numbers accurately", PLDI 1990: q = fl(D) / 10^k is the
nearest double when D <= 2^53, since both operands are exact, and lies within
1.5 ulp(q) of x otherwise.  The remainder r = D - q 10^k is exact up to one
rounding (Dekker's two-product, as in the kernel above), so q + r / 10^k is
the double nearest x, unless x lies within 1e-6 half-ulp of a midpoint
between two doubles, which t = r / (ulp(q) 10^k) shows, or q is a power of
two or one ulp above one, where the spacing below q halves.  Such lines,
none in a million '%.17g' lines of samples, are read by float().
"""
from __future__ import annotations

import contextlib
import csv
import functools
import io
import itertools
import json
import os
import stat
import warnings

import numpy as np

from .errors import DomainError, InternalError

# Cells per chunk of a table: large enough to amortize numpy's per-call
# cost, small enough that the kernel's temporaries stay near 0.35 MB (1.4 MB
# at 8192 cells, whose freed blocks the process then faults in afresh).
_CHUNK = 2048

# The kernel's domain: '%.17g' writes these in fixed notation, 0.<0-3 zeros><digits> or <I>[.<digits>].
_KERNEL_LO, _KERNEL_HI = 1e-4, 1e17
_POW10 = np.array([10.0 ** p for p in range(21)])  # exact for p <= 22
_POW10_INT = 10 ** np.arange(18, dtype=np.int64)

# What marks a cell run's place in the kernel's rows: no '%.17g' text holds it.
_MARK = "!"


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


def _padded(texts, size: int) -> bytes:
    return b"".join(t.encode("ascii").ljust(size, b"\0") for t in texts)


# The separator a cell starts with: a line's first cell ends the line before it.
_SEPARATORS = (",", "\r\n")


@functools.cache
def _tables():
    """The kernel's lookup tables, built on first use so that importing the
    module costs nothing."""
    # 4-digit groups as uint32 words: 0-9999 keep every digit, 10000-19999 (a
    # group after which only zero groups follow) NUL its trailing zeros, and
    # 20000-29999 (a group before which only zero groups come) its leading
    # zeros.  Written byte by byte in place, axis j + 1 the j-th digit.
    words = np.empty((3, 10, 10, 10, 10), dtype=np.uint32)
    chars = words.view(np.uint8).reshape(3, 10, 10, 10, 10, 4)
    for j in range(4):
        chars[..., j] = np.arange(48, 58, dtype=np.uint8).reshape((10,) + (1,) * (3 - j))
    trailing, leading = chars[1], chars[2]
    trailing[..., 0, 3] = trailing[..., 0, 0, 2] = trailing[:, 0, 0, 0, 1] = trailing[0, 0, 0, 0, 0] = 0
    leading[0, ..., 0] = leading[0, 0, ..., 1] = leading[0, 0, 0, :, 2] = leading[0, 0, 0, 0, 3] = 0
    groups = words.reshape(30000)
    groups.flags.writeable = False
    # two words before the digits, at index 10 * (first cell of a line)
    # + 5 * (negative) + kind: kind 0 for |x| >= 1 (the integer part follows),
    # kind z + 1 for 0.<z zeros><digits>
    heads = _words(_padded((sep + "-" * neg + ("0." + "0" * (kind - 1) if kind else "")
                            for sep in _SEPARATORS for neg in (0, 1) for kind in range(5)), 8)).reshape(20, 2).T.copy()
    # the word of the fraction's first digit, at index first digit + 10 * (no
    # fraction) + 11 * (a point before it)
    firsts = _words(_padded((point + d for point in ("", ".") for d in (*"0123456789", "")), 4))
    marks = _words(_padded((sep + _MARK for sep in _SEPARATORS), 4))
    return groups, heads, firsts, marks


def _int_words(i, n: int):
    """Integers below 10^(4n) as n words of 4-digit groups, leading zeros NUL."""
    groups = _tables()[0]
    words = np.empty((i.size, n), dtype=np.uint32)
    above_zero = np.ones(i.size, dtype=bool)  # every group before this one is 0
    for j in range(n):
        scale = _POW10_INT[4 * (n - 1 - j)]
        g = i // scale
        i = i - g * scale
        words[:, j] = groups[g + 20000 * above_zero]
        above_zero &= g == 0
    return words


def _kernel_rows(x, first: int):
    """Separator + '%.17g' % v for each v of a float64 array, as rows of
    uint32 words whose NUL bytes are to be dropped.  The first `first` values
    start a line (CRLF); the others follow a comma."""
    groups, heads, firsts, _ = _tables()
    a = np.abs(x)
    left_out = np.flatnonzero(~((a >= _KERNEL_LO) & (a < _KERNEL_HI)))
    a[left_out] = 0.5  # any value the kernel covers: these slots are overwritten below
    k = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.intp)
    hi, lo = _times_pow10(a, 16 - k)
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    off = np.flatnonzero(low | high)
    if off.size:  # log10 rounded across a power of ten: |x| * 10^(16-k) has 16 or 18 digits
        k[off] += high[off].astype(np.intp) - low[off]
        hi[off], lo[off] = _times_pow10(a[off], 16 - k[off])
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)  # D, 17 digits
    k_max = int(k.max()) if k.size else -1
    n_int = (k_max + 4) // 4  # words of the integer part
    if n_int:
        k_int = np.maximum(k, -1)
        scale = _POW10_INT[16 - k_int]
        whole = digits // scale  # 0 for |x| < 1
        digits = (digits - whole * scale) * _POW10_INT[k_int + 1]  # the fraction's digits, left-aligned
    head = digits // 10**8  # first digit and groups 1, 2
    tail = digits - head * 10**8  # groups 3, 4
    lead = head // 10**4
    g2 = head - lead * 10**4
    first_digit = lead // 10**4
    g1 = lead - first_digit * 10**4
    g3 = tail // 10**4
    g4 = tail - g3 * 10**4
    zero4 = g4 == 0
    zero34 = zero4 & (g3 == 0)
    zero234 = zero34 & (g2 == 0)
    kind = np.maximum(-k, 0)
    kind[:first] += 10
    negative = x < 0
    if negative.any():
        kind += 5 * negative
    rows = np.empty((x.size, 7 + n_int), dtype=np.uint32)
    rows[:, 0] = heads[0][kind]
    rows[:, 1] = heads[1][kind]
    if n_int:
        rows[:, 2:2 + n_int] = _int_words(whole, n_int)
        no_fraction = digits == 0
        rows[:, 2 + n_int] = firsts[first_digit + 10 * no_fraction + 11 * ((k >= 0) & ~no_fraction)]
    else:  # |x| < 1: the fraction is D
        rows[:, 2] = firsts[first_digit]
    rows[:, 3 + n_int] = groups[g1 + 10000 * zero234]
    rows[:, 4 + n_int] = groups[g2 + 10000 * zero34]
    rows[:, 5 + n_int] = groups[g3 + 10000 * zero4]
    rows[:, 6 + n_int] = groups[g4 + 10000]
    if left_out.size:  # 28 bytes or more: room for a separator and any '%.17g' text
        texts = (_SEPARATORS[int(i < first)] + "%.17g" % v for i, v in zip(left_out.tolist(), x[left_out].tolist()))
        rows[left_out] = _words(_padded(texts, 4 * rows.shape[1])).reshape(left_out.size, -1)
    return rows


def _is_floats(column) -> bool:
    return isinstance(column, np.ndarray) and column.dtype.kind == "f"


def _quoted(cell: str) -> str:
    """A str cell as csv.writer's default dialect writes it."""
    if "," in cell or '"' in cell or "\r" in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _cell_text(cell) -> str:
    """A str, int, float or None cell as csv.writer's default dialect writes
    it, a float as '%.17g'."""
    if cell is None:
        return ""
    if isinstance(cell, str):
        return _quoted(cell)
    return "%.17g" % cell if isinstance(cell, float) else str(cell)


def _cell_texts(column, lone: bool) -> list[str]:
    """The text of each cell of a cell column, each cell object converted
    once: a column tiled from a few cells repeats the same objects, and keying
    on the object, not its value, keeps 0, 0.0 and -0.0 apart.  A row of one
    empty cell is written as "" (csv.writer does)."""
    texts = {}
    for key, cell in {id(cell): cell for cell in column}.items():
        text = _cell_text(cell)
        texts[key] = '""' if lone and text == "" else text
    return list(map(texts.__getitem__, map(id, column)))


def _render_rows(columns, size: int) -> str:
    """CRLF + the cells of each row, comma-separated, for rows of the given
    columns (float arrays, or lists of cell text)."""
    _, _, _, marks = _tables()
    is_floats = [_is_floats(c) for c in columns]
    floats = [c for c, f in zip(columns, is_floats) if f]
    if floats:
        with np.errstate(invalid="ignore"):  # a float32 signalling NaN is still 'nan'
            x = np.concatenate(floats, dtype=np.float64)
        blocks = iter(_kernel_rows(x, size if is_floats[0] else 0).reshape(len(floats), size, -1))
    rows, runs = [], []
    for i, column in enumerate(columns):
        if is_floats[i]:
            rows.append(next(blocks))
        elif i and not is_floats[i - 1]:
            runs[-1].append(column)  # a run of cell columns takes one marker
        else:
            rows.append(np.full((size, 1), marks[int(i == 0)], dtype=np.uint32))
            runs.append([column])
    text = (np.hstack(rows) if len(rows) > 1 else rows[0]).tobytes().translate(None, b"\0").decode("ascii")
    if not runs:
        return text
    pieces = text.split(_MARK)
    cells = itertools.chain.from_iterable(zip(*(run[0] if len(run) == 1 else map(",".join, zip(*run))
                                                for run in runs)))
    return "".join(itertools.chain.from_iterable(zip(pieces, cells))) + pieces[-1]


def metadata_line(meta: dict) -> str:
    return "# metadata: " + json.dumps(meta, sort_keys=True, separators=(",", ":"))


def _block(columns, fields: int):
    """One row block's columns, checked against the header's field count,
    each cell column as its cells' text; and the block's row count."""
    if len(columns) != fields:
        raise ValueError(f"{fields} header fields but {len(columns)} columns")
    size = len(columns[0]) if columns else 0
    if any(len(c) != size for c in columns):
        raise ValueError("columns of different lengths")
    lone = len(columns) == 1
    return [c if _is_floats(c) else _cell_texts(c, lone) for c in columns], size


def _block_rows(columns, size: int):
    """The rows of a checked block, a chunk of about _CHUNK cells at a time."""
    step = max(1, _CHUNK // max(1, len(columns)))
    return (_render_rows([c[start:start + step] for c in columns], min(step, size - start))
            for start in range(0, size, step))


def _csv_pieces(meta: dict, header: list[str], blocks):
    """The CSV text of a table given as row blocks, as an iterator of pieces:
    the metadata line and header, the rows of each chunk of about _CHUNK
    cells of each block, and the final CRLF.  The first block (no block is a
    table of no rows) is checked here, before any piece is taken; each later
    block when the pieces reach it."""
    blocks = iter(blocks)
    first = _block(next(blocks, [[]] * len(header)), len(header))
    head = metadata_line(meta) + "\r\n" + ",".join(_cell_texts(header, len(header) == 1))
    rest = itertools.chain.from_iterable(_block_rows(*_block(b, len(header))) for b in blocks)
    return itertools.chain((head,), _block_rows(*first), rest, ("\r\n",))


def render_csv(meta: dict, header: list[str], columns) -> str:
    """Metadata line, header and the table's rows as CSV text with CRLF line ends.

    `columns` holds one column per header field, all of one length: a float
    array, whose cells are '%.17g' text, or a sequence of str, int, float or
    None cells.
    """
    return "".join(_csv_pieces(meta, header, [columns]))


def write_csv(path, meta: dict, header: list[str], blocks):
    """Write a table to path a chunk at a time, so that no whole-table str is
    built.  `blocks` is an iterable of row blocks, each a list of columns as
    render_csv takes them; the file holds render_csv's text of the blocks'
    rows end to end.  A column mismatch in the first block raises ValueError
    before the file is opened.  If a later block raises, the partial file is
    removed and the error re-raised."""
    pieces = _csv_pieces(meta, header, blocks)
    with open(path, "w", newline="") as fh:
        try:
            fh.writelines(pieces)
        except BaseException:
            _remove_written(path, fh)
            raise


def _remove_written(path, fh):
    """Remove the file that fh writes, if path names that regular file itself
    and not a device or a link to it."""
    written = os.fstat(fh.fileno())
    with contextlib.suppress(OSError):
        if stat.S_ISREG(written.st_mode) and os.path.samestat(written, os.lstat(path)):
            os.remove(path)


def remove_file(path):
    """Remove path if it names a regular file itself, not a device or a link."""
    with contextlib.suppress(OSError):
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.remove(path)


# Bytes per block of read_fractions: enough to amortize numpy's per-call cost,
# few enough that each temporary stays below malloc's 128 KB mmap threshold.
_READ_BLOCK = 1 << 16
_LINE_MAX = 23  # the longest line read_fractions reads, before its LF: 0., 20 digits, CR
_CARRY = 48  # bytes before a block: the line it continues and the first line's word loads
_ZEROS = 0x3030303030303030  # '00000000'
# the bytes of a line's three words that hold its 1-20 digits: row j for the
# word that ends 8 (2 - j) bytes before the digits do, column the digit count;
# a word's last bytes are its high ones
_DIGIT_BYTES = np.array([[(1 << 8 * m) - 1 << 8 * (8 - m) for m in (min(max(k - 8 * (2 - j), 0), 8) for k in range(21))]
                         for j in range(3)], dtype=np.uint64)
_WORD_ENDS = np.array([[24], [16], [8]])  # bytes from each word's start to the digits' end
_TIE = 5e-7  # a half-ulp of 1e-6, in ulps


def _digit_integers(words, k):
    """The integers D of lines of k digits that end their words (3, L), or
    None if a byte among the digits is not a digit or a D has more than 18
    digits."""
    v = (words ^ np.uint64(_ZEROS)) & np.take(_DIGIT_BYTES, k, axis=1)  # digits as 0-9, other bytes 0
    if ((v | (v + np.uint64(0x7676767676767676))) & np.uint64(0x8080808080808080)).any():  # a byte above 9
        return None
    v = v * np.uint64(10) + (v >> np.uint64(8))  # 2-digit integers in bytes 0, 2, 4 and 6
    v = ((v & np.uint64(0x000000FF000000FF)) * np.uint64(100 + (1000000 << 32))
         + ((v >> np.uint64(16)) & np.uint64(0x000000FF000000FF)) * np.uint64(1 + (10000 << 32))) >> np.uint64(32)
    if (v[0] >= 100).any():
        return None
    return v[0] * np.uint64(10**16) + v[1] * np.uint64(10**8) + v[2]


def _nearest(d, k):
    """The doubles nearest D / 10^k for integers D < 10^18 and k <= 20, and the
    indices of the values that float() must read (see the module docstring)."""
    dh = d.astype(np.float64)
    dl = (d - dh.astype(np.uint64)).view(np.int64).astype(np.float64)  # D = dh + dl exactly
    scale = _POW10[k]
    q = dh / scale
    hi, lo = _times_pow10(q, k)
    r = ((dh - hi) - lo) + dl  # D - q 10^k: dh - hi and the remainder are exact
    ulp = np.spacing(q)
    t = r / (ulp * scale)
    float_read = (np.abs(t - np.rint(t)) >= 0.5 - _TIE) | (q < ulp * (2.0**52 + 2))  # a power of two, or 1 ulp above
    return q + r / scale, np.flatnonzero(float_read)


def read_fractions(fh):
    """Yield float() of the lines from binary file fh's position, an array
    per block of _READ_BLOCK bytes, while a block's lines are in the form of
    the module docstring; stop at the first that is not, fh at its first line."""
    buf = bytearray(_CARRY + _READ_BLOCK + 8)  # a block, the bytes it continues and 8 for the word loads at its end
    block = memoryview(buf)[_CARRY:_CARRY + _READ_BLOCK]
    data = np.frombuffer(buf, dtype=np.uint8)
    words = np.ndarray((len(buf) - 7,), "<u8", buf, strides=(1,))  # the 8 bytes from each offset
    carry = 0
    while True:
        got = fh.readinto(block)
        end = _CARRY + got
        if not got:
            if not carry:
                return
            buf[end] = 10  # the last line ends the file
            end += 1
        begin = _CARRY - carry
        lf = np.flatnonzero(data[begin:end] == 10)
        lf += begin
        carry = end - (int(lf[-1]) + 1 if lf.size else begin)  # bytes of the line the next block continues
        starts = np.empty_like(lf)
        starts[:1] = begin
        starts[1:] = lf[:-1] + 1
        stop = lf - (data[lf - 1] == 13)  # after the last digit
        k = stop - starts - 2  # the digits after '0.'
        fits = carry <= _LINE_MAX and ((k >= 1) & (k <= 20) & (words[starts] & 0xFFFF == 0x2E30)).all()
        d = _digit_integers(words[stop - _WORD_ENDS], k) if fits else None
        if d is None:
            fh.seek(begin - _CARRY - got, 1)  # back to the block's first line
            return
        x, float_read = _nearest(d, k)
        for i in float_read.tolist():
            x[i] = float(buf[starts[i]:stop[i]])
        buf[_CARRY - carry:_CARRY] = buf[end - carry:end]
        yield x


def write_samples(path, meta: dict, chunks):
    write_csv(path, meta, ["eta"], ([chunk] for chunk in chunks))


_LOADTXT = {"dtype": float, "delimiter": ",", "comments": "#", "quotechar": '"', "ndmin": 2}
_BLOCK = 4096  # lines per numpy call, which reads on past them to the end of its _BLOCK-th row
_HEAD_LINE = 1 << 16  # bytes _fraction_file reads of a head line; simulate's metadata line has about 150


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
            rows = _load_body(itertools.chain(lines, _recorded(more, lines)), max_rows)
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
            _body_rows(record, itertools.islice(rest, 1) if _no_row(lines[start]) else rest, encoding, 1)
        except ValueError as exc:
            return start, exc.args[0]
        start += len(record)
    raise InternalError(f"numpy's reader rejects {len(lines)} lines but none of their records alone")


def _fraction_file(fh) -> int:
    """Read the comment lines and the header of binary file fh, at its start:
    how many if each is ASCII and ends in LF or CRLF within _HEAD_LINE bytes
    (text mode splits a line at any CR) and the header is exactly `eta`; else 0."""
    line, n = fh.readline(_HEAD_LINE), 1
    while line.startswith(b"#"):
        if not line.isascii() or b"\r" in line[:-2] or not line.endswith(b"\n"):
            return 0
        line, n = fh.readline(_HEAD_LINE), n + 1
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
    while lines := list(itertools.islice(fh, _BLOCK)):
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


def sample_blocks(path):
    """Yield the samples of the file at path, an array per block, each line read
    once: read_fractions's in `simulate`'s form (ASCII comments, a header
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


def write_text(path, text: str):
    with open(path, "w", newline="") as fh:
        fh.write(text)


def write_json(path, obj: dict):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
