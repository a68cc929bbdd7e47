"""Deterministic CSV/JSON writers shared by the CLI commands.

Every CSV starts with a `# metadata:` comment line (config hash, seed, and
for sample files the generator) followed by an RFC-4180-style header row.
No timestamps anywhere: reruns with identical inputs must be byte-identical.
"""
from __future__ import annotations

import csv
import io
import json

import numpy as np

# Values formatted per string operation on the float-array path of render_csv:
# large enough to amortize the call, small enough that no full list of line
# strings is ever held beside the output.
_CHUNK = 8192


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
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    if isinstance(rows, np.ndarray) and rows.ndim == 1 and rows.dtype.kind == "f":
        for start in range(0, rows.size, _CHUNK):
            chunk = tuple(rows[start:start + _CHUNK].tolist())
            buf.write(("%.17g\r\n" * len(chunk)) % chunk)
        return buf.getvalue()
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
