"""Traced in-process run of the cvfade CLI, and the arithmetic on its spans.

Run as a program, it wraps public functions of the cvfade modules in timing
spans, calls ``cvfade.cli.main(argv)`` in this process, and when the command
returns writes every span to a JSON file:

    python3 perfbench/tracer.py --spans spans.json -- sweep --config x.scenario --out y.csv

Modules bind imported names at import time (``from .keyrate import key_rate``),
so each wrapper replaces the function under every cvfade module attribute that
refers to it, the defining module included.  Spans are kept in one list in
memory and written out only at the end.  The stack of open spans is a single
list, so the traced command must run single-threaded (``--jobs 1``).
"""
from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time
import uuid

# Layer boundaries: "<module>.<function>" in the cvfade package.
TARGETS = (
    "cli.main",
    "scenario.load_scenario",
    "scenario.resolve_fading",
    "scenario.build_channel",
    "beam.simulate",
    "specialfn.bessel_i0e",
    "specialfn.bessel_i1e",
    "specialfn.lambert_w_exp",
    "channel.apply_composite",
    "channel.read_eta_csv",
    "channel.fading_stats",
    "sources.build_source",
    "gaussian.symplectic_eigenvalues",
    "keyrate.key_rate",
    "optimizer.optimize",
    "outputs.render_csv",
    "outputs.write_text",
    "outputs.write_json",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Work counted at a boundary, from (args, kwargs, result); only O(1) work here,
# because it runs inside the parent span's time.
COUNTERS = {
    "beam.simulate": lambda a, k, r: int(_arg(a, k, 1, "n")),
    "optimizer.optimize": lambda a, k, r: r.evaluations,
    "channel.read_eta_csv": lambda a, k, r: int(r.size),
    "outputs.write_text": lambda a, k, r: len(_arg(a, k, 1, "text")),
    # the rendered text itself; its rows and cells are counted after the run
    "outputs.render_csv": lambda a, k, r: r,
}


class Tracer:
    """Collects spans ``[name, start_ns, end_ns, parent_index, value]``."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, counter=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Replace every cvfade module attribute bound to a target function."""
        importlib.import_module("cvfade.cli")  # imports every layer
        modules = [m for n, m in sys.modules.items() if n == "cvfade" or n.startswith("cvfade.")]
        for target in TARGETS:
            module_name, attr = target.split(".")
            original = getattr(importlib.import_module(f"cvfade.{module_name}"), attr)
            traced = self.wrap(target, original, COUNTERS.get(target))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)

    def document(self) -> dict:
        """Spans as written to disk; rendered CSV text becomes its (rows, cells)."""
        spans = []
        for name, start, end, parent, value in self.spans:
            if isinstance(value, str):
                value = csv_rows_cells(value)
            spans.append([name, start, end, parent, value])
        return {"run_id": self.run_id, "fields": ["name", "start_ns", "end_ns", "parent", "value"],
                "spans": spans}


def csv_rows_cells(text: str) -> list[int]:
    """Data rows and cells of a rendered CSV (one metadata line, one header line)."""
    lines = text.count("\n")
    header = text.split("\n", 2)[1]
    columns = header.count(",") + 1
    return [lines - 2, (lines - 2) * columns]


def self_times(spans) -> list[int]:
    """Self time of each span: its duration minus the time its child spans cover.

    Spans of one thread nest and do not overlap, so the covered time is the sum
    of the direct children's durations.
    """
    covered = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def aggregate(spans) -> dict:
    """Per span name: calls, inclusive ns, self ns, summed values.

    Also counts the key_rate calls made under an optimize span.
    """
    selfs = self_times(spans)
    totals: dict[str, dict] = {}
    under_optimize = [False] * len(spans)
    for i, (name, start, end, parent, value) in enumerate(spans):
        t = totals.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0, "value": 0})
        t["calls"] += 1
        t["ns"] += end - start
        t["self_ns"] += selfs[i]
        if isinstance(value, (int, float)):
            t["value"] += value
        elif isinstance(value, list):  # [rows, cells]
            t["value"] = [a + b for a, b in zip(t["value"] or [0, 0], value)]
        under_optimize[i] = name == "optimizer.optimize" or (parent >= 0 and under_optimize[parent])
    totals["keyrate.key_rate.under_optimize"] = {
        "calls": sum(1 for i, s in enumerate(spans) if s[0] == "keyrate.key_rate" and under_optimize[i])
    }
    return totals


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--spans", required=True, help="write the spans here as JSON")
    p.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- then the cvfade CLI arguments")
    args = p.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("cvfade.cli")
    code = cli.main(cli_args)
    with open(args.spans, "w") as fh:
        json.dump(tracer.document(), fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
