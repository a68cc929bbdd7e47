#!/usr/bin/env python3
"""Repeat the benchmark over seeds and report each metric's median and spread.

    python3 perfbench/prove.py --seeds 1-10 [--workloads fig3_sweep ...] [--trace 0] [--out FILE]
                               [--baseline perfbench/baseline.json]

Runs perfbench/run.py once per (seed, workload), workloads interleaved, with
BENCHMARK.json's run_seconds.  For every end-to-end metric it prints the
median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median next to the metric's bound; a spread at or above a third
of the bound is marked.  With --trace 1 it reports the per-layer metrics.
--baseline replaces the end_to_end (or, with --trace 1, per_layer) section of
that file, per workload run, with these figures.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--workloads", nargs="+", default=names, choices=names)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="also write the per-run results here as JSON")
    p.add_argument("--baseline", help="record the figures in this baseline file")
    args = p.parse_args(argv)

    results = {w: [] for w in args.workloads}
    for seed in seed_list(args.seeds):
        for w in args.workloads:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            result["seed"] = seed
            results[w].append(result)
            shown = " ".join(f"{k}={v['value']:.5g}" for k, v in list(result["metrics"].items())[:4])
            print(f"{w} seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} {shown}",
                  flush=True)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary = {}
    for w, runs in results.items():
        print(f"\n{w}: {len(runs)} runs, all correct: {all(r['correct'] for r in runs)}")
        summary[w] = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            summary[w][name] = (values[0] if args.trace else
                                {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                 "unit": runs[0]["metrics"][name]["unit"], "runs": len(values)})
            bound = bounds.get(name)
            mark = "" if bound is None or spread < bound / 3 else "  <-- spread >= bound/3"
            limit = "" if bound is None else f" bound {bound}"
            print(f"  {name:44s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.3f}{limit}{mark}")
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1))
    if args.baseline:
        path = Path(args.baseline)
        doc = json.loads(path.read_text())
        doc["run_seconds"] = bench["run_seconds"]
        doc.setdefault("per_layer" if args.trace else "end_to_end", {}).update(summary)
        path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
