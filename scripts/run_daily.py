#!/usr/bin/env python3
"""Hourly optimized key rates over the synthetic 24-hour turbulence series.

Runs the `daily` pipeline for both combined-loss variants of the 2.2 km link
scenario against the shipped synthetic Cn^2 series (or one supplied by you).
"""
import argparse
import sys
from pathlib import Path

from cvfade.cli import main as cvfade_main

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"


def run(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--outdir", default="results")
    p.add_argument("--cn2", default=str(SCENARIOS / "prague-like.csv"),
                   help="Cn^2 time-series CSV (default: shipped synthetic series)")
    args = p.parse_args(argv)

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for name, tag in (("fig2b_caption.scenario", "loss2.2db"), ("fig2b_text.scenario", "loss4.5db")):
        out = outdir / f"hourly_rates_{tag}.csv"
        rc = cvfade_main(["daily", args.cn2, "--config", str(SCENARIOS / name), "--out", str(out)])
        if rc != 0:
            return rc
        print(f"-> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
