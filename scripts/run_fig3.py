#!/usr/bin/env python3
"""Distance sweeps of optimized key rates over the turbulent link.

Runs the shipped strong-fading scenario for both combined-loss variants
(-4 dB and -6 dB) and, optionally, for the milder Rytov values, writing one
plot-ready CSV per run.
"""
import argparse
import json
import sys
import tempfile
from pathlib import Path

from cvfade.cli import main as cvfade_main

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"


def run(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--outdir", default="results", help="output directory (default: results/)")
    p.add_argument("--sigma-r2", type=float, nargs="*", default=[0.56],
                   help="Rytov variances to sweep (default: just 0.56)")
    args = p.parse_args(argv)

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    with tempfile.TemporaryDirectory() as tmp:
        for name, tag in (("fig3.scenario", "loss4db"), ("fig3_text.scenario", "loss6db")):
            base = json.loads((SCENARIOS / name).read_text())
            for sr2 in args.sigma_r2:
                cfg = json.loads(json.dumps(base))
                cfg["channel"]["fading"]["beam"]["sigma_r2"] = sr2
                cfg_path = Path(tmp) / f"{tag}_sr{sr2:g}.scenario"
                cfg_path.write_text(json.dumps(cfg))
                out = outdir / f"rate_vs_distance_{tag}_sr{sr2:g}.csv"
                rc = cvfade_main(["sweep", "--config", str(cfg_path), "--out", str(out)])
                if rc != 0:
                    return rc
                print(f"-> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
