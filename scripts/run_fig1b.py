#!/usr/bin/env python3
"""Optimized key rate versus fixed squeezing on fluctuation-free and fading slices.

Sweeps V_s with the modulation optimized at every point, for several fading
strengths Var(sqrt(eta)) at fixed mean transmittance 1/2.
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
    p.add_argument("--outdir", default="results")
    p.add_argument("--var-sqrt", type=float, nargs="*", default=[0.0, 0.005, 0.01, 0.02],
                   help="fading strengths to scan")
    args = p.parse_args(argv)

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    base = json.loads((SCENARIOS / "fig1b.scenario").read_text())
    with tempfile.TemporaryDirectory() as tmp:
        for var in args.var_sqrt:
            cfg = json.loads(json.dumps(base))
            cfg["channel"]["fading"]["stats"]["var_sqrt"] = var
            cfg_path = Path(tmp) / f"fig1b_var{var:g}.scenario"
            cfg_path.write_text(json.dumps(cfg))
            out = outdir / f"rate_vs_squeezing_var{var:g}.csv"
            rc = cvfade_main(["sweep", "--config", str(cfg_path), "--out", str(out)])
            if rc != 0:
                return rc
            print(f"-> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
