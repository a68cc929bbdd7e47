"""Acceptance gate: every release-blocking criterion at its stated tolerance.

`pytest tests/test_acceptance.py` prints one PASS/FAIL line per criterion.
"""
import csv
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import fixed_fading
from cvfade.beam import BeamScenario, EllipticSample, simulate, transmittance
from cvfade.channel import CompositeChannel, FadingStats, fading_stats
from cvfade.cli import main
from cvfade.keyrate import FiniteSizeParams, finite_size_penalty, key_rate, key_rate_equivalent_fixed
from cvfade.optimizer import OptimizationSpec, optimize
from cvfade.sources import ProtocolParams

from test_beam import circular_sample, overlap_eta

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"


@pytest.fixture
def report(capsys):
    """One always-visible PASS/FAIL line per criterion, capture or not."""

    def _report(criterion, ok, detail=""):
        with capsys.disabled():
            print(f"\n[ACCEPTANCE {criterion}] {'PASS' if ok else 'FAIL'} {detail}")
        assert ok, f"acceptance criterion {criterion} failed: {detail}"

    return _report


def optimized_rate(v_s, chan, beta=1.0, vm_max=60.0, family="squeezed", finite=None):
    """V_m-optimized rate at fixed squeezing (or the coherent protocol)."""
    if family == "coherent":
        spec = OptimizationSpec(vm_range=(0.0, vm_max), grid=(2, 21))
        template = ProtocolParams(v_s=1.0, v_m=1.0, b=1, beta=beta)
    else:
        spec = OptimizationSpec(
            vm_range=(0.0, vm_max), grid=(2, 21), optimize_vs=False
        )
        template = ProtocolParams(v_s=v_s, v_m=1.0, b=0, beta=beta)
    out = optimize(spec, template, chan, finite)
    return out.result.rate_finite if finite is not None else out.result.rate_asymptotic


def test_criterion_01_fading_equivalence(report):
    """Mixture-covariance and equivalent-fixed-channel key rates agree to 1e-9 bits."""
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        if rng.integers(0, 2):
            p = ProtocolParams(v_s=1.0, v_m=rng.uniform(0.5, 40.0), b=1, beta=rng.uniform(0.5, 1.0))
        else:
            p = ProtocolParams(
                v_s=rng.uniform(0.03, 1.0), v_m=rng.uniform(0.0, 40.0), b=0,
                v_an=rng.uniform(0.0, 3.0), beta=rng.uniform(0.5, 1.0),
                reconciliation="rr",
            )
        mean_eta = rng.uniform(0.05, 1.0)
        var = rng.uniform(0.0, 0.9 * mean_eta * (1.0 - mean_eta))
        chan = CompositeChannel(
            fading=FadingStats(mean_eta, math.sqrt(mean_eta - var)),
            eta1=rng.uniform(0.3, 1.0), eta2=rng.uniform(0.3, 1.0),
            eps1=rng.uniform(0.0, 0.03), eps2=rng.uniform(0.0, 0.03),
            eps_atm=rng.uniform(0.0, 0.03),
        )
        r1 = key_rate(p, chan).rate_asymptotic
        r2 = key_rate_equivalent_fixed(p, chan).rate_asymptotic
        worst = max(worst, abs(r1 - r2))
    report(1, worst <= 1e-9, f"max |rate difference| = {worst:.3e} bits over 1000 draws")


def test_criterion_02_uniform_channel_statistic(tmp_path, capsys, report):
    """cmd_stats on a dense uniform grid: Var(sqrt(eta)) = 1/18 within 1e-4."""
    n = 200_000
    path = tmp_path / "uniform.csv"
    path.write_text("eta\n" + "\n".join(format((i + 0.5) / n, ".17g") for i in range(n)) + "\n")
    assert main(["stats", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    err = abs(doc["var_sqrt"] - 1.0 / 18.0)
    ok = err <= 1e-4 and abs(doc["var_sqrt"] - 0.055) < 1e-3
    report(2, ok, f"var_sqrt = {doc['var_sqrt']:.6f} (|Δ from 1/18| = {err:.2e})")


def test_criterion_03_squeezing_monotonicity_and_fading_insecurity(report):
    """(a) no fading: stronger squeezing never hurts; (b) fading breaks V_s = 0.01."""
    chan0 = CompositeChannel(fading=fixed_fading(0.5))
    rates = [optimized_rate(v_s, chan0) for v_s in (0.9, 0.7, 0.5, 0.3, 0.1)]
    monotone = all(b >= a - 1e-9 for a, b in zip(rates, rates[1:]))

    crossover = None
    for var in (0.01, 0.02, 0.03, 0.04, 0.05):
        chan = CompositeChannel(fading=FadingStats(0.5, math.sqrt(0.5 - var)))
        r_hard = optimized_rate(0.01, chan)
        r_mild = optimized_rate(0.1, chan)
        if r_hard <= 0.0 < r_mild:
            crossover = (var, r_hard, r_mild)
            break
    ok = monotone and crossover is not None
    detail = (
        f"rates toward stronger squeezing {['%.4f' % r for r in rates]}; "
        f"insecurity witness at Var = {crossover[0]}: R(0.01) = {crossover[1]:.4f} <= 0 < "
        f"{crossover[2]:.4f} = R(0.1)" if crossover else "no crossover found"
    )
    report(3, ok, detail)


def test_criterion_04_dr_rr_loss_behavior(report):
    """Pure loss, beta = 1, coherent: RR positive everywhere; DR bounded by eta = 1/2."""
    rr_ok = True
    for eta in np.arange(0.05, 1.0001, 0.05):
        chan = CompositeChannel(fading=fixed_fading(float(eta)))
        if optimized_rate(None, chan, family="coherent", vm_max=100.0) <= 0.0:
            rr_ok = False
            break

    def dr_rate(eta):
        chan = CompositeChannel(fading=fixed_fading(eta))
        spec = OptimizationSpec(vm_range=(0.0, 100.0), grid=(2, 21))
        template = ProtocolParams(v_s=1.0, v_m=1.0, b=1, beta=1.0, reconciliation="dr")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return optimize(spec, template, chan).result.rate_asymptotic

    dr_low = dr_rate(0.4)
    dr_high = dr_rate(0.8)
    ok = rr_ok and dr_low <= 1e-9 and dr_high > 0.0
    report(4, ok, f"RR > 0 on eta grid: {rr_ok}; DR(0.4) = {dr_low:.4f} <= 0 < DR(0.8) = {dr_high:.4f}")


def test_criterion_05_loss_tolerance_crossover(report):
    """At Var = 0.01 the mildly squeezed protocol tolerates strictly more loss (dB)."""
    var = 0.01

    def rate_at(v_s, loss_db):
        mean_eta = 10.0 ** (-loss_db / 10.0)
        chan = CompositeChannel(fading=FadingStats(mean_eta, math.sqrt(mean_eta - var)))
        return optimized_rate(v_s, chan)

    def max_loss(v_s):
        # Var = 0.01 needs <eta>(1 - <eta>) >= 0.01, so start just below 0 dB
        lo, hi = 0.5, 16.5
        assert rate_at(v_s, lo) > 0.0 and rate_at(v_s, hi) <= 0.0
        for _ in range(8):  # 16 dB / 2^8 = 0.0625 dB resolution
            mid = 0.5 * (lo + hi)
            if rate_at(v_s, mid) > 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    tol_mild = max_loss(0.9)
    tol_hard = max_loss(0.1)
    ok = tol_mild > tol_hard + 0.1
    report(5, ok, f"max tolerable loss: V_s=0.9 -> {tol_mild:.2f} dB, V_s=0.1 -> {tol_hard:.2f} dB")


def test_criterion_06_transmittance_oracle(report):
    """Single-shot transmittance vs brute-force overlap quadrature: median error <= 5%."""
    scen = BeamScenario(wavelength=1.55e-6, w0=0.04, aperture=0.02, distance=1000.0, sigma_r2=0.1)
    a = scen.aperture
    rng = np.random.default_rng(6)
    errs = []
    for _ in range(1000):
        w = rng.uniform(0.5, 2.0) * a
        r0 = rng.uniform(0.0, 2.0) * a
        ang = rng.uniform(0.0, 2.0 * np.pi)
        theta = circular_sample(w, scen.w0)
        s = EllipticSample(
            x0=r0 * math.cos(ang), y0=r0 * math.sin(ang),
            theta1=theta, theta2=theta, phi=rng.uniform(0.0, np.pi / 2),
        )
        got = transmittance(s, scen)
        want = overlap_eta(w, w, s.x0, s.y0, 0.0, a, nr=96, nth=384)
        errs.append(abs(got - want) / max(want, 1e-300))
    med = float(np.median(errs))
    report(6, med <= 0.05, f"median relative error = {med:.4f} over 1000 circular configurations")


def test_criterion_07_fading_variance_peaks(report):
    """Var(sqrt(eta))(L) has interior peaks at the documented locations/levels."""
    targets = [
        (0.56, 1250.0, 2250.0, 2.7e-3),
        (0.25, 1500.0, 2500.0, 1.2e-3),
        (0.09, 1750.0, 2750.0, 4.0e-4),
    ]
    distances = np.arange(250.0, 3501.0, 250.0)
    details = []
    ok = True
    for sr2, lo, hi, level in targets:
        variances = []
        for L in distances:
            scen = BeamScenario(
                wavelength=1.55e-6, w0=0.04, aperture=0.02, distance=float(L), sigma_r2=sr2
            )
            st = fading_stats(simulate(scen, n=100_000, seed=7).samples)
            variances.append(st.var_sqrt)
        i = int(np.argmax(variances))
        peak_l, peak_v = distances[i], variances[i]
        interior = 0 < i < len(distances) - 1
        in_window = lo <= peak_l <= hi
        in_level = level / 2.0 <= peak_v <= 2.0 * level
        ok = ok and interior and in_window and in_level
        details.append(f"sr2={sr2}: peak {peak_v:.2e} at {peak_l:.0f} m (window [{lo:.0f},{hi:.0f}], level ~{level:.1e})")
    report(7, ok, "; ".join(details))


def _run_fig3(config_path, tmp_path, tag):
    out = tmp_path / f"fig3_{tag}.csv"
    assert main(["sweep", "--config", str(config_path), "--out", str(out)]) == 0
    lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    by_label = {}
    for row in csv.DictReader(lines):
        by_label.setdefault(row["label"], []).append(
            (float(row["sweep_value"]), float(row["rate_finite"]))
        )
    return by_label


def test_criterion_08_protocol_ordering_with_distance(tmp_path, report):
    """Squeezed (deeper cap first) >= coherent at every distance; longer reach."""
    details = []
    ok = True
    for tag, cfg in (("caption", "fig3.scenario"), ("text", "fig3_text.scenario")):
        table = _run_fig3(SCENARIOS / cfg, tmp_path, tag)
        coh = dict(table["coherent"])
        sq3 = dict(table["squeezed_cap3db"])
        sq10 = dict(table["squeezed_cap10db"])
        distances = sorted(coh)
        ordered = all(
            sq10[L] >= sq3[L] - 1e-9 and sq3[L] >= coh[L] - 1e-9 for L in distances
        )

        def max_positive(rates):
            positive = [L for L in distances if rates[L] > 0.0]
            return max(positive) if positive else 0.0

        reach_coh = max_positive(coh)
        reach_sq = max(max_positive(sq3), max_positive(sq10))
        longer = reach_sq > reach_coh
        ok = ok and ordered and longer
        details.append(
            f"{tag}: ordering {'ok' if ordered else 'VIOLATED'}, reach coherent {reach_coh:.0f} m"
            f" < squeezed {reach_sq:.0f} m"
        )
    report(8, ok, "; ".join(details))


def test_criterion_09_finite_size_correction(report):
    """Penalty value, monotonicity, and rate_finite <= rate_asymptotic."""
    delta = finite_size_penalty(1e6, 1e-10)
    value_ok = abs(delta - 0.0410) <= 1e-4
    grid = np.logspace(3, 14, 45)
    deltas = [finite_size_penalty(n, 1e-10) for n in grid]
    monotone = all(b < a for a, b in zip(deltas, deltas[1:]))

    rng = np.random.default_rng(9)
    bounded = True
    for _ in range(200):
        p = ProtocolParams(v_s=rng.uniform(0.05, 1.0), v_m=rng.uniform(0.0, 30.0), b=0,
                           beta=rng.uniform(0.5, 1.0))
        mean_eta = rng.uniform(0.05, 1.0)
        var = rng.uniform(0.0, 0.9 * mean_eta * (1.0 - mean_eta))
        chan = CompositeChannel(fading=FadingStats(mean_eta, math.sqrt(mean_eta - var)))
        res = key_rate(p, chan, FiniteSizeParams(n=float(rng.uniform(1e3, 1e9))))
        if res.rate_finite > res.rate_asymptotic:
            bounded = False
            break
    ok = value_ok and monotone and bounded
    report(9, ok, f"Delta(1e6, 1e-10) = {delta:.5f}; monotone: {monotone}; bounded: {bounded}")


def test_criterion_10_cli_determinism(tmp_path, report):
    """Every command, rerun with identical config+seed, is byte-identical for 1..8 workers."""
    beam_cfg = tmp_path / "beam.scenario"
    beam_cfg.write_text(json.dumps({
        "seed": 13,
        "protocols": [
            {"label": "coherent", "family": "coherent", "beta": 0.95,
             "optimizer": {"vm_max": 40.0, "grid": [3, 9]}},
            {"label": "squeezed", "family": "squeezed", "beta": 0.95,
             "optimizer": {"vs_cap_db": -10.0, "vm_max": 40.0, "grid": [5, 9]}},
        ],
        "channel": {
            "eta1_db": -3.0, "eps2": 0.01,
            "fading": {"beam": {"wavelength": 1.55e-6, "w0": 0.04, "aperture": 0.02,
                                 "distance": 1200.0, "sigma_r2": 0.3, "n_samples": 3000}},
        },
        "finite_size": {"n": 1e6},
        "sweep": {"variable": "distance", "values": [500.0, 1000.0, 1500.0, 2000.0]},
    }))
    daily_cfg = tmp_path / "daily.scenario"
    daily_cfg.write_text(json.dumps({
        "seed": 13,
        "protocol": {"label": "coherent", "family": "coherent", "beta": 0.95,
                     "optimizer": {"vm_max": 40.0, "grid": [3, 7]}},
        "channel": {"eta1_db": -3.0, "eps2": 0.01,
                    "fading": {"beam": {"wavelength": 1.55e-6, "w0": 0.04, "aperture": 0.03}}},
        "daily": {"n_samples": 1500},
    }))
    samples_csv = tmp_path / "s.csv"
    samples_csv.write_text("eta\n" + "\n".join(str(0.1 + 0.008 * i) for i in range(100)) + "\n")

    def run(cmd, out, jobs):
        argv = {
            "simulate": ["simulate", "--config", str(beam_cfg), "--out", out, "--n", "4000"],
            "stats": ["stats", str(samples_csv), "--out", out],
            "keyrate": ["keyrate", "--config", str(beam_cfg), "--out", out],
            "optimize": ["optimize", "--config", str(beam_cfg), "--out", out],
            "sweep": ["sweep", "--config", str(beam_cfg), "--out", out],
            "daily": ["daily", str(SCENARIOS / "prague-like.csv"), "--config", str(daily_cfg),
                      "--out", out],
        }[cmd]
        if cmd != "stats":
            argv += ["--jobs", str(jobs)]
        assert main(argv) == 0
        return Path(out).read_bytes()

    failures = []
    for cmd in ("simulate", "stats", "keyrate", "optimize", "sweep", "daily"):
        blobs = [run(cmd, str(tmp_path / f"{cmd}_{j}.out"), j) for j in (1, 3, 8)]
        rerun = run(cmd, str(tmp_path / f"{cmd}_rerun.out"), 1)
        if not (blobs[0] == blobs[1] == blobs[2] == rerun):
            failures.append(cmd)
    report(10, not failures, f"byte-identical across 1/3/8 workers and reruns: "
                             f"{'all commands' if not failures else 'FAILED for ' + ','.join(failures)}")
