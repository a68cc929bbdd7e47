#!/usr/bin/env python3
"""cvfade benchmark: one workload through the real CLI, with checked outputs.

    python3 perfbench/run.py --workload fig3_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the CLI runs from ``src/`` with no
install.  Each CLI run is a child process that runs the CLI as
``python3 -m cvfade ... --jobs 1`` does (CLI_CODE),
started one at a time and repeated until ``--seconds`` have passed, at least
MIN_RUNS times; end-to-end metrics are medians over those runs.  With
``--trace 1`` the benchmark then makes one traced run (tracer.py) and reports
per-layer metrics instead.  Every run's outputs must be byte-identical, and
the first run's outputs are checked (checks.py).  The last line of standard
output is one JSON object with the keys correct, attempted, failed, metrics.

End-to-end metrics:
  cpu_s        user + system CPU seconds of the CLI child, scaled to a
               reference host speed (see below).  Wall time also counts time
               the host takes the virtual CPU away; on a shared 2-vCPU machine
               that doubled the run-to-run spread, so wall time is printed
               (wall_s) and reported per layer (trace.untraced_wall_s) but not
               gated.
  throughput   rows or samples per scaled CPU second of the CLI child
  setup_s      scaled CPU seconds a fresh process spends importing cvfade and
               loading the workload's scenario (median of SETUP_RUNS processes)
  peak_rss_mb  peak resident memory of the CLI child (its own VmHWM)

Host speed.  On a shared host the CPU time of the same work drifts by 10-50 %
over seconds to minutes, as other tenants load the caches and memory bus.  The
benchmark therefore times a fixed piece of work in its own process
(calibrate()) before the first child and after every child, and scales each
child's CPU time by CAL_REF_S / (mean of the two calibrations around it).  The
child's raw CPU time is printed too (raw_cpu_s).  On one 2-vCPU Xeon VM, over
twelve 20-s windows of eta_stats, this brought the spread (q3 - q1) / median of
the per-window medians from 0.34 down to 0.07.

Workloads (BENCHMARK.json says why each was chosen):
  fig3_sweep    fig3 sweep at one link length, three optimized variants (beam channel)
  fading_sweep  sweep over Var(sqrt(eta)), fixed variants, no optimizer
  eta_simulate  simulate 3e5 beam transmittance samples to CSV
  eta_stats     stats on a 1e6-sample CSV made during set-up
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIG3 = ROOT / "scenarios" / "fig3.scenario"
FADING = HERE / "fading_sweep.scenario"
WORK = ROOT / ".bench_work"

WORKLOADS = ("fig3_sweep", "fading_sweep", "eta_simulate", "eta_stats")
MIN_RUNS = 3
SETUP_RUNS = 7
# Calibration CPU seconds that scaled times are expressed against: about what
# calibrate() takes on a 2-vCPU Xeon VM at quiet times, so that scaled and raw
# CPU times read alike there.  A constant: both sides of a comparison use it.
CAL_REF_S = 0.2
CHILD_TIMEOUT_S = 60.0
# Runs are kept to a few seconds, so that many fit in one measurement and each
# sits close to the calibrations that scale it: over 20-s measurements, runs of
# 4-6 s spread three to six times as much as runs of 1-1.5 s (over five
# seeds on a 2-vCPU VM: fig3_sweep 0.21 against 0.03, eta_simulate 0.16
# against 0.05).
# One of fig3's 13 distances, mid-range: three optimized rows, the full
# sweep's kinds of work in runs of about 1.5 s.
FIG3_DISTANCES = (1750.0,)
SIMULATE_SAMPLES = 300_000
STATS_SAMPLES = 1_000_000
FADING_KEY_RATE_EVERY = 10  # sweep points between equivalent-channel rate checks
# Set-up probe: a fresh process measures the CPU time of its own import of the
# CLI's modules and the scenario load; interpreter start-up is outside the
# repository's control.
SETUP_CODE = ("import sys, time; t = time.process_time(); import cvfade, cvfade.cli; "
              "cvfade.scenario.load_scenario(sys.argv[1]); print(time.process_time() - t)")
# Runs the CLI as `python3 -m cvfade` does, then writes the process's peak
# resident memory (VmHWM, kB) to the file named by its first argument.  The
# ru_maxrss that wait4 reports will not do: Linux carries the spawning
# process's own peak into the child's at exec, and this process is larger than
# some CLI runs.
CLI_CODE = """\
import runpy, sys
rss = sys.argv.pop(1)
try:
    runpy.run_module("cvfade", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as status, open(rss, "w") as out:
        out.write(next(line for line in status if line.startswith("VmHWM:")).split()[1])
"""


_CAL_MATRIX = np.eye(4) * 20.0 + np.arange(16.0).reshape(4, 4)
_CAL_VECTOR = np.random.default_rng(0).random(1_000_000)


def calibrate() -> float:
    """CPU seconds of a fixed piece of work: a probe of the host's current speed.

    It mixes the kinds of work the workloads do: interpreted Python with float
    formatting and parsing, many small numpy calls, and passes over an 8 MB
    array.
    """
    start = time.process_time()
    [float(s) for s in (repr(i * 1.2345e-7) for i in range(100_000))]
    for i in range(6000):
        np.linalg.eigvalsh(_CAL_MATRIX + i * 1e-9)
    for _ in range(3):
        np.sort(_CAL_VECTOR)
        np.sqrt(_CAL_VECTOR).sum()
        np.exp(-_CAL_VECTOR).sum()
    return time.process_time() - start


@dataclass
class Plan:
    """What one workload runs and how its outputs are checked."""

    scenario: Path                              # loaded by the set-up probe
    argv: list[str]                             # cvfade CLI arguments
    outputs: list[Path]                         # files the CLI writes
    units: int                                  # rows or samples per run
    unit: str
    check: Callable[[list[bytes]], list[str]]   # errors in the outputs
    config: object = None


@dataclass
class Runs:
    walls: list[float] = field(default_factory=list)
    cpus: list[float] = field(default_factory=list)     # raw CPU seconds
    scaled: list[float] = field(default_factory=list)   # CPU seconds at CAL_REF_S
    setup: list[float] = field(default_factory=list)    # scaled, like `scaled`
    cals: list[float] = field(default_factory=list)     # calibrate() seconds
    rss_mb: list[float] = field(default_factory=list)
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    outputs: list[bytes] | None = None          # first successful run's bytes


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CVFADE_CONFIG_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(cmd: list[str], env: dict, log: Path) -> tuple[float, float, int]:
    """Run one process to exit: (wall seconds, CPU seconds, exit code).

    os.wait4 gives this child's own resource usage.  A child still running
    after CHILD_TIMEOUT_S is killed.
    """
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, proc.returncode


def cli(argv: list[str], rss: Path) -> list[str]:
    """The command for one CLI run, which writes its peak RSS in kB to `rss`."""
    return [sys.executable, "-c", CLI_CODE, str(rss), *argv]


def plan_for(name: str, work: Path, seed: int, env: dict) -> Plan:
    from cvfade.scenario import load_scenario, sweep_values

    if name in ("fig3_sweep", "fading_sweep"):
        out = work / "rates.csv"
        if name == "fig3_sweep":
            raw = json.loads(FIG3.read_text())
            raw["sweep"] = {"variable": "distance", "values": list(FIG3_DISTANCES)}
            scenario = work / "fig3_sweep.scenario"
            scenario.write_text(json.dumps(raw, indent=2))
            every = 1
        else:
            scenario, every = FADING, FADING_KEY_RATE_EVERY
        config = load_scenario(scenario)
        values = sweep_values(config.sweep)
        argv = ["sweep", "--config", str(scenario), "--out", str(out), "--seed", str(seed), "--jobs", "1"]
        return Plan(scenario, argv, [out], len(values) * len(config.variants), "rows",
                    lambda d: checks.check_rate_table(d[0], config, values, every), config)

    config = load_scenario(FIG3)
    n = SIMULATE_SAMPLES if name == "eta_simulate" else STATS_SAMPLES
    reference = checks.beam_reference(config, n, seed)
    simulate = ["simulate", "--config", str(FIG3), "--n", str(n), "--seed", str(seed), "--jobs", "1"]
    if name == "eta_simulate":
        out = work / "eta.csv"
        return Plan(FIG3, simulate + ["--out", str(out)], [out, Path(f"{out}.json")], n, "samples",
                    lambda d: checks.check_eta_csv(d[0], d[1], reference, seed), config)
    samples = work / "eta_input.csv"  # made here, outside the timed runs
    *_, code = run_child(cli(simulate + ["--out", str(samples)], work / "rss_kb"), env, work / "stderr.log")
    if code != 0:
        raise RuntimeError(f"set-up `cvfade simulate` exited {code}; see {work / 'stderr.log'}")
    out = work / "stats.json"
    return Plan(FIG3, ["stats", str(samples), "--out", str(out)], [out], n, "samples",
                lambda d: checks.check_stats_json(d[0], reference), config)


def setup_time(plan: Plan, env: dict) -> float:
    """CPU seconds a fresh process takes to import cvfade and load the scenario."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(plan.scenario)], env=env,
                          stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()}")
    return float(proc.stdout)


def read_outputs(plan: Plan) -> list[bytes] | None:
    try:
        return [p.read_bytes() for p in plan.outputs]
    except FileNotFoundError:
        return None


def record(runs: Runs, what: str, code: int, outputs: list[bytes] | None) -> None:
    """Count a finished run as failed unless it exited 0 with the first run's bytes."""
    if code != 0 or outputs is None:
        runs.failed += 1
        runs.errors.append(f"{what}: exit code {code}" + ("" if outputs is not None else ", outputs missing"))
    elif runs.outputs is None:
        runs.outputs = outputs
    elif outputs != runs.outputs:
        runs.failed += 1
        runs.errors.append(f"{what}: outputs differ from the first run")


def timed_runs(plan: Plan, seconds: float, env: dict, log: Path) -> Runs:
    """Repeat the CLI run for `seconds` (at least MIN_RUNS times).

    The set-up probes go between the first runs, so that they sample the same
    stretch of time as the runs do.  A calibration follows every child, and
    each child's CPU time is scaled by the two calibrations around it.
    """
    runs, rss = Runs(), log.with_name("rss_kb")
    setup_time(plan, env)  # writes bytecode caches; not counted
    calibrate()            # warms the calibration's own caches; not counted
    runs.cals.append(calibrate())

    def scaled(cpu: float) -> float:
        runs.cals.append(calibrate())
        return cpu * CAL_REF_S / ((runs.cals[-2] + runs.cals[-1]) / 2.0)

    deadline = time.perf_counter() + seconds
    while len(runs.walls) < MIN_RUNS or time.perf_counter() < deadline:
        if len(runs.setup) < SETUP_RUNS:
            runs.setup.append(scaled(setup_time(plan, env)))
        for p in plan.outputs + [rss]:
            p.unlink(missing_ok=True)
        wall, cpu, code = run_child(cli(plan.argv, rss), env, log)
        runs.walls.append(wall)
        runs.cpus.append(cpu)
        runs.scaled.append(scaled(cpu))
        runs.rss_mb.append(int(rss.read_text()) / 1024.0 if rss.exists() else 0.0)
        record(runs, f"run {len(runs.walls)}", code, read_outputs(plan) if code == 0 else None)
        if code != 0:
            break
    while len(runs.setup) < SETUP_RUNS:
        runs.setup.append(scaled(setup_time(plan, env)))
    return runs


def traced_run(plan: Plan, env: dict, work: Path, runs: Runs) -> tuple[dict, float]:
    """One traced CLI run; returns (spans document, process wall seconds)."""
    spans = work / "spans.json"
    for p in plan.outputs:
        p.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "tracer.py"), "--spans", str(spans), "--", *plan.argv]
    wall, _, code = run_child(cmd, env, work / "stderr.log")
    record(runs, "traced run", code, read_outputs(plan) if code == 0 else None)
    if code != 0:
        return {}, wall
    return json.loads(spans.read_text()), wall


def layer_metrics(doc: dict, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics of one traced run, as {name: (value, unit)}."""
    agg = tracer.aggregate(doc["spans"])

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    def per(a, b):
        return a / b if b else 0.0

    m = {}
    for name in ("gaussian.symplectic_eigenvalues", "sources.build_source", "channel.apply_composite",
                 "keyrate.key_rate", "optimizer.optimize", "beam.simulate",
                 "scenario.load_scenario", "scenario.resolve_fading", "scenario.build_channel"):
        m[f"{name}.calls"] = (get(name, "calls"), "count")
        m[f"{name}.self_s"] = (get(name, "self_ns") / 1e9, "s")
    key_rates = get("keyrate.key_rate", "calls")
    m["keyrate.key_rate.us_per_call"] = (per(get("keyrate.key_rate", "ns") / 1e3, key_rates), "us")
    m["gaussian.spectra_per_key_rate"] = (per(get("gaussian.symplectic_eigenvalues", "calls"), key_rates), "ratio")
    m["optimizer.evaluations"] = (get("optimizer.optimize", "value"), "count")
    m["optimizer.key_rate_calls_per_optimize"] = (
        per(agg["keyrate.key_rate.under_optimize"]["calls"], get("optimizer.optimize", "calls")), "ratio")
    samples = get("beam.simulate", "value")
    m["beam.samples"] = (samples, "count")
    m["beam.ns_per_sample"] = (per(get("beam.simulate", "ns"), samples), "ns")
    for fn in ("bessel_i0e", "bessel_i1e", "lambert_w_exp"):
        m[f"specialfn.{fn}.s"] = (get(f"specialfn.{fn}", "ns") / 1e9, "s")
    rows, cells = get("outputs.render_csv", "value") or (0, 0)
    m["outputs.render_csv.s"] = (get("outputs.render_csv", "ns") / 1e9, "s")
    m["outputs.render_csv.rows"] = (rows, "count")
    m["outputs.render_csv.ns_per_cell"] = (per(get("outputs.render_csv", "ns"), cells), "ns")
    m["outputs.write_text.s"] = (get("outputs.write_text", "ns") / 1e9, "s")
    m["outputs.write_text.bytes"] = (get("outputs.write_text", "value"), "bytes")
    m["channel.read_eta_csv.s"] = (get("channel.read_eta_csv", "ns") / 1e9, "s")
    m["channel.read_eta_csv.rows"] = (get("channel.read_eta_csv", "value"), "count")
    m["channel.fading_stats.s"] = (get("channel.fading_stats", "ns") / 1e9, "s")
    m["cli.self_s"] = (get("cli.main", "self_ns") / 1e9, "s")
    main_ns = get("cli.main", "ns")
    m["trace.main_s"] = (main_ns / 1e9, "s")
    m["trace.self_share"] = (per(sum(t.get("self_ns", 0) for t in agg.values()), main_ns), "ratio")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.untraced_wall_s"] = (untraced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    m["trace.spans"] = (len(doc["spans"]), "count")
    return m


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def provenance(args, plan: Plan, runs: Runs) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "units_per_run": plan.units,
        "unit": plan.unit,
        "bytes_written_per_run": sum(len(b) for b in runs.outputs or []),
        "cli_argv": plan.argv,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="cvfade benchmark (see module docstring)")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True, help="passed to the CLI as --seed")
    p.add_argument("--seconds", type=float, required=True, help="how long to repeat the CLI run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced run, per-layer metrics")
    args = p.parse_args(argv)

    missing = [str(q) for q in (SRC / "cvfade" / "cli.py", FIG3) if not q.is_file()]
    if missing:
        print(f"error: not a cvfade checkout, missing {missing}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env, log = child_env(), work / "stderr.log"

    plan = plan_for(args.workload, work, args.seed, env)
    runs = timed_runs(plan, args.seconds, env, log)
    if runs.outputs is not None:
        runs.errors += plan.check(runs.outputs)
    wall, cpu = statistics.median(runs.walls), statistics.median(runs.scaled)
    e2e = {
        "cpu_s": (cpu, "s"),
        "throughput": (plan.units / cpu, "1/s"),
        "setup_s": (statistics.median(runs.setup), "s"),
        "peak_rss_mb": (statistics.median(runs.rss_mb), "MB"),
    }
    layers = {}
    if args.trace:
        doc, traced_wall = traced_run(plan, env, work, runs)
        layers = layer_metrics(doc or {"spans": []}, traced_wall, wall)
        if doc and abs(layers["trace.self_share"][0] - 1.0) > 1e-9:
            runs.errors.append("span self times do not add up to the traced wall time")
        gap, searched = 0.0, 0
        if args.workload == "fig3_sweep" and runs.outputs is not None and not runs.errors:
            gap, searched = checks.reference_gap(runs.outputs[0], plan.config)
        layers["optimizer.opt_gap_bits"] = (gap, "bits")
        layers["optimizer.opt_gap_rows"] = (searched, "count")
    attempted = len(runs.walls) + (1 if args.trace else 0)
    if runs.errors:  # a failed output check fails every run, since all wrote the same bytes
        runs.failed = attempted

    for msg in runs.errors[:20]:
        print(f"check failed: {msg}")
    print(f"{args.workload}: {len(runs.walls)} timed runs, walls "
          + " ".join(f"{w:.3f}" for w in runs.walls) + f" s; failed {runs.failed}/{attempted}"
          + f" (failed_ratio {runs.failed / attempted:.3g})")
    shown = {"wall_s": (wall, "s"), "raw_cpu_s": (statistics.median(runs.cpus), "s"),
             "calibrate_s": (statistics.median(runs.cals), "s"), **e2e, **layers}
    for name, (value, unit) in shown.items():
        print(f"  {name:44s} {value:.6g} {unit}")
    prov = provenance(args, plan, runs)
    print("provenance: " + json.dumps(prov, sort_keys=True))

    report = {"provenance": prov, "walls_s": runs.walls, "raw_cpu_s": runs.cpus, "cpu_s": runs.scaled,
              "calibrate_s": runs.cals, "setup_s": runs.setup, "rss_mb": runs.rss_mb,
              "errors": runs.errors, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()}}
    (work / "report.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    for p in plan.outputs + [work / "eta_input.csv"]:
        p.unlink(missing_ok=True)

    metrics = layers if args.trace else e2e
    print(json.dumps({
        "correct": runs.failed == 0 and not runs.errors,
        "attempted": attempted,
        "failed": runs.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
